package stream

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand/v2"

	"vbr/internal/backend"
	"vbr/internal/errs"
	"vbr/internal/fgn"
)

// stitch streams fARIMA(0, d, 0) noise in O(chunk) memory by drawing
// independent chunks of S points and crossfading
// consecutive chunks over L overlapping points. Davies–Harte and
// Paxson share every line of the seam logic and differ only in the
// amplitudes and plan of their pair draw (fgn.Pair).
//
// Chunk c covers absolute frames [c·(S−L), (c+1)·(S−L)+L): its first L
// points are blended with the last L of chunk c−1, the next S−2L are
// emitted as-is, and its last L become the carry for chunk c+1, so each
// chunk contributes S−L new frames. Chunks 2p and 2p+1 are the Re and
// Im halves of pair p, one transform, drawn from PCG stream
// (seed, salt+p). The blend uses power-preserving weights
//
//	out[j] = cos(θ_j)·carry[j] + sin(θ_j)·fresh[j],  θ_j = (j+½)/L · π/2
//
// so cos²+sin² = 1 keeps the mix of two independent N(0,1) samples
// exactly N(0,1): the marginal is preserved everywhere, and only the
// autocorrelation across a seam is approximate (each chunk is
// internally one backend draw). Next serves any number of frames out
// of the current chunk, so the output does not depend on the caller's
// buffer.
type stitch struct {
	n       int
	size    int // S, the chunk synthesis length
	overlap int
	name    string // backend name for error messages
	pair    fgn.Pair

	// Pair p draws from PCG stream (seed, salt+p), so any pair is
	// regenerable in isolation. Reseeding the one per-stream source
	// yields exactly the draws of a fresh rand.NewPCG(seed, salt+p).
	seed, salt uint64
	src        *rand.PCG
	rng        *rand.Rand

	work  []complex128 // the pair's spectrum; Re and Im of work[:size] are chunks 2p, 2p+1
	carry []float64    // the last overlap points of the previous chunk
	cos   []float64    // crossfade weights cos θ_j, j < overlap
	sin   []float64    // crossfade weights sin θ_j

	chunk int // current chunk index, −1 before the first
	off   int // next point of the current chunk to emit
	pos   int // frames emitted
}

// geometry returns the chunk synthesis length S and overlap L of a
// stitched stream of n frames. From 4,096 frames on, chunks are 8,192
// points overlapping by 1,024 (a 7,168-frame stride). A shorter stream
// takes L = ⌊n/4⌋ and one chunk at the next power of two ≥ n + L, so
// S − L ≥ n and it never blends. S is a power of two so both engines'
// pair FFTs (2S points for Davies–Harte, S for Paxson) run radix-2
// rather than through Bluestein's two inner transforms of twice the
// size.
func geometry(n int) (size, overlap int) {
	m := min(n, 4096)
	overlap = m / 4
	return 1 << bits.Len(uint(m+overlap-1)), overlap
}

// newStitch builds the chunked stream of cfg on engine b (Davies–Harte
// or Paxson) with chunks of size points overlapping by overlap. Every
// chunk has the same synthesis length, so one pair draw — the
// Davies–Harte eigenvalues or the Paxson spectrum, with its FFT plan —
// looked up once here, from the pool when there is one, serves all
// chunks of this stream and every other stream with the same
// (H, synthesis length). The two engines draw their pairs from
// disjoint PCG salts, so streams of the same seed stay independent.
// The spectrum and carry buffers and the crossfade weights are sized
// once, so serving a chunk allocates nothing and blending calls no
// trigonometry.
func newStitch(ctx context.Context, cfg Config, b backend.Backend, size, overlap int) (*stitch, error) {
	lookup, salt := cfg.Pool.DaviesHarteEigen, uint64(dhStreamSalt)
	if b == backend.Paxson {
		lookup, salt = cfg.Pool.PaxsonSpectrum, paxsonStreamSalt
	}
	pair, err := lookup(ctx, cfg.Model.Hurst, size)
	if err != nil {
		return nil, err
	}
	src := rand.NewPCG(cfg.Seed, salt)
	d := &stitch{
		n: cfg.N, size: size, overlap: overlap,
		name: b.String(), pair: *pair,
		seed: cfg.Seed, salt: salt, src: src, rng: rand.New(src),
		work:  make([]complex128, pair.Len()),
		carry: make([]float64, overlap),
		cos:   make([]float64, overlap),
		sin:   make([]float64, overlap),
		chunk: -1,
	}
	d.off = size - overlap // the first Next draws pair 0
	for j := range d.cos {
		theta := (float64(j) + 0.5) / float64(overlap) * (math.Pi / 2)
		d.cos[j], d.sin[j] = math.Cos(theta), math.Sin(theta)
	}
	return d, nil
}

// Next implements the gaussian contract: it fills dst (the final call
// may fill less) from the current chunk, moving to the next chunk, and
// drawing the next pair, whenever one is used up. Most calls draw
// nothing, so ctx is checked on every call.
//
//vbrlint:hotpath
func (d *stitch) Next(ctx context.Context, dst []float64) (int, error) {
	if d.pos >= d.n {
		return 0, io.EOF
	}
	if ctx.Err() != nil {
		return 0, errs.Cancelled(ctx)
	}
	want := min(len(dst), d.n-d.pos)
	stride := d.size - d.overlap
	for got := 0; got < want; {
		if d.off == stride {
			if err := d.advance(ctx); err != nil {
				return 0, err
			}
		}
		k := min(want-got, stride-d.off)
		d.serve(dst[got : got+k])
		got += k
		d.off += k
	}
	d.pos += want
	return want, nil
}

// advance moves to the next chunk: it keeps the current chunk's last
// overlap points as the carry, then draws the next pair if the new
// chunk is a Re half.
func (d *stitch) advance(ctx context.Context) error {
	if d.chunk >= 0 {
		d.load(d.carry, d.size-d.overlap)
	}
	d.chunk++
	d.off = 0
	if d.chunk%2 == 1 {
		return nil
	}
	p := uint64(d.chunk / 2)
	d.src.Seed(d.seed, d.salt+p)
	if err := d.pair.DrawCtx(ctx, d.work, d.rng); err != nil {
		return fmt.Errorf("stream: %s pair %d: %w", d.name, p, err)
	}
	return nil
}

// serve writes the current chunk's next len(dst) points, blending the
// ones inside the leading overlap with the carry.
func (d *stitch) serve(dst []float64) {
	d.load(dst, d.off)
	if d.chunk == 0 {
		return
	}
	for i := d.off; i < min(d.overlap, d.off+len(dst)); i++ {
		dst[i-d.off] = d.cos[i]*d.carry[i] + d.sin[i]*dst[i-d.off]
	}
}

// load copies the current chunk's points [from, from+len(dst)) into
// dst: the real parts of the pair's spectrum for an even chunk, the
// imaginary parts for an odd one.
func (d *stitch) load(dst []float64, from int) {
	w := d.work[from : from+len(dst)]
	if d.chunk%2 == 0 {
		for i, v := range w {
			dst[i] = real(v)
		}
		return
	}
	for i, v := range w {
		dst[i] = imag(v)
	}
}
