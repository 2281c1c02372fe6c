package stream

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand/v2"

	"vbr/internal/errs"
	"vbr/internal/fgn"
)

// stitch streams fARIMA(0, d, 0) noise in O(chunk) memory by drawing
// independent chunks of S points and crossfading
// consecutive chunks over L overlapping points. Davies–Harte and
// Paxson share every line of the seam logic and differ only in the
// amplitudes and plan of their pair draw (fgn.Pair).
//
// S = synthLen(B, L) is the next power of two ≥ block + overlap, and
// chunk c covers absolute frames [c·(S−L), (c+1)·(S−L)+L): its first L
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
// internally one backend draw). The block size only sizes the caller's
// buffer: Next serves any number of frames out of the current chunk,
// so the output does not depend on it.
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

// synthLen is the length a chunk of block+overlap points is drawn at:
// the next power of two, so both engines' pair FFTs (2·synthLen
// points for Davies–Harte, synthLen for Paxson) run radix-2 rather
// than through Bluestein's two inner transforms of twice the size.
func synthLen(block, overlap int) int {
	return 1 << bits.Len(uint(block+overlap-1))
}

// newStitch allocates the stream's spectrum and carry buffers and
// computes the crossfade weights once, so serving a chunk allocates
// nothing and blending calls no trigonometry.
func newStitch(cfg Config, name string, salt uint64, pair fgn.Pair) *stitch {
	src := rand.NewPCG(cfg.Seed, salt)
	d := &stitch{
		n: cfg.N, size: synthLen(cfg.BlockSize, cfg.Overlap), overlap: cfg.Overlap,
		name: name, pair: pair,
		seed: cfg.Seed, salt: salt, src: src, rng: rand.New(src),
		work:  make([]complex128, pair.Len()),
		carry: make([]float64, cfg.Overlap),
		cos:   make([]float64, cfg.Overlap),
		sin:   make([]float64, cfg.Overlap),
		chunk: -1,
	}
	d.off = d.size - d.overlap // the first Next draws pair 0
	for j := range d.cos {
		theta := (float64(j) + 0.5) / float64(cfg.Overlap) * (math.Pi / 2)
		d.cos[j], d.sin[j] = math.Cos(theta), math.Sin(theta)
	}
	return d
}

// newDHStitch builds the Davies–Harte chunked backend: exact circulant
// embedding within chunks. Every chunk has the same synthesis length,
// so one pair draw — looked up once here, from the pool when there is
// one — serves all chunks of this stream and every other stream with
// the same (H, synthesis length).
func newDHStitch(ctx context.Context, cfg Config) (*stitch, error) {
	eig, err := cfg.Pool.DaviesHarteEigen(ctx, cfg.Model.Hurst, synthLen(cfg.BlockSize, cfg.Overlap))
	if err != nil {
		return nil, err
	}
	return newStitch(cfg, "davies-harte", dhStreamSalt, *eig), nil
}

// newPaxsonStitch builds the Paxson chunked backend: FFT-approximate
// spectral synthesis within chunks, the fastest engine. The
// (H, synthesis length)-keyed spectrum and its pair draw are looked up
// once, the same way the Davies–Harte eigenvalues are. Pairs draw from
// their own PCG streams under paxsonStreamSalt, so a Paxson stream and
// a Davies–Harte stream of the same seed stay independent.
func newPaxsonStitch(ctx context.Context, cfg Config) (*stitch, error) {
	spec, err := cfg.Pool.PaxsonSpectrum(ctx, cfg.Model.Hurst, synthLen(cfg.BlockSize, cfg.Overlap))
	if err != nil {
		return nil, err
	}
	return newStitch(cfg, "paxson", paxsonStreamSalt, *spec), nil
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
