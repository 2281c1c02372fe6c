package stream

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/bits"
	"math/rand/v2"
)

// stitch streams fractional Gaussian noise in O(block) memory by
// generating independent fGn chunks of length block+overlap and
// crossfading consecutive chunks over the overlap region. The chunk
// synthesis is pluggable — Davies–Harte and Paxson share every line of
// the seam logic and differ only in how a chunk is drawn.
//
// Each chunk is drawn at synthLen(B, L) points and only its first B+L
// are used; a prefix of an exact fGn draw is exact fGn.
//
// Chunk i covers absolute frames [i·B, (i+1)·B+L): the first L samples
// are blended with the tail carried over from chunk i−1, the middle B−L
// are emitted as-is, and the next L become the carry for chunk i+1.
// The blend uses power-preserving weights
//
//	out[j] = cos(θ_j)·carry[j] + sin(θ_j)·fresh[j],  θ_j = (j+½)/L · π/2
//
// so cos²+sin² = 1 keeps the mix of two independent N(0,1) samples
// exactly N(0,1): the marginal is preserved everywhere, and only the
// autocorrelation across a seam is approximate (each chunk is
// internally one backend draw). The seam error is what the KS and
// Whittle-Ĥ tolerance tests bound.
type stitch struct {
	n       int
	block   int
	overlap int
	name    string // backend name for error messages
	eng     chunkEngine

	// Chunk idx draws from PCG stream (seed, salt+idx), so any block is
	// regenerable in isolation. Reseeding the one per-stream source
	// yields exactly the draws of a fresh rand.NewPCG(seed, salt+idx).
	seed, salt uint64
	src        *rand.PCG
	rng        *rand.Rand

	chunk []float64    // the current chunk, synthLen points
	work  []complex128 // the engine's spectrum buffer
	carry []float64
	cos   []float64 // crossfade weights cos θ_j, j < overlap
	sin   []float64 // crossfade weights sin θ_j

	idx int // next chunk index
	pos int // frames emitted
}

// chunkEngine is the seed-independent half of a chunked backend — the
// Davies–Harte eigenvalues or the Paxson spectrum, each with its FFT
// plan — drawing one chunk into caller-owned buffers without
// allocating.
type chunkEngine interface {
	DrawCtx(ctx context.Context, dst []float64, work []complex128, rng *rand.Rand) error
	WorkLen() int
}

// synthLen is the length a chunk of block+overlap points is drawn at:
// the next power of two, so both engines' chunk FFTs (2·synthLen
// points for Davies–Harte, synthLen for Paxson) run radix-2 rather
// than through Bluestein's two inner transforms of twice the size.
func synthLen(block, overlap int) int {
	return 1 << bits.Len(uint(block+overlap-1))
}

// newStitch allocates the stream's chunk buffers and computes the
// crossfade weights once, so drawing a chunk allocates nothing and
// blending calls no trigonometry.
func newStitch(cfg Config, name string, salt uint64, eng chunkEngine) *stitch {
	src := rand.NewPCG(cfg.Seed, salt)
	d := &stitch{
		n: cfg.N, block: cfg.BlockSize, overlap: cfg.Overlap,
		name: name, eng: eng,
		seed: cfg.Seed, salt: salt, src: src, rng: rand.New(src),
		chunk: make([]float64, synthLen(cfg.BlockSize, cfg.Overlap)),
		work:  make([]complex128, eng.WorkLen()),
		carry: make([]float64, 0, cfg.Overlap),
		cos:   make([]float64, cfg.Overlap),
		sin:   make([]float64, cfg.Overlap),
	}
	for j := range d.cos {
		theta := (float64(j) + 0.5) / float64(cfg.Overlap) * (math.Pi / 2)
		d.cos[j], d.sin[j] = math.Cos(theta), math.Sin(theta)
	}
	return d
}

// newDHStitch builds the Davies–Harte chunked backend: exact circulant
// embedding within chunks. Every chunk has the same synthesis length,
// so one eigenvalue vector and FFT plan — looked up once here, from
// the pool when there is one — serve all chunks of this stream and
// every other stream with the same (H, synthesis length).
func newDHStitch(ctx context.Context, cfg Config) (*stitch, error) {
	eig, err := cfg.Pool.DaviesHarteEigen(ctx, cfg.Model.Hurst, synthLen(cfg.BlockSize, cfg.Overlap))
	if err != nil {
		return nil, err
	}
	return newStitch(cfg, "davies-harte", dhStreamSalt, eig), nil
}

// newPaxsonStitch builds the Paxson chunked backend: FFT-approximate
// spectral synthesis within chunks, the fastest engine. The
// (H, synthesis length)-keyed spectrum and plan are looked up once,
// the same way the Davies–Harte eigenvalues are. Chunks draw from
// their own PCG streams under paxsonStreamSalt, so a Paxson stream and
// a Davies–Harte stream of the same seed stay independent.
func newPaxsonStitch(ctx context.Context, cfg Config) (*stitch, error) {
	spec, err := cfg.Pool.PaxsonSpectrum(ctx, cfg.Model.Hurst, synthLen(cfg.BlockSize, cfg.Overlap))
	if err != nil {
		return nil, err
	}
	return newStitch(cfg, "paxson", paxsonStreamSalt, spec), nil
}

// Next implements the gaussian contract: it emits one stitched block per
// call (the final block may be short), reusing dst as the only
// caller-visible buffer.
//
//vbrlint:hotpath
func (d *stitch) Next(ctx context.Context, dst []float64) (int, error) {
	if d.pos >= d.n {
		return 0, io.EOF
	}
	if len(dst) < d.block {
		return 0, fmt.Errorf("stream: %s block buffer too small: %d < %d", d.name, len(dst), d.block)
	}
	d.src.Seed(d.seed, d.salt+uint64(d.idx))
	if err := d.eng.DrawCtx(ctx, d.chunk, d.work, d.rng); err != nil {
		return 0, fmt.Errorf("stream: %s chunk %d: %w", d.name, d.idx, err)
	}
	chunk := d.chunk
	emit := d.block
	if rem := d.n - d.pos; emit > rem {
		emit = rem
	}
	start := 0
	if d.idx > 0 {
		for ; start < d.overlap && start < emit; start++ {
			dst[start] = d.cos[start]*d.carry[start] + d.sin[start]*chunk[start]
		}
	}
	copy(dst[start:emit], chunk[start:emit])
	if d.overlap > 0 {
		d.carry = append(d.carry[:0], chunk[d.block:d.block+d.overlap]...)
	}
	d.idx++
	d.pos += emit
	return emit, nil
}
