package source

import (
	"context"
	"fmt"
	"math/rand/v2"

	"vbr/internal/dist"
)

func init() {
	register(Builder{
		Name: "cascade",
		Doc:  "conservative-cascade multifractal traffic (small-timescale scaling the monofractal model lacks)",
		Defaults: Params{
			"depth": 12,    // dyadic splitting depth; block = 2^depth frames
			"mean":  25000, // mean bytes per frame
			"beta":  1.5,   // Beta(β,β) splitting-multiplier symmetry parameter
			"fps":   24,
		},
		New: newCascade,
	})
}

// cascadeSource generates multifractal traffic by a conservative
// binary cascade (arxiv 2103.06946 §II): a macro-block of 2^depth
// frames starts as one mass mean·2^depth, and each dyadic refinement
// splits every interval's mass into fractions (W, 1-W) with
// W ~ Beta(β,β). Conservation is exact at every stage — the block's
// total mass never changes — while the multiplicative splitting builds
// the burstiness-at-all-timescales that a monofractal LRD Gaussian
// process cannot show below its aggregation knee. Successive blocks
// are independent, each driven by its own derived sub-seed, so the
// stream is unbounded and reproducible under Reset.
type cascadeSource struct {
	depth int
	mean  float64
	fps   float64
	beta  dist.Gamma // Gamma(β,1); Beta(β,β) = G1/(G1+G2)

	seed  uint64
	block int // index of the next macro-block to synthesize
	buf   []float64
	off   int
}

// maxCascadeDepth bounds the macro-block, which the source allocates
// and fills before its first frame, so one request's cost: 2^20 frames
// is 8 MiB and about 0.1 s on a 2-vCPU host, and each level doubles
// both (2^24 is 128 MiB and over a second).
const maxCascadeDepth = 20

func newCascade(user Params, seed uint64) (Source, error) {
	p, err := Params(registry["cascade"].Defaults).merged(user)
	if err != nil {
		return nil, err
	}
	depth := int(p["depth"])
	if depth < 1 || depth > maxCascadeDepth {
		return nil, fmt.Errorf("source: cascade depth must be in [1,%d], got %d", maxCascadeDepth, depth)
	}
	if !(p["mean"] > 0) {
		return nil, fmt.Errorf("source: cascade mean must be positive, got %v", p["mean"])
	}
	if !(p["beta"] > 0) {
		return nil, fmt.Errorf("source: cascade beta must be positive, got %v", p["beta"])
	}
	if !(p["fps"] > 0) {
		return nil, fmt.Errorf("source: cascade fps must be positive, got %v", p["fps"])
	}
	g, err := dist.NewGamma(p["beta"], 1)
	if err != nil {
		return nil, err
	}
	c := &cascadeSource{
		depth: depth,
		mean:  p["mean"],
		fps:   p["fps"],
		beta:  g,
		buf:   make([]float64, 1<<depth),
	}
	c.Reset(seed)
	return c, nil
}

// cascadeStreamSalt decorrelates the cascade's PCG streams from the
// other zoo members' under a shared seed.
const cascadeStreamSalt = 0xca5c

func (c *cascadeSource) Reset(seed uint64) {
	c.seed = seed
	c.block = 0
	c.off = len(c.buf) // force synthesis on first Next
}

// betaSample draws Beta(β,β) as G1/(G1+G2) with G_i ~ Gamma(β,1).
// A tiny β can underflow both draws to 0, and 0/0 is NaN; Beta(β,β)
// tends to a fair coin on {0, 1} as β → 0, so a coin picks the end.
func (c *cascadeSource) betaSample(rng *rand.Rand) float64 {
	g1 := c.beta.Sample(rng)
	g2 := c.beta.Sample(rng)
	if s := g1 + g2; s > 0 {
		return g1 / s
	}
	return float64(rng.Uint64() >> 63)
}

// synthesize fills buf with the next macro-block: iterative in-place
// dyadic refinement from one interval of mass mean·2^depth down to
// 2^depth unit intervals. At stage s the first 2^s slots hold the
// stage-s interval masses; splitting walks backwards so parents are
// read before their slots are overwritten by children.
func (c *cascadeSource) synthesize() {
	rng := rand.New(rand.NewPCG(SubSeed(c.seed, c.block), cascadeStreamSalt))
	c.block++
	buf := c.buf
	buf[0] = c.mean * float64(len(buf))
	for s := 0; s < c.depth; s++ {
		width := 1 << s
		for i := width - 1; i >= 0; i-- {
			w := c.betaSample(rng)
			m := buf[i]
			buf[2*i] = m * w
			buf[2*i+1] = m * (1 - w)
		}
	}
	c.off = 0
}

//vbrlint:hotpath
func (c *cascadeSource) Next(ctx context.Context) (float64, error) {
	if c.off >= len(c.buf) {
		c.synthesize()
	}
	v := c.buf[c.off]
	c.off++
	return v, nil
}

func (c *cascadeSource) Meta() Meta {
	return Meta{
		Name:      "cascade",
		MeanBytes: c.mean,
		FrameRate: c.fps,
	}
}
