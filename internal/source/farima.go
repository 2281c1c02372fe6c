package source

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"

	"vbr/internal/backend"
	"vbr/internal/core"
	"vbr/internal/stream"
)

func init() {
	register(Builder{
		Name: "farima",
		Doc:  "the paper's §4 Gamma/Pareto-fARIMA(0,d,0) LRD video model (first zoo member)",
		Defaults: Params{
			"mean":  27791, // μ_Γ bytes/frame (paper trace fit)
			"std":   6254,  // σ_Γ bytes/frame
			"tail":  12,    // m_T Pareto tail slope
			"hurst": 0.8,   // H
			"n":     171000,
			"block": 4096,
			"fps":   24,
		},
		New: newFarima,
	})
}

// farimaSource wraps the streaming §4 generator as a zoo member. The
// Source contract is an unbounded per-frame stream, while a
// stream.Stream has a fixed horizon n; past the horizon the wrapper
// reopens a fresh stream under a derived sub-seed, so long consumers
// see an endless series of independent n-frame epochs, each with the
// model's full LRD structure.
type farimaSource struct {
	cfg   stream.Config
	fps   float64
	seed  uint64
	epoch int

	src *stream.Stream
	blk []float64
	off int
}

func newFarima(user Params, seed uint64) (Source, error) {
	p, err := Params(registry["farima"].Defaults).merged(user)
	if err != nil {
		return nil, err
	}
	n := int(p["n"])
	block := int(p["block"])
	if n < 1 {
		return nil, fmt.Errorf("source: farima horizon n must be ≥ 1, got %d", n)
	}
	if block < 1 {
		return nil, fmt.Errorf("source: farima block must be ≥ 1, got %d", block)
	}
	if !(p["fps"] > 0) {
		return nil, fmt.Errorf("source: farima fps must be positive, got %v", p["fps"])
	}
	cfg := stream.Config{
		Model: core.Model{
			MuGamma:    p["mean"],
			SigmaGamma: p["std"],
			TailSlope:  p["tail"],
			Hurst:      p["hurst"],
		},
		N:         n,
		BlockSize: block,
		Backend:   backend.DaviesHarte,
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	f := &farimaSource{cfg: cfg, fps: p["fps"]}
	f.Reset(seed)
	return f, nil
}

// Reset implements Source. Stream construction is deferred to the
// first Next so that Reset stays cheap for consumers that reseed whole
// populations up front.
func (f *farimaSource) Reset(seed uint64) {
	f.seed = seed
	f.epoch = 0
	f.src = nil
	f.blk = nil
	f.off = 0
}

func (f *farimaSource) open(ctx context.Context) error {
	cfg := f.cfg
	cfg.Seed = SubSeed(f.seed, f.epoch)
	src, err := stream.OpenCtx(ctx, cfg)
	if err != nil {
		return err
	}
	f.src = src
	f.blk = nil
	f.off = 0
	return nil
}

//vbrlint:hotpath
func (f *farimaSource) Next(ctx context.Context) (float64, error) {
	for f.off >= len(f.blk) {
		if f.src == nil {
			if err := f.open(ctx); err != nil {
				return 0, err
			}
		}
		blk, err := f.src.Next(ctx)
		if errors.Is(err, io.EOF) {
			// Horizon reached: roll to the next epoch's stream.
			f.epoch++
			f.src = nil
			continue
		}
		if err != nil {
			return 0, err
		}
		f.blk = blk
		f.off = 0
	}
	v := f.blk[f.off]
	f.off++
	return v, nil
}

func (f *farimaSource) Meta() Meta {
	mean := f.cfg.Model.MuGamma
	if gp, err := f.cfg.Model.Marginal(); err == nil {
		if mu := gp.Mean(); !math.IsInf(mu, 0) && mu > 0 {
			mean = mu
		}
	}
	return Meta{
		Name:      "farima",
		MeanBytes: mean,
		FrameRate: f.fps,
	}
}
