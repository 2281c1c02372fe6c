package core

import (
	"context"
	"fmt"
	"math/rand/v2"

	"vbr/internal/arma"
	"vbr/internal/fgn"
)

// This file implements the short-range-dependence augmentations §4 of
// the paper defers to future work: "An additional set of short-term
// correlation parameters may be included by combining this model with an
// ARMA filter or modulating it with the state of a Markov chain. The SRD
// structure is by default self-similar to the long-term structure."
//
// Both augmentations operate on the standardized Gaussian stage of the
// generator, before the Eq. 13 marginal transform, so the marginal
// distribution remains exactly the hybrid Gamma/Pareto and the
// asymptotic (long-lag) correlation structure — hence H — is unchanged:
// an ARMA filter has a summable impulse response and the Markov
// modulation has geometrically decaying correlations, so neither alters
// the hyperbolic tail of the autocorrelation.

// GenerateWithARMACtx generates n frames of the full model with extra
// short-range structure: the fARIMA(0, d, 0) realization is passed
// through the given (stationary) ARMA filter — yielding a fractional
// ARIMA(p, d, q) process — restandardized, and transformed to the
// Gamma/Pareto marginal. Cancellation propagates through the Gaussian
// backbone generation.
func (m Model) GenerateWithARMACtx(ctx context.Context, n int, srd arma.Model, opts GenOptions) ([]float64, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := srd.Validate(); err != nil {
		return nil, err
	}
	x, err := m.gaussianCtx(ctx, n, opts)
	if err != nil {
		return nil, err
	}
	x, err = srd.Filter(x)
	if err != nil {
		return nil, err
	}
	fgn.Standardize(x)
	return m.transformCtx(ctx, x, opts)
}

// GenerateMarkovModulatedCtx generates n frames with the activity level
// modulated by a Markov chain: Z = √(1-w²)·X + w·M where X is the LRD
// Gaussian backbone and M the (standardized) chain level path. weight w
// in [0, 1) sets the share of variance carried by the scene process.
// Cancellation propagates through the Gaussian backbone generation.
func (m Model) GenerateMarkovModulatedCtx(ctx context.Context, n int, chain *arma.MarkovChain, weight float64, opts GenOptions) ([]float64, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if chain == nil {
		return nil, fmt.Errorf("core: nil Markov chain")
	}
	if weight < 0 || weight >= 1 {
		return nil, fmt.Errorf("core: modulation weight must be in [0,1), got %v", weight)
	}
	x, err := m.gaussianCtx(ctx, n, opts)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(opts.Seed, 0x3a7c0f))
	path, err := chain.Path(n, rng)
	if err != nil {
		return nil, err
	}
	fgn.Standardize(path)
	w := weight
	for i := range x {
		x[i] = (1-w)*x[i] + w*path[i]
	}
	fgn.Standardize(x)
	return m.transformCtx(ctx, x, opts)
}

// transformCtx applies the Eq. 13 marginal map to a standardized
// Gaussian series through the Gaussian-axis table, drawn from the
// options' pool when one is set (the table depends only on the model
// parameters and the resolution, never the data, so pooling cannot
// change the output; a nil pool builds it cold).
func (m Model) transformCtx(ctx context.Context, x []float64, opts GenOptions) ([]float64, error) {
	if opts.TableSize < 2 {
		return nil, fmt.Errorf("core: table size must be ≥ 2, got %d", opts.TableSize)
	}
	tab, err := opts.Pool.NormalTable(ctx, m.MuGamma, m.SigmaGamma, m.TailSlope, opts.TableSize)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = tab.Value(v)
	}
	return out, nil
}
