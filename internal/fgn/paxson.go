package fgn

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"vbr/internal/errs"
	"vbr/internal/fft"
	"vbr/internal/obs"
)

// This file implements Paxson's FFT-approximate spectral synthesis
// ("Fast, Approximate Synthesis of Fractional Gaussian Noise for
// Generating Self-Similar Network Traffic", CCR 1997; arxiv
// cs/9809030) for the paper's process. The method samples a spectral
// density at the Fourier frequencies, randomizes each coefficient's
// power with an independent Exp(1) draw (the asymptotic distribution of
// periodogram ordinates) and its phase with an independent uniform, and
// inverse-FFTs the Hermitian spectrum into a real series; the pair draw
// (Pair) does both at once, since a complex normal has exactly that
// power and phase. Paxson applied it to the fGn density, which has no
// closed form; the fARIMA(0, d, 0) density does,
//
//	f(λ) ∝ |2·sin(λ/2)|^(−2d) = |2·sin(λ/2)|^(1−2H),
//
// so the sampler evaluates it exactly. Cost is O(n log n); the output
// is approximate — the spectrum is sampled, not embedded, and the zero
// frequency is dropped, so finite-n correlations fall short of
// FarimaACF by a gap that grows with H (documented at
// TestPaxsonImpliedACF) — but the fidelity battery in paxson_test.go
// shows the deviation is statistically invisible to the Ĥ estimators
// the repository uses.
//
// Like Davies–Harte, the sampler is split into a seed-independent half
// (PaxsonSpectrumCtx — the (H, n)-keyed pair amplitudes and their FFT
// plan, the unit genpool caches) and a seed-dependent half
// (PaxsonFromSpectrumCtx for a batch trace, or the Pair draw itself,
// which streams call for two chunks per transform).

// PaxsonSpectrumCtx computes the seed-independent half of the Paxson
// sampler for (H, n): the fARIMA(0, d, 0) spectral density
// |2·sin(λ/2)|^(1−2H) sampled at the M = max(2, padLen(n)) Fourier
// frequencies λ_j = 2πj/M, scaled to the expected power p_j of each
// coefficient j = 1..M/2 so the synthesized series has unit variance
// in expectation,
//
//	Var(x_t) = (2·Σ_{j<M/2} p_j + p_{M/2}) / M² = 1,
//
// and kept as the pair draw's amplitudes, a_0 = 0 (zero mean) and
// a_k = √p_min(k,M−k), with the plan of the M-point inverse FFT.
// Normalizing the discrete spectrum directly — rather than trusting a
// continuum constant — makes the unit-variance property exact for every
// finite M, not just asymptotically. The result depends only on (H, n),
// so it is the natural unit of cross-request caching.
func PaxsonSpectrumCtx(ctx context.Context, n int, h float64) (*Pair, error) {
	if n < 1 {
		return nil, fmt.Errorf("fgn: length must be ≥ 1, got %d", n)
	}
	if !validHurst(h) {
		return nil, fmt.Errorf("fgn: Hurst parameter must be in (0,1), got %v", h)
	}
	if ctx.Err() != nil {
		return nil, errs.Cancelled(ctx)
	}
	m := PaxsonLen(n)
	half := m / 2
	amp := make([]float64, m)
	for j := 1; j <= half; j++ {
		amp[j] = math.Pow(2*math.Sin(math.Pi*float64(j)/float64(m)), 1-2*h)
	}
	// Scale so the inverse transform (which divides by M) yields unit
	// variance: interior frequencies contribute twice (conjugate pair),
	// the Nyquist once.
	var total float64
	for _, v := range amp[1:half] {
		total += 2 * v
	}
	total += amp[half]
	scale := float64(m) * float64(m) / total
	for k := 1; k <= half; k++ {
		amp[k] = math.Sqrt(amp[k] * scale)
		amp[m-k] = amp[k]
	}
	obs.From(ctx).Count("fgn.paxson.spectrum", 1)
	return &Pair{amp: amp, plan: fft.NewPlan(m, fft.DirInverse), n: m, points: "fgn.paxson.points"}, nil
}

// PaxsonFromSpectrumCtx is the seed-dependent half of the Paxson
// sampler: the first n points of the real half of one pair draw from
// p, which must come from PaxsonSpectrumCtx for n; for the same rng
// state the output is bitwise identical to PaxsonCtx.
func PaxsonFromSpectrumCtx(ctx context.Context, n int, p *Pair, rng *rand.Rand) ([]float64, error) {
	return firstHalf(ctx, n, p, rng)
}

// PaxsonCtx generates n points of approximate fractional ARIMA(0, d, 0)
// noise with d = h - 1/2 in O(n log n): the composition of
// PaxsonSpectrumCtx and PaxsonFromSpectrumCtx. Cancellation is checked
// between the pipeline stages and surfaces as an error matching
// errs.ErrCancelled.
func PaxsonCtx(ctx context.Context, n int, h float64, rng *rand.Rand) ([]float64, error) {
	scope := obs.From(ctx)
	defer scope.Span("fgn.paxson")()
	p, err := PaxsonSpectrumCtx(ctx, n, h)
	if err != nil {
		return nil, err
	}
	return PaxsonFromSpectrumCtx(ctx, n, p, rng)
}
