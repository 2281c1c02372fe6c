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

// This file implements Paxson's FFT-approximate synthesis of fractional
// Gaussian noise ("Fast, Approximate Synthesis of Fractional Gaussian
// Noise for Generating Self-Similar Network Traffic", CCR 1997; arxiv
// cs/9809030). The method samples the fGn spectral density at the
// Fourier frequencies, randomizes each coefficient's power with an
// independent Exp(1) draw (the asymptotic distribution of periodogram
// ordinates) and its phase with an independent uniform, and
// inverse-FFTs the Hermitian spectrum into a real series; the pair draw
// (Pair) does both at once, since a complex normal has exactly that
// power and phase. Cost is O(n log n); the output is approximate — the
// spectrum is sampled, not embedded, so finite-n correlations deviate
// slightly from exact fGn — but Paxson's study and the fidelity battery
// in paxson_test.go show the deviation is statistically invisible to
// the Ĥ estimators the repository uses.
//
// Like Davies–Harte, the sampler is split into a seed-independent half
// (PaxsonSpectrumCtx — the (H, n)-keyed pair amplitudes and their FFT
// plan, the unit genpool caches) and a seed-dependent half
// (PaxsonFromSpectrumCtx for a batch trace, or the Pair draw itself,
// which streams call for two chunks per transform).

// paxsonB3 evaluates B̃(λ; H), the 3-term Taylor-plus-tail
// approximation of Paxson §A to the infinite sum Σ_{j≥1} [(2πj+λ)^d +
// (2πj−λ)^d] with d = −2H−1 that the fGn spectral density needs at
// each frequency: three exact terms, an Euler–Maclaurin tail estimate
// with exponent d′ = −2H, and Paxson's empirical correction factor
// (1.0002 − 0.000134λ) fitted against the 200-term truth.
func paxsonB3(lambda, h float64) float64 {
	d := -2*h - 1
	dd := -2 * h
	sum := 0.0
	for j := 1; j <= 3; j++ {
		twoPiJ := 2 * math.Pi * float64(j)
		sum += math.Pow(twoPiJ+lambda, d) + math.Pow(twoPiJ-lambda, d)
	}
	tail := math.Pow(6*math.Pi+lambda, dd) + math.Pow(6*math.Pi-lambda, dd) +
		math.Pow(8*math.Pi+lambda, dd) + math.Pow(8*math.Pi-lambda, dd)
	b3 := sum + tail/(8*math.Pi*h)
	return (1.0002 - 0.000134*lambda) * (b3 - math.Pow(2, -7.65*h-7.4))
}

// FGNSpectralDensity evaluates Paxson's closed-form approximation to
// the spectral density of fractional Gaussian noise at frequency
// λ ∈ (0, π]:
//
//	f(λ; H) = A(λ, H) · [λ^(−2H−1) + B̃(λ, H)]
//	A(λ, H) = 2·sin(πH)·Γ(2H+1)·(1 − cos λ)
//
// Only the shape matters to the sampler — PaxsonSpectrumCtx normalizes
// the discrete spectrum to unit output variance — so the constant
// convention (this is 2π times the density whose integral over
// (−π, π] is the variance) is harmless.
func FGNSpectralDensity(lambda, h float64) float64 {
	a := 2 * math.Sin(math.Pi*h) * math.Gamma(2*h+1) * (1 - math.Cos(lambda))
	return a * (math.Pow(lambda, -2*h-1) + paxsonB3(lambda, h))
}

// PaxsonSpectrumCtx computes the seed-independent half of the Paxson
// sampler for (H, n): the fGn spectral density sampled at the
// M = max(2, padLen(n)) Fourier frequencies λ_j = 2πj/M, scaled to the
// expected power p_j of each coefficient j = 1..M/2 so the synthesized
// series has unit variance in expectation,
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
		amp[j] = FGNSpectralDensity(2*math.Pi*float64(j)/float64(m), h)
	}
	if ctx.Err() != nil {
		return nil, errs.Cancelled(ctx)
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

// PaxsonCtx generates n points of approximate fractional Gaussian
// noise with Hurst parameter h in O(n log n): the composition of
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
