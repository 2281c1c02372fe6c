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
// ordinates) and its phase with an independent uniform, and inverse-FFTs
// the Hermitian spectrum into a real series. Cost is O(n log n); the
// output is approximate — the spectrum is sampled, not embedded, so
// finite-n correlations deviate slightly from exact fGn — but Paxson's
// study and the fidelity battery in paxson_test.go show the deviation
// is statistically invisible to the Ĥ estimators the repository uses.
//
// Like Davies–Harte, the sampler is split into a seed-independent half
// (PaxsonSpectrumCtx — the (H, n)-keyed expected-power vector, its FFT
// plan and the pair draw's amplitudes, the unit genpool caches) and a
// seed-dependent half (PaxsonFromSpectrumCtx, or DrawCtx for repeated
// allocation-free draws, or the Pair draw that streams use: two series
// per transform).

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

// paxsonLen returns the even FFT length backing a Paxson synthesis of n
// points: n itself when even, n+1 when odd (the surplus point is
// dropped after the inverse transform).
func paxsonLen(n int) int {
	if n%2 == 0 {
		return n
	}
	return n + 1
}

// PaxsonSpectrum is the seed-independent half of a Paxson sampler for
// (H, n): the expected power of each Fourier coefficient and the
// inverse-FFT plan of the m-point synthesis (m = n, rounded up to even).
// It depends only on (H, m), so it is the natural unit of cross-request
// caching — one value serves every seed and both n = m−1 and n = m —
// and it is immutable and safe for concurrent use.
type PaxsonSpectrum struct {
	power []float64 // m/2 entries; empty for n == 1
	plan  *fft.Plan // inverse, m points; nil for n == 1
	pair  Pair
}

// Power returns the expected power E|Z_j|² of Fourier coefficients
// j = 1..m/2 (entry j−1). The slice is shared and read-only.
func (p *PaxsonSpectrum) Power() []float64 { return p.power }

// WorkLen is the length of the spectrum buffer DrawCtx needs: the
// synthesis FFT length m, or 0 for n == 1.
func (p *PaxsonSpectrum) WorkLen() int { return 2 * len(p.power) }

// Pair returns the pair draw over the same spectrum: two independent
// m-point draws per m-point transform. Like DaviesHarteEigen.Pair it is
// built only at the lengths streams draw at, and is the zero Pair
// elsewhere.
func (p *PaxsonSpectrum) Pair() Pair { return p.pair }

// Bytes is the resident size of the power vector, the pair draw's
// amplitudes (none off the stream lengths) and the plan.
func (p *PaxsonSpectrum) Bytes() int64 {
	b := 8*int64(len(p.power)) + p.pair.bytes()
	if p.plan != nil {
		b += p.plan.Bytes()
	}
	return b
}

// PaxsonSpectrumCtx computes the seed-independent half of the Paxson
// sampler for (H, n): the expected power E|Z_j|² of each Fourier
// coefficient j = 1..m/2 (m = paxsonLen(n)), i.e. the fGn spectral
// density sampled at λ_j = 2πj/m and scaled so the synthesized series
// has unit variance in expectation:
//
//	Var(x_t) = (2·Σ_{j<m/2} p_j + p_{m/2}) / m² = 1,
//
// together with the plan of the m-point inverse FFT. Normalizing the
// discrete spectrum directly — rather than trusting a continuum
// constant — makes the unit-variance property exact for every finite
// m, not just asymptotically.
//
// For n == 1 no spectrum is needed (the sampler degenerates to a
// single Gaussian draw); the power vector is empty.
func PaxsonSpectrumCtx(ctx context.Context, n int, h float64) (*PaxsonSpectrum, error) {
	if n < 1 {
		return nil, fmt.Errorf("fgn: length must be ≥ 1, got %d", n)
	}
	if !validHurst(h) {
		return nil, fmt.Errorf("fgn: Hurst parameter must be in (0,1), got %v", h)
	}
	if n == 1 {
		return &PaxsonSpectrum{power: []float64{}, pair: newPair(1, nil, nil, "fgn.paxson.points")}, nil
	}
	if ctx.Err() != nil {
		return nil, errs.Cancelled(ctx)
	}
	m := paxsonLen(n)
	half := m / 2
	p := make([]float64, half)
	for j := 1; j <= half; j++ {
		p[j-1] = FGNSpectralDensity(2*math.Pi*float64(j)/float64(m), h)
	}
	if ctx.Err() != nil {
		return nil, errs.Cancelled(ctx)
	}
	// Scale so the inverse transform (which divides by m) yields unit
	// variance: interior frequencies contribute twice (conjugate pair),
	// the Nyquist once.
	var total float64
	for _, v := range p[:half-1] {
		total += 2 * v
	}
	total += p[half-1]
	scale := float64(m) * float64(m) / total
	for i := range p {
		p[i] *= scale
	}
	spec := &PaxsonSpectrum{power: p, plan: fft.NewPlan(m, fft.DirInverse)}
	if pairLen(m) {
		// The pair draw's amplitudes: a_0 = 0 (zero mean) and
		// a_k = √p_min(k,m−k), so the Hermitian part of a_k·(N₁ + iN₂)
		// has the single draw's expected power at every frequency.
		amp := make([]float64, m)
		for k := 1; k < m; k++ {
			amp[k] = math.Sqrt(p[min(k, m-k)-1])
		}
		spec.pair = newPair(m, amp, spec.plan, "fgn.paxson.points")
	}
	obs.From(ctx).Count("fgn.paxson.spectrum", 1)
	return spec, nil
}

// PaxsonFromSpectrumCtx is the seed-dependent half of the Paxson
// sampler: it randomizes the expected power from PaxsonSpectrumCtx
// (for the same n) with independent Exp(1) power and uniform phase
// draws, imposes Hermitian symmetry, and inverse-FFTs into n points of
// approximate fGn.
//
// The rng consumption order is part of the bitwise-determinism
// contract (pinned by TestPaxsonGolden): for each interior frequency
// j = 1..m/2−1 in order, one ExpFloat64 then one Float64 (phase); for
// the Nyquist frequency one ExpFloat64 then one Float64 (sign).
func PaxsonFromSpectrumCtx(ctx context.Context, n int, p *PaxsonSpectrum, rng *rand.Rand) ([]float64, error) {
	if n < 1 {
		return nil, fmt.Errorf("fgn: length must be ≥ 1, got %d", n)
	}
	if rng == nil {
		return nil, fmt.Errorf("fgn: generation needs a random source")
	}
	if n == 1 {
		return []float64{rng.NormFloat64()}, nil
	}
	if p == nil {
		return nil, fmt.Errorf("fgn: no spectrum for n=%d", n)
	}
	out := make([]float64, n)
	if err := p.DrawCtx(ctx, out, make([]complex128, paxsonLen(n)), rng); err != nil {
		return nil, err
	}
	return out, nil
}

// DrawCtx is the allocation-free form of PaxsonFromSpectrumCtx for
// callers that draw repeatedly at one length: it writes len(dst)
// points, where len(dst) rounded up to even must be the spectrum's
// synthesis length, and uses work (WorkLen entries) as the spectrum
// buffer.
//
//vbrlint:hotpath
func (p *PaxsonSpectrum) DrawCtx(ctx context.Context, dst []float64, work []complex128, rng *rand.Rand) error {
	if rng == nil {
		return fmt.Errorf("fgn: generation needs a random source")
	}
	n := len(dst)
	if n == 1 {
		dst[0] = rng.NormFloat64()
		return nil
	}
	m := paxsonLen(n)
	if m != p.WorkLen() {
		return fmt.Errorf("fgn: spectrum synthesizes %d points, drawing %d", p.WorkLen(), n)
	}
	if len(work) < m {
		return fmt.Errorf("fgn: spectrum buffer holds %d entries, want %d", len(work), m)
	}
	if ctx.Err() != nil {
		return errs.Cancelled(ctx)
	}

	// Randomized Hermitian spectrum: Z_0 = 0 (zero mean), conjugate
	// mirror for the upper half, real Nyquist with random sign.
	half, z := m/2, work[:m]
	z[0] = 0
	for j := 1; j < half; j++ {
		amp := math.Sqrt(p.power[j-1] * rng.ExpFloat64())
		phase := 2 * math.Pi * rng.Float64()
		s, c := math.Sincos(phase)
		re, im := amp*c, amp*s
		z[j] = complex(re, im)
		z[m-j] = complex(re, -im)
	}
	nyq := math.Sqrt(p.power[half-1] * rng.ExpFloat64())
	if rng.Float64() < 0.5 {
		nyq = -nyq
	}
	z[half] = complex(nyq, 0)

	if ctx.Err() != nil {
		return errs.Cancelled(ctx)
	}
	p.plan.Transform(z)
	for i := range dst {
		dst[i] = real(z[i])
	}
	obs.From(ctx).Count("fgn.paxson.points", int64(n))
	return nil
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
