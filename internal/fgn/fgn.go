// Package fgn generates long-range dependent Gaussian processes. Every
// engine draws the paper's source model, fractional ARIMA(0, d, 0)
// noise with d = H - 1/2 (Eq. 6, FarimaACF); the package name is
// historical.
//
// Hosking's algorithm, Eqs. 6–12 of the paper (after Hosking 1984),
// draws it exactly: each point is drawn from the true conditional distribution
// given the entire past. Run as written, the Levinson–Durbin recursion
// costs O(n²) time, which the paper quotes as "10 hours for 171,000
// points" on a 1994 workstation. For fARIMA(0, d, 0) its coefficients
// have a closed form (Hosking 1981) that makes the conditional mean a
// causal convolution, so the package evaluates it online in
// O(n log² n) — about 0.1 s for 171,000 points — with the same draws in
// the same order (HoskingCoeffs, HoskingStream).
//
// Two spectral engines draw the same process in O(n log n): the
// Davies–Harte circulant embedding of FarimaACF, exact in distribution,
// and Paxson's approximate synthesis from the fARIMA spectral density.
// Both have one seeded draw, Pair: two independent series from one
// radix-2 transform at a power-of-two length. A batch trace is the
// first n points of one half; the stitched streams use both halves as
// chunks.
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

// validHurst reports whether h is a legal Hurst parameter for a
// long-range-dependent (or at least stationary) generator.
func validHurst(h float64) bool { return h > 0 && h < 1 }

// FarimaACF returns the autocorrelation function ρ_0..ρ_maxLag of the
// fractional ARIMA(0, d, 0) process with d = H - 1/2 (Eq. 6):
//
//	ρ_k = Π_{i=1..k} (i - 1 + d) / (i - d),
//
// evaluated by the stable recurrence ρ_k = ρ_{k-1}·(k-1+d)/(k-d).
//
//vbrlint:ignore ctxcheck bounded O(maxLag) arithmetic recurrence with no blocking calls
func FarimaACF(h float64, maxLag int) ([]float64, error) {
	if !validHurst(h) {
		return nil, fmt.Errorf("fgn: Hurst parameter must be in (0,1), got %v", h)
	}
	if maxLag < 0 {
		return nil, fmt.Errorf("fgn: maxLag must be ≥ 0, got %d", maxLag)
	}
	d := h - 0.5
	rho := make([]float64, maxLag+1)
	rho[0] = 1
	for k := 1; k <= maxLag; k++ {
		kf := float64(k)
		rho[k] = rho[k-1] * (kf - 1 + d) / (kf - d)
	}
	return rho, nil
}

// HoskingCtx generates n points of zero-mean, unit-variance fractional
// ARIMA(0, d, 0) noise with d = H - 1/2 by the exact conditional
// recursion of Eqs. 7–12: X_k ~ N(m_k, v_k) with m_k = Σ_j φ_kj X_{k−j},
// the φ_kj and v_k from the Levinson–Durbin solution of the Yule–Walker
// system, so the output has exactly the target autocorrelation. The φ_kj
// are taken in closed form, which makes the run O(n log² n) (see
// HoskingCoeffs). Cancellation is checked once per point and returns an
// error matching errs.ErrCancelled as soon as the context is done.
func HoskingCtx(ctx context.Context, n int, h float64, rng *rand.Rand) ([]float64, error) {
	c, err := NewHoskingCoeffs(h)
	if err != nil {
		return nil, err
	}
	return HoskingFromCoeffs(ctx, n, c, rng)
}

// progressEvery is the point stride at which a Hosking generation
// reports progress and flushes its point counter.
const progressEvery = 4096

// hoskingRun is the loop behind every batch generator: it extends c to
// n points and advances a HoskingStream from progress mark to progress
// mark, so the per-point loop carries no side work. Marks count from
// the first conditioned point, point 1 (X_0 is drawn with it).
func hoskingRun(ctx context.Context, n int, c *HoskingCoeffs, rng *rand.Rand) ([]float64, error) {
	if err := c.EnsureCtx(ctx, n); err != nil {
		return nil, err
	}
	s, err := NewHoskingStreamWithCoeffs(n, c, rng)
	if err != nil {
		return nil, err
	}
	scope := obs.From(ctx)
	defer scope.Span("fgn.hosking")()
	x := make([]float64, n)
	for mark, counted := 1+progressEvery, 0; ; mark += progressEvery {
		err := s.advance(ctx, x[s.k:min(mark, n)])
		scope.Count("fgn.hosking.points", int64(s.k-counted))
		counted = s.k
		if err != nil {
			return nil, err
		}
		scope.Progress("fgn.hosking", int64(s.k), int64(n))
		if s.k == n {
			return x, nil
		}
	}
}

// DaviesHarteCtx generates n points of zero-mean, unit-variance
// fractional ARIMA(0, d, 0) noise with d = H - 1/2, the process
// HoskingCtx draws, by circulant embedding: FarimaACF is embedded in a
// circulant matrix of power-of-two size M ≥ 2n whose eigenvalues (the
// FFT of the first row) are non-negative, giving an exact O(n log n)
// sampler. Cancellation is checked between the pipeline stages (ACF
// build, eigenvalue FFT, pair draw). It is the composition of the two
// halves below: the seed-independent setup (cacheable across requests,
// keyed by (H, n)) and the seed-dependent draw.
func DaviesHarteCtx(ctx context.Context, n int, h float64, rng *rand.Rand) ([]float64, error) {
	scope := obs.From(ctx)
	defer scope.Span("fgn.daviesharte")()
	eig, err := DaviesHarteEigenCtx(ctx, n, h)
	if err != nil {
		return nil, err
	}
	return DaviesHarteFromEigenCtx(ctx, n, eig, rng)
}

// DaviesHarteEigenCtx computes the seed-independent half of the
// circulant embedding for (H, n): FarimaACF at lags 0..M/2 embedded
// in a circulant of M = 2·padLen(n) points, exact for the first
// M/2 + 1 ≥ n points, and its eigenvalues λ_k (the FFT of the first
// row, through the plan the draw uses), verified non-negative and
// clamped at numerical zero. It keeps only the pair
// draw's amplitudes, a_k = √(λ_k/M), and the plan. The result depends
// only on (H, n), so it is the natural unit of cross-request caching —
// one value serves every seed.
func DaviesHarteEigenCtx(ctx context.Context, n int, h float64) (*Pair, error) {
	if n < 1 {
		return nil, fmt.Errorf("fgn: length must be ≥ 1, got %d", n)
	}
	if !validHurst(h) {
		return nil, fmt.Errorf("fgn: Hurst parameter must be in (0,1), got %v", h)
	}
	if ctx.Err() != nil {
		return nil, errs.Cancelled(ctx)
	}
	// First row of the circulant: γ_0..γ_{M/2}, γ_{M/2−1}..γ_1.
	m := DaviesHarteLen(n)
	half := m / 2
	rho, err := FarimaACF(h, half)
	if err != nil {
		return nil, err
	}
	row := make([]complex128, m)
	for k := 0; k <= half; k++ {
		row[k] = complex(rho[k], 0)
	}
	for k := 1; k < half; k++ {
		row[m-k] = complex(rho[k], 0)
	}

	if ctx.Err() != nil {
		return nil, errs.Cancelled(ctx)
	}
	plan := fft.NewPlan(m, fft.DirForward)
	plan.Transform(row)
	// The row is symmetric, so the spectrum is real up to round-off;
	// reading λ_0..λ_{M/2} only makes a_{M−k} = a_k exactly.
	amp := make([]float64, m)
	for k := 0; k <= half; k++ {
		lambda := real(row[k])
		if lambda < 0 {
			if lambda < -1e-8*float64(m) {
				return nil, fmt.Errorf("fgn: circulant embedding not non-negative definite (λ=%v) at H=%v", lambda, h)
			}
			lambda = 0
		}
		amp[k] = math.Sqrt(lambda / float64(m))
	}
	for k := 1; k < half; k++ {
		amp[m-k] = amp[k]
	}
	obs.From(ctx).Count("fgn.daviesharte.eigen", 1)
	return &Pair{amp: amp, plan: plan, n: half, points: "fgn.daviesharte.points"}, nil
}

// DaviesHarteFromEigenCtx is the seed-dependent half of the Davies–Harte
// sampler: the first n points of the real half of one pair draw from
// eig, which must come from DaviesHarteEigenCtx for n; for the same rng
// state the output is bitwise identical to DaviesHarteCtx.
func DaviesHarteFromEigenCtx(ctx context.Context, n int, eig *Pair, rng *rand.Rand) ([]float64, error) {
	return firstHalf(ctx, n, eig, rng)
}

// Standardize rescales xs in place to zero mean and unit variance and
// returns it. Generators are exact in distribution but any finite sample
// has sampling error; the marginal-transform step of the model (Eq. 13)
// assumes an exactly standard Gaussian input, so callers standardize
// before transforming.
func Standardize(xs []float64) []float64 {
	n := len(xs)
	if n == 0 {
		return xs
	}
	var mean float64
	for _, v := range xs {
		mean += v
	}
	mean /= float64(n)
	var ss float64
	for _, v := range xs {
		d := v - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n))
	//vbrlint:ignore floateq exact-zero guard: only a literally constant series has sd == 0, and any positive sd must divide
	if sd == 0 {
		for i := range xs {
			xs[i] = 0
		}
		return xs
	}
	for i := range xs {
		xs[i] = (xs[i] - mean) / sd
	}
	return xs
}
