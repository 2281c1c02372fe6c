package fgn

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"

	"vbr/internal/errs"
	"vbr/internal/obs"
)

// This file holds the seed-independent half of the Hosking recursion:
// the levinson step (the Levinson–Durbin solution of Eqs. 7–10 and 12, a
// function of H alone) and the HoskingCoeffs schedule that records its
// φ_kk and v_k. The seed-dependent innovation draws (Eqs. 11–12) are
// HoskingStream.advance, which takes φ_kk and v_k from the step (cold) or
// from a schedule (warm). The split is what makes cross-request caching
// possible: a server handling many /v1/trace requests with the same H
// pays the O(n²) coefficient recursion once and amortizes it over every
// seed, with output bit for bit equal to the cold path's.

// HoskingCoeffs holds the seed-independent part of the Hosking recursion
// for one Hurst parameter: the partial-correlation (reflection)
// coefficients φ_kk and the conditional innovation variances v_k of
// Eqs. 10 and 12, plus the internal state needed to extend the schedule
// to longer horizons without recomputing the prefix.
//
// The schedule is a pure function of H: φ_kk and v_k at step k depend
// only on ρ_0..ρ_k, which depend only on H. A schedule computed for
// n = 171,000 therefore serves any request with the same H and a
// shorter length — the prefix-reuse rule the cache layer relies on.
//
// All methods are safe for concurrent use. Published prefixes (from
// Schedule) are append-only: extension never rewrites an index a reader
// may hold.
type HoskingCoeffs struct {
	h float64

	mu  sync.Mutex
	kk  []float64 // kk[k] = φ_kk (kk[0] unused)
	v   []float64 // v[k] = conditional variance after step k (v[0] = 1)
	lev levinson  // the recursion at the covered length: ρ and φ hold len(kk) entries
}

// NewHoskingCoeffs prepares an empty schedule for Hurst parameter h.
// The schedule initially covers a single point (X_0 needs no
// coefficients); EnsureCtx grows it on demand.
func NewHoskingCoeffs(h float64) (*HoskingCoeffs, error) {
	if !validHurst(h) {
		return nil, fmt.Errorf("fgn: Hurst parameter must be in (0,1), got %v", h)
	}
	return &HoskingCoeffs{
		h:   h,
		kk:  []float64{0},
		v:   []float64{1},
		lev: newLevinson([]float64{1}, []float64{0}),
	}, nil
}

// H returns the Hurst parameter the schedule was built for.
func (c *HoskingCoeffs) H() float64 { return c.h }

// Len returns how many points the schedule currently covers.
func (c *HoskingCoeffs) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.kk)
}

// Bytes returns the resident size of the schedule's float64 backing
// arrays, for cache byte accounting.
func (c *HoskingCoeffs) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64(cap(c.kk)+cap(c.v)+cap(c.lev.rho)+cap(c.lev.phi)) * 8
}

// EnsureCtx extends the schedule to cover at least n points, continuing
// the Levinson–Durbin recursion from where it stopped: growing from n₁
// to n₂ costs O(n₂²−n₁²), not O(n₂²). Each step is the levinson step the
// cold generators run, so the schedule entries are bitwise identical to
// the values they compute inline. Cancellation is checked once per outer
// iteration; ρ, φ, kk and v grow together by one entry per completed
// step, so an interrupted extension leaves a consistent schedule that a
// retry of any length continues.
func (c *HoskingCoeffs) EnsureCtx(ctx context.Context, n int) error {
	if n < 1 {
		return fmt.Errorf("fgn: length must be ≥ 1, got %d", n)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := len(c.kk)
	if cur >= n {
		return nil
	}
	scope := obs.From(ctx)
	defer scope.Span("fgn.hosking.coeffs")()

	d := c.h - 0.5
	for k := cur; k < n; k++ {
		if ctx.Err() != nil {
			return interruptedErr(ctx, "coefficient schedule", k, n)
		}
		c.lev.rho = append(c.lev.rho, farimaNext(c.lev.rho[k-1], k, d))
		c.lev.phi = append(c.lev.phi, 0)
		phikk, vk := c.lev.step(k)
		c.kk = append(c.kk, phikk)
		c.v = append(c.v, vk)
	}
	scope.Count("fgn.hosking.coeffs.points", int64(n-cur))
	return nil
}

// Schedule returns read-only prefix views of the φ_kk and v schedules
// covering n points. It fails if the schedule has not been extended far
// enough; callers that may be ahead of the cache call EnsureCtx first.
func (c *HoskingCoeffs) Schedule(n int) (kk, v []float64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.kk) < n {
		return nil, nil, fmt.Errorf("fgn: coefficient schedule covers %d points, need %d", len(c.kk), n)
	}
	return c.kk[:n], c.v[:n], nil
}

// interruptedErr builds the cancellation error for a Hosking loop. It
// lives outside the hot loops so their bodies stay allocation-free:
// the fmt.Errorf runs once per cancelled generation, not once per
// point, and keeping it out of the loop keeps the per-point body small.
func interruptedErr(ctx context.Context, what string, k, n int) error {
	return fmt.Errorf("fgn: %s interrupted at point %d of %d: %w", what, k, n, errs.Cancelled(ctx))
}

// levinson is the running state of the Levinson–Durbin recursion
// (Eqs. 7–10 and 12) over the fARIMA autocorrelation ρ: after step k,
// phi[1..k] holds φ_{k,·} and nPrev, dPrev, v hold N_k, D_k, v_k. It is
// the one implementation of the seed-independent half of Hosking's
// method; the cold generators interleave its steps with the innovation
// draws and HoskingCoeffs records them as a schedule.
type levinson struct {
	rho, phi        []float64
	nPrev, dPrev, v float64
}

// newLevinson starts the recursion before step 1: N_0 = 0, D_0 = 1 and
// v_0 = 1. rho and phi must hold at least k+1 entries when step(k) runs.
func newLevinson(rho, phi []float64) levinson {
	return levinson{rho: rho, phi: phi, dPrev: 1, v: 1}
}

// step advances the recursion from k-1 to k and returns φ_kk and v_k:
//
//	N_k = ρ_k − Σ_{j=1}^{k−1} φ_{k−1,j} ρ_{k−j},  D_k = D_{k−1} − N_{k−1}²/D_{k−1},
//	φ_kk = N_k/D_k,  φ_kj = φ_{k−1,j} − φ_kk φ_{k−1,k−j},  v_k = (1 − φ_kk²) v_{k−1}.
//
//vbrlint:hotpath
func (l *levinson) step(k int) (phikk, vk float64) {
	// dotRevSub walks j = 1..k-1 in order.
	nk := dotRevSub(l.rho[k], l.phi[1:k], l.rho[1:k])
	dk := l.dPrev - l.nPrev*l.nPrev/l.dPrev
	phikk = nk / dk
	updatePhiInPlace(l.phi, k, phikk)
	l.v *= 1 - phikk*phikk
	if l.v < 0 {
		// Numerically impossible for valid ρ, but guard against
		// catastrophic cancellation at extreme H.
		l.v = 0
	}
	l.nPrev, l.dPrev = nk, dk
	return phikk, l.v
}

// updatePhiInPlace applies the Levinson step φ_{k,j} = φ_{k-1,j} −
// c·φ_{k-1,k-j} for j = 1..k-1 in place and sets φ_{k,k} = c. The
// symmetric pairs (j, k-j) are read before either is written, so every
// φ_{k,j} is computed from φ_{k-1,·} alone.
//
//vbrlint:hotpath
func updatePhiInPlace(phi []float64, k int, c float64) {
	for i, j := 1, k-1; i < j; i, j = i+1, j-1 {
		a, b := phi[i], phi[j]
		phi[i] = a - c*b
		phi[j] = b - c*a
	}
	if k >= 2 && k%2 == 0 {
		m := k / 2
		a := phi[m]
		phi[m] = a - c*a
	}
	phi[k] = c
}

// HoskingFromCoeffs generates n points of fractional ARIMA(0, d, 0)
// noise like HoskingCtx, but drives the innovation recursion from a
// precomputed coefficient schedule: the O(k) linear-prediction dot
// product against ρ disappears, leaving the in-place φ update and the
// conditional-mean sum. For the same rng state the output is bitwise
// identical to HoskingCtx — the schedule holds exactly the φ_kk and v_k
// the cold recursion would compute.
//
// The schedule is extended on demand (a cache hit for a longer trace is
// still a hit for the coefficients already present).
func HoskingFromCoeffs(ctx context.Context, n int, c *HoskingCoeffs, rng *rand.Rand) ([]float64, error) {
	if n < 1 {
		return nil, fmt.Errorf("fgn: length must be ≥ 1, got %d", n)
	}
	if c == nil {
		return nil, fmt.Errorf("fgn: nil coefficient schedule")
	}
	if rng == nil {
		return nil, fmt.Errorf("fgn: generation needs a random source")
	}
	if err := c.EnsureCtx(ctx, n); err != nil {
		return nil, err
	}
	s, err := NewHoskingStreamWithCoeffs(n, c, rng)
	if err != nil {
		return nil, err
	}
	scope := obs.From(ctx)
	defer scope.Span("fgn.hosking.warm")()
	if err := s.advance(ctx, n); err != nil {
		return nil, err
	}
	scope.Count("fgn.hosking.points", int64(n))
	scope.Progress("fgn.hosking", int64(n), int64(n))
	return s.x, nil
}

// NewHoskingStreamWithCoeffs prepares an incremental Hosking generation
// like NewHoskingStream, but drawing the linear-prediction coefficients
// from a precomputed schedule, which must already cover n points (the
// cache layer extends it before constructing the stream). Block
// concatenation stays bitwise identical to the batch generators.
func NewHoskingStreamWithCoeffs(n int, c *HoskingCoeffs, rng *rand.Rand) (*HoskingStream, error) {
	if n < 1 {
		return nil, fmt.Errorf("fgn: length must be ≥ 1, got %d", n)
	}
	if c == nil {
		return nil, fmt.Errorf("fgn: nil coefficient schedule")
	}
	if rng == nil {
		return nil, fmt.Errorf("fgn: stream needs a random source")
	}
	kk, v, err := c.Schedule(n)
	if err != nil {
		return nil, err
	}
	return &HoskingStream{
		n: n, h: c.h, rng: rng,
		kk: kk, vs: v,
		x:   make([]float64, n),
		lev: levinson{phi: make([]float64, n)},
	}, nil
}
