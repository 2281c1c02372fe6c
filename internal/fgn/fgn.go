// Package fgn generates long-range dependent Gaussian processes.
//
// The primary generator is Hosking's exact algorithm for fractional
// ARIMA(0, d, 0) noise, Eqs. 6–12 of the paper (after Hosking 1984):
// each point is drawn from the true conditional distribution given the
// entire past. Run as written, the Levinson–Durbin recursion costs
// O(n²) time, which the paper quotes as "10 hours for 171,000 points"
// on a 1994 workstation. For fARIMA(0, d, 0) its coefficients have a
// closed form (Hosking 1981) that makes the conditional mean a causal
// convolution, so the package evaluates it online in O(n log² n) —
// about 0.1 s for 171,000 points — with the same draws in the same
// order (HoskingCoeffs, HoskingStream).
//
// As the repository's speed ablation the package also implements the
// Davies–Harte circulant-embedding generator for fractional Gaussian
// noise, which is exact in distribution as well but runs in O(n log n),
// and Paxson's approximate spectral synthesis. Both also draw in pairs
// (Pair): two independent series from one transform, which is how the
// stitched streams draw their chunks.
package fgn

import (
	"context"
	"encoding"
	"errors"
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

// FGNACF returns the autocovariance-derived autocorrelation of fractional
// Gaussian noise with Hurst parameter H:
//
//	ρ_k = ½(|k+1|^{2H} − 2|k|^{2H} + |k−1|^{2H}).
//
//vbrlint:ignore ctxcheck bounded O(maxLag) arithmetic recurrence with no blocking calls
func FGNACF(h float64, maxLag int) ([]float64, error) {
	if !validHurst(h) {
		return nil, fmt.Errorf("fgn: Hurst parameter must be in (0,1), got %v", h)
	}
	if maxLag < 0 {
		return nil, fmt.Errorf("fgn: maxLag must be ≥ 0, got %d", maxLag)
	}
	rho := make([]float64, maxLag+1)
	h2 := 2 * h
	for k := 0; k <= maxLag; k++ {
		kf := float64(k)
		rho[k] = 0.5 * (math.Pow(kf+1, h2) - 2*math.Pow(kf, h2) + math.Pow(math.Abs(kf-1), h2))
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

// MarshalableSource is a random source whose internal state can be
// captured and restored byte-exactly, as *math/rand/v2.PCG can. It is
// what makes an interrupted generation resumable with bitwise-identical
// output.
type MarshalableSource interface {
	rand.Source
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// HoskingState is a snapshot of a generation stopped before point K:
// the prefix X[0..K-1] and the random-source position. With (N, H) it
// resumes the run — the generator rebuilds its state from X — with
// output bitwise identical to an uninterrupted run.
type HoskingState struct {
	N   int
	H   float64
	K   int       // next point to generate, 0 ≤ K ≤ N
	X   []float64 // generated prefix, length K
	RNG []byte    // marshaled MarshalableSource state
}

// Validate reports whether a generation could have stopped in st: a
// valid H, 0 ≤ K ≤ N, K finite points, and random-source bytes that src
// accepts, restoring it. Failures match errs.ErrCheckpointCorrupt.
func (st *HoskingState) Validate(src MarshalableSource) error {
	if !validHurst(st.H) || st.N < 1 || st.K < 0 || st.K > st.N || len(st.X) != st.K {
		return fmt.Errorf("fgn: snapshot state inconsistent (N=%d, H=%v, K=%d, |X|=%d): %w",
			st.N, st.H, st.K, len(st.X), errs.ErrCheckpointCorrupt)
	}
	if !finite(st.X...) {
		return fmt.Errorf("fgn: snapshot prefix holds a non-finite point: %w", errs.ErrCheckpointCorrupt)
	}
	if len(st.RNG) == 0 {
		return fmt.Errorf("fgn: snapshot carries no random-source state: %w", errs.ErrCheckpointCorrupt)
	}
	if err := src.UnmarshalBinary(st.RNG); err != nil {
		return fmt.Errorf("fgn: restoring random source: %w: %w", errs.ErrCheckpointCorrupt, err)
	}
	return nil
}

// SnapshotFunc persists a periodic recursion snapshot. A non-nil error
// aborts the generation: a run that believes it is checkpointed but
// cannot actually write checkpoints should fail loudly, not complete
// unprotected.
type SnapshotFunc func(*HoskingState) error

// HoskingCheckpointed generates like HoskingCtx but from a marshalable
// random source, so an interrupted run can be checkpointed and resumed.
// When resume is nil a fresh generation starts from src's current state;
// otherwise src is restored from the snapshot and the generation
// continues at point resume.K. On cancellation it returns a non-nil
// *HoskingState alongside an error matching errs.ErrCancelled; on
// success the state is nil and x holds all n points.
//
// When save is non-nil and every is positive, a snapshot is also taken
// and handed to save after each block of every points, so a crashed
// (not just signalled) run loses at most one block of work. Snapshots
// are taken between points, before the next point consumes randomness,
// which keeps resumed output bitwise identical.
func HoskingCheckpointed(ctx context.Context, n int, h float64, src MarshalableSource, resume *HoskingState, every int, save SnapshotFunc) ([]float64, *HoskingState, error) {
	if src == nil {
		return nil, nil, fmt.Errorf("fgn: resumable generation needs a marshalable source")
	}
	c, err := NewHoskingCoeffs(h)
	if err != nil {
		return nil, nil, err
	}
	return hoskingRun(ctx, n, c, rand.New(src), src, resume, every, save)
}

// progressEvery is the point stride at which a Hosking generation
// reports progress and flushes its point counter.
const progressEvery = 4096

// hoskingRun is the loop behind every batch generator: it extends c to
// n points and advances a HoskingStream from mark to mark — progress
// every progressEvery points and, when save is set and every is
// positive, a snapshot every `every` points — so the per-point loop
// carries no side work. src may be nil (no checkpointing); resume may
// be nil (a fresh start from src's current position).
func hoskingRun(ctx context.Context, n int, c *HoskingCoeffs, rng *rand.Rand, src MarshalableSource, resume *HoskingState, every int, save SnapshotFunc) ([]float64, *HoskingState, error) {
	if resume != nil {
		if err := validateState(resume, n, c.h, src); err != nil {
			return nil, nil, err
		}
	}
	// Cancelled before its first point, a run stops where it started.
	unstarted := func() *HoskingState {
		if src == nil || resume != nil {
			return resume
		}
		return snapshot(n, c.h, nil, src)
	}
	if err := c.EnsureCtx(ctx, n); err != nil {
		if errors.Is(err, errs.ErrCancelled) {
			return nil, unstarted(), err
		}
		return nil, nil, err
	}
	s, err := NewHoskingStreamWithCoeffs(n, c, rng)
	if err != nil {
		return nil, nil, err
	}
	scope := obs.From(ctx)
	defer scope.Span("fgn.hosking")()
	x := make([]float64, n)
	if resume != nil {
		if err := s.replay(ctx, resume.X); err != nil {
			return nil, unstarted(), err
		}
		copy(x, resume.X)
	}

	// Marks count from the first conditioned point: point 1 on a fresh
	// start (X_0 is drawn with it), point K on a resume. flushed is the
	// position up to which fgn.hosking.points has been counted.
	flushed, k0 := s.k, max(s.k, 1)
	nextProg, nextSnap := k0+progressEvery, n
	if save != nil && every > 0 {
		nextSnap = k0 + every
	}
	for {
		err := s.advance(ctx, x[s.k:min(nextProg, nextSnap, n)])
		k := s.k
		if err != nil {
			scope.Count("fgn.hosking.points", int64(k-flushed))
			var st *HoskingState
			if src != nil {
				st = snapshot(n, c.h, x[:k], src)
				scope.Count("checkpoint.snapshots", 1)
			}
			return nil, st, err
		}
		if k == n {
			break
		}
		if k == nextProg {
			scope.Count("fgn.hosking.points", int64(k-flushed))
			flushed = k
			scope.Progress("fgn.hosking", int64(k), int64(n))
			nextProg += progressEvery
		}
		if k == nextSnap {
			st := snapshot(n, c.h, x[:k], src)
			scope.Count("checkpoint.snapshots", 1)
			if err := save(st); err != nil {
				return nil, st, fmt.Errorf("fgn: saving periodic snapshot at point %d of %d: %w", k, n, err)
			}
			nextSnap += every
		}
	}
	scope.Count("fgn.hosking.points", int64(n-flushed))
	scope.Progress("fgn.hosking", int64(n), int64(n))
	return x, nil, nil
}

// snapshot copies the prefix x of an n-point run into a snapshot.
func snapshot(n int, h float64, x []float64, src MarshalableSource) *HoskingState {
	st := &HoskingState{N: n, H: h, K: len(x), X: append([]float64(nil), x...)}
	if b, err := src.MarshalBinary(); err == nil {
		st.RNG = b
	}
	return st
}

// validateState checks a resume snapshot against the requested run and
// restores src from it.
func validateState(st *HoskingState, n int, h float64, src MarshalableSource) error {
	//vbrlint:ignore floateq resuming a checkpoint requires bitwise-identical H, not approximate equality
	if st.N != n || st.H != h {
		return fmt.Errorf("fgn: snapshot is for n=%d H=%v, run wants n=%d H=%v: %w",
			st.N, st.H, n, h, errs.ErrCheckpointMismatch)
	}
	return st.Validate(src)
}

// finite reports whether no value is NaN or ±Inf.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// DaviesHarteCtx generates n points of zero-mean, unit-variance
// fractional Gaussian noise with Hurst parameter H by circulant
// embedding: the autocovariance sequence is embedded in a circulant
// matrix of size 2n whose eigenvalues (the FFT of the first row) are
// provably non-negative for FGN, giving an exact O(n log n) sampler.
// Cancellation is checked between the pipeline stages (ACF build,
// eigenvalue FFT, spectrum randomization, synthesis FFT). It is the
// composition of the two halves below: the seed-independent eigenvalue
// setup (cacheable across requests, keyed by (H, n)) and the
// seed-dependent synthesis.
func DaviesHarteCtx(ctx context.Context, n int, h float64, rng *rand.Rand) ([]float64, error) {
	scope := obs.From(ctx)
	defer scope.Span("fgn.daviesharte")()
	eig, err := DaviesHarteEigenCtx(ctx, n, h)
	if err != nil {
		return nil, err
	}
	return DaviesHarteFromEigenCtx(ctx, n, eig, rng)
}

// DaviesHarteEigen is the seed-independent half of a Davies–Harte
// sampler for (H, n): the eigenvalues of the 2n circulant matrix built
// from the FGN autocovariance, and the FFT plan of the 2n-point
// synthesis. It depends only on (H, n), so it is the natural unit of
// cross-request caching — one value serves every seed — and it is
// immutable and safe for concurrent use.
type DaviesHarteEigen struct {
	n      int
	lambda []float64
	plan   *fft.Plan // forward, 2n points; nil when n == 1
	pair   Pair
}

// Lambda returns the 2n circulant eigenvalues (empty for n == 1). The
// slice is shared and read-only.
func (e *DaviesHarteEigen) Lambda() []float64 { return e.lambda }

// Pair returns the pair draw over the same embedding: two independent
// n-point draws per 2n-point transform. It is built only at the lengths
// streams draw at (see pairLen); elsewhere it is the zero Pair, whose
// DrawCtx fails.
func (e *DaviesHarteEigen) Pair() Pair { return e.pair }

// Bytes is the resident size of the eigenvalues, the pair draw's
// amplitudes (none off the stream lengths) and the plan.
func (e *DaviesHarteEigen) Bytes() int64 {
	b := 8*int64(len(e.lambda)) + e.pair.bytes()
	if e.plan != nil {
		b += e.plan.Bytes()
	}
	return b
}

// DaviesHarteEigenCtx computes the seed-independent half of the
// circulant embedding for (H, n): the eigenvalues of the 2n circulant
// (the FFT of its first row, through the same plan the synthesis
// uses), verified non-negative and clamped at numerical zero.
//
// For n == 1 the sampler needs no embedding; the eigenvalues are empty
// and DaviesHarteFromEigenCtx ignores them.
func DaviesHarteEigenCtx(ctx context.Context, n int, h float64) (*DaviesHarteEigen, error) {
	if n < 1 {
		return nil, fmt.Errorf("fgn: length must be ≥ 1, got %d", n)
	}
	if !validHurst(h) {
		return nil, fmt.Errorf("fgn: Hurst parameter must be in (0,1), got %v", h)
	}
	if n == 1 {
		return &DaviesHarteEigen{n: 1, lambda: []float64{}, pair: newPair(1, nil, nil, "fgn.daviesharte.points")}, nil
	}
	if ctx.Err() != nil {
		return nil, errs.Cancelled(ctx)
	}
	// First row of the circulant: γ_0..γ_n, γ_{n-1}..γ_1.
	rho, err := FGNACF(h, n)
	if err != nil {
		return nil, err
	}
	m := 2 * n
	row := make([]complex128, m)
	for k := 0; k <= n; k++ {
		row[k] = complex(rho[k], 0)
	}
	for k := 1; k < n; k++ {
		row[m-k] = complex(rho[k], 0)
	}

	if ctx.Err() != nil {
		return nil, errs.Cancelled(ctx)
	}
	plan := fft.NewPlan(m, fft.DirForward)
	plan.Transform(row)
	// Eigenvalues must be (numerically) non-negative. Only the real
	// parts matter downstream (the row is symmetric, so the spectrum is
	// real up to round-off); keeping float64 halves the cache footprint.
	lambda := make([]float64, m)
	for i := range row {
		lambda[i] = real(row[i])
		if lambda[i] < 0 {
			if lambda[i] < -1e-8*float64(m) {
				return nil, fmt.Errorf("fgn: circulant embedding not non-negative definite (λ=%v) at H=%v", lambda[i], h)
			}
			lambda[i] = 0
		}
	}
	eig := &DaviesHarteEigen{n: n, lambda: lambda, plan: plan}
	if pairLen(n) {
		// The pair draw's amplitudes, a_k = √(λ_k/2n). Like the
		// Hermitian draw below, they read λ_0..λ_n only, so
		// a_{2n−k} = a_k exactly.
		amp := make([]float64, m)
		for k := range amp {
			amp[k] = math.Sqrt(lambda[min(k, m-k)] / float64(m))
		}
		eig.pair = newPair(n, amp, plan, "fgn.daviesharte.points")
	}
	obs.From(ctx).Count("fgn.daviesharte.eigen", 1)
	return eig, nil
}

// DaviesHarteFromEigenCtx is the seed-dependent half of the Davies–Harte
// sampler: it randomizes the spectrum with Hermitian symmetry and
// inverse-transforms it into n points of FGN. eig must come from
// DaviesHarteEigenCtx for the same n; for the same rng state the output
// is bitwise identical to DaviesHarteCtx.
func DaviesHarteFromEigenCtx(ctx context.Context, n int, eig *DaviesHarteEigen, rng *rand.Rand) ([]float64, error) {
	if n < 1 {
		return nil, fmt.Errorf("fgn: length must be ≥ 1, got %d", n)
	}
	if rng == nil {
		return nil, fmt.Errorf("fgn: generation needs a random source")
	}
	if n == 1 {
		return []float64{rng.NormFloat64()}, nil
	}
	if eig == nil {
		return nil, fmt.Errorf("fgn: no eigenvalues for n=%d", n)
	}
	out := make([]float64, n)
	if err := eig.DrawCtx(ctx, out, make([]complex128, 2*n), rng); err != nil {
		return nil, err
	}
	return out, nil
}

// DrawCtx is the allocation-free form of DaviesHarteFromEigenCtx for
// callers that draw repeatedly at one length: it writes len(dst)
// points, which must equal the n the eigenvalues were computed for,
// and uses work (2n entries) as the spectrum buffer.
//
//vbrlint:hotpath
func (e *DaviesHarteEigen) DrawCtx(ctx context.Context, dst []float64, work []complex128, rng *rand.Rand) error {
	if rng == nil {
		return fmt.Errorf("fgn: generation needs a random source")
	}
	n := len(dst)
	if n == 1 {
		dst[0] = rng.NormFloat64()
		return nil
	}
	if n != e.n {
		return fmt.Errorf("fgn: eigenvalues computed for n=%d, drawing %d points", e.n, n)
	}
	m := 2 * n
	if len(work) < m {
		return fmt.Errorf("fgn: spectrum buffer holds %d entries, want %d", len(work), m)
	}
	if ctx.Err() != nil {
		return errs.Cancelled(ctx)
	}

	// Build the randomized spectrum with the Hermitian symmetry that makes
	// the inverse FFT real-valued.
	lambda, w := e.lambda, work[:m]
	scale := 1 / math.Sqrt(float64(m))
	w[0] = complex(math.Sqrt(lambda[0])*rng.NormFloat64()*scale, 0)
	w[n] = complex(math.Sqrt(lambda[n])*rng.NormFloat64()*scale, 0)
	for k := 1; k < n; k++ {
		sd := math.Sqrt(lambda[k] / 2)
		re := sd * rng.NormFloat64() * scale
		im := sd * rng.NormFloat64() * scale
		w[k] = complex(re, im)
		w[m-k] = complex(re, -im)
	}

	if ctx.Err() != nil {
		return errs.Cancelled(ctx)
	}
	e.plan.Transform(w)
	for i := range dst {
		dst[i] = real(w[i])
	}
	obs.From(ctx).Count("fgn.daviesharte.points", int64(n))
	return nil
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
