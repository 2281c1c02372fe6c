// Package fgn generates long-range dependent Gaussian processes.
//
// The primary generator is Hosking's exact algorithm for fractional
// ARIMA(0, d, 0) noise, transcribed from Eqs. 6–12 of the paper (after
// Hosking 1984). It is exact — each point is drawn from the true
// conditional distribution given the entire past — but costs O(n²) time,
// which the paper quotes as "10 hours for 171,000 points" on a 1994
// workstation (seconds today).
//
// As the repository's speed ablation the package also implements the
// Davies–Harte circulant-embedding generator for fractional Gaussian
// noise, which is exact in distribution as well but runs in O(n log n).
package fgn

import (
	"context"
	"encoding"
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
		rho[k] = farimaNext(rho[k-1], k, d)
	}
	return rho, nil
}

// farimaNext is one step of FarimaACF's recurrence: ρ_k from ρ_{k-1}.
// HoskingCoeffs extends ρ with it, so a schedule grown in stages sees
// exactly the values of a one-shot FarimaACF.
func farimaNext(prev float64, k int, d float64) float64 {
	kf := float64(k)
	return prev * (kf - 1 + d) / (kf - d)
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

// Hosking generates n points of zero-mean, unit-variance fractional
// ARIMA(0, d, 0) noise with d = H - 1/2 using the exact conditional
// recursion of Eqs. 7–12:
//
//	N_k = ρ_k − Σ_{j=1}^{k−1} φ_{k−1,j} ρ_{k−j}
//	D_k = D_{k−1} − N_{k−1}²/D_{k−1}
//	φ_kk = N_k/D_k
//	φ_kj = φ_{k−1,j} − φ_kk φ_{k−1,k−j}
//	m_k  = Σ φ_kj X_{k−j},   v_k = (1 − φ_kk²) v_{k−1}
//
// with X_k ~ N(m_k, v_k). The recursion is the Levinson–Durbin solution
// of the Yule–Walker system, so the output has exactly the target
// autocorrelation structure.
func Hosking(n int, h float64, rng *rand.Rand) ([]float64, error) {
	return HoskingCtx(context.Background(), n, h, rng)
}

// HoskingCtx is Hosking with cooperative cancellation: the O(n²)
// recursion checks ctx once per outer iteration and returns an error
// matching errs.ErrCancelled as soon as the context is done.
func HoskingCtx(ctx context.Context, n int, h float64, rng *rand.Rand) ([]float64, error) {
	x, _, err := hoskingRun(ctx, n, h, rng, nil, nil, 0, nil)
	return x, err
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

// HoskingState is a snapshot of the Hosking recursion taken at the top
// of outer iteration K: the generated prefix X[0..K-1], the partial
// linear-prediction coefficients φ_{K-1,·}, the scalar recursion state
// (Eqs. 7–12), and the serialized random-source position. Together with
// (N, H) — the ρ sequence is recomputed deterministically — it resumes
// the generation to produce output bitwise identical to an uninterrupted
// run.
type HoskingState struct {
	N       int
	H       float64
	K       int       // next point to generate, 1 ≤ K ≤ N
	V       float64   // conditional variance v_{K-1}
	NPrev   float64   // N_{K-1}
	DPrev   float64   // D_{K-1}
	X       []float64 // generated prefix, length K
	PhiPrev []float64 // φ_{K-1,j}, j = 1..K-1 (index 0 unused), length K
	RNG     []byte    // marshaled MarshalableSource state
}

// SnapshotFunc persists a periodic recursion snapshot. A non-nil error
// aborts the generation: a run that believes it is checkpointed but
// cannot actually write checkpoints should fail loudly, not complete
// unprotected.
type SnapshotFunc func(*HoskingState) error

// HoskingCheckpointed generates like HoskingCtx but from a marshalable
// random source, so an interrupted run can be checkpointed and resumed.
// When resume is nil a fresh generation starts from src's current state;
// otherwise src is restored from the snapshot and the recursion
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
	return hoskingRun(ctx, n, h, rand.New(src), src, resume, every, save)
}

// progressEvery is the outer-iteration stride at which the Hosking
// recursion reports progress and flushes its point counter.
const progressEvery = 4096

// hoskingRun is the loop behind Hosking, HoskingCtx and
// HoskingCheckpointed: it advances a cold HoskingStream from mark to
// mark — progress flushes every progressEvery points and, when save is
// set and every is positive, snapshots every `every` points — so the
// per-point loop carries no side work. src may be nil (no
// checkpointing); resume may be nil (fresh start, requires src to be at
// its initial position for reproducibility across save/restore cycles).
func hoskingRun(ctx context.Context, n int, h float64, rng *rand.Rand, src MarshalableSource, resume *HoskingState, every int, save SnapshotFunc) ([]float64, *HoskingState, error) {
	s, err := NewHoskingStream(n, h, rng)
	if err != nil {
		return nil, nil, err
	}
	scope := obs.From(ctx)
	defer scope.Span("fgn.hosking")()
	if resume != nil {
		if err := validateState(resume, n, h, src); err != nil {
			return nil, nil, err
		}
		copy(s.x, resume.X)
		copy(s.lev.phi, resume.PhiPrev)
		s.lev.v, s.lev.nPrev, s.lev.dPrev = resume.V, resume.NPrev, resume.DPrev
		s.k = resume.K
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
		err := s.advance(ctx, min(nextProg, nextSnap, n))
		k := s.k
		if err != nil {
			scope.Count("fgn.hosking.points", int64(k-flushed))
			var st *HoskingState
			if src != nil {
				st = s.snapshot(src)
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
			st := s.snapshot(src)
			scope.Count("checkpoint.snapshots", 1)
			if err := save(st); err != nil {
				return nil, st, fmt.Errorf("fgn: saving periodic snapshot at point %d of %d: %w", k, n, err)
			}
			nextSnap += every
		}
	}
	scope.Count("fgn.hosking.points", int64(n-flushed))
	scope.Progress("fgn.hosking", int64(n), int64(n))
	return s.x, nil, nil
}

// snapshot copies the live recursion state at Pos() into an owned
// snapshot.
func (s *HoskingStream) snapshot(src MarshalableSource) *HoskingState {
	k := s.k
	st := &HoskingState{
		N: s.n, H: s.h, K: k,
		V: s.lev.v, NPrev: s.lev.nPrev, DPrev: s.lev.dPrev,
		X:       append([]float64(nil), s.x[:k]...),
		PhiPrev: append([]float64(nil), s.lev.phi[:k]...),
	}
	if b, err := src.MarshalBinary(); err == nil {
		st.RNG = b
	}
	return st
}

// validateState checks a resume snapshot against the requested run and
// restores the random source from it. Besides the shapes, it rejects
// values no recursion produces — non-finite numbers anywhere, v outside
// [0, 1] (the recursion clamps it there), a non-positive D — which would
// otherwise resume into NaNs or a silently wrong series.
func validateState(st *HoskingState, n int, h float64, src MarshalableSource) error {
	//vbrlint:ignore floateq resuming a checkpoint requires bitwise-identical H, not approximate equality
	if st.N != n || st.H != h {
		return fmt.Errorf("fgn: snapshot is for n=%d H=%v, run wants n=%d H=%v: %w",
			st.N, st.H, n, h, errs.ErrCheckpointMismatch)
	}
	if st.K < 1 || st.K > n || len(st.X) != st.K || len(st.PhiPrev) != st.K {
		return fmt.Errorf("fgn: snapshot state inconsistent (K=%d, |X|=%d, |φ|=%d): %w",
			st.K, len(st.X), len(st.PhiPrev), errs.ErrCheckpointCorrupt)
	}
	if !finite(st.V, st.NPrev, st.DPrev) || !finite(st.X...) || !finite(st.PhiPrev...) ||
		st.V < 0 || st.V > 1 || st.DPrev <= 0 {
		return fmt.Errorf("fgn: snapshot state out of range (v=%v, N=%v, D=%v, or a non-finite X or φ): %w",
			st.V, st.NPrev, st.DPrev, errs.ErrCheckpointCorrupt)
	}
	if len(st.RNG) == 0 {
		return fmt.Errorf("fgn: snapshot carries no random-source state: %w", errs.ErrCheckpointCorrupt)
	}
	if err := src.UnmarshalBinary(st.RNG); err != nil {
		return fmt.Errorf("fgn: restoring random source: %w: %w", errs.ErrCheckpointCorrupt, err)
	}
	return nil
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

// DaviesHarte generates n points of zero-mean, unit-variance fractional
// Gaussian noise with Hurst parameter H by circulant embedding: the
// autocovariance sequence is embedded in a circulant matrix of size 2n
// whose eigenvalues (the FFT of the first row) are provably non-negative
// for FGN, giving an exact O(n log n) sampler.
func DaviesHarte(n int, h float64, rng *rand.Rand) ([]float64, error) {
	return DaviesHarteCtx(context.Background(), n, h, rng)
}

// DaviesHarteCtx is DaviesHarte with cooperative cancellation, checked
// between the pipeline stages (ACF build, eigenvalue FFT, spectrum
// randomization, synthesis FFT). It is the composition of the two
// halves below: the seed-independent eigenvalue setup (cacheable across
// requests, keyed by (H, n)) and the seed-dependent synthesis.
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
}

// Lambda returns the 2n circulant eigenvalues (empty for n == 1). The
// slice is shared and read-only.
func (e *DaviesHarteEigen) Lambda() []float64 { return e.lambda }

// WorkLen is the length of the spectrum buffer DrawCtx needs: 2n, or 0
// for n == 1.
func (e *DaviesHarteEigen) WorkLen() int { return len(e.lambda) }

// Bytes is the resident size of the eigenvalues and the plan.
func (e *DaviesHarteEigen) Bytes() int64 {
	b := 8 * int64(len(e.lambda))
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
		return &DaviesHarteEigen{n: 1, lambda: []float64{}}, nil
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
	obs.From(ctx).Count("fgn.daviesharte.eigen", 1)
	return &DaviesHarteEigen{n: n, lambda: lambda, plan: plan}, nil
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
// and uses work (WorkLen entries) as the spectrum buffer.
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
