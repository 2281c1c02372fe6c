// Package core implements the paper's VBR video source model (§4): a
// four-parameter (μ_Γ, σ_Γ, m_T, H) non-Markovian traffic model combining
// a fractional ARIMA(0, d, 0) long-range dependent Gaussian process
// (generated exactly by Hosking's algorithm, Eqs. 6–12) with a hybrid
// Gamma/Pareto marginal distribution applied through the transform
//
//	Y_k = F⁻¹_{Γ/P}(F_N(X_k))                      (Eq. 13)
//
// It also provides the two ablated model variants simulated in Fig. 16:
// the fractional ARIMA model with plain Gaussian marginals, and an
// i.i.d. process with Gamma/Pareto marginals. Either captures only one of
// the two phenomena (LRD, heavy tails) that the full model combines.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"vbr/internal/backend"
	"vbr/internal/dist"
	"vbr/internal/errs"
	"vbr/internal/fgn"
	"vbr/internal/genpool"
	"vbr/internal/lrd"
	"vbr/internal/trace"
)

// Model is the paper's four-parameter VBR video source model.
type Model struct {
	MuGamma    float64 // μ_Γ: equivalent Gamma-body mean (bytes per frame)
	SigmaGamma float64 // σ_Γ: equivalent Gamma-body standard deviation
	TailSlope  float64 // m_T: Pareto tail index (log-log CCDF slope)
	Hurst      float64 // H: long-range dependence parameter
}

// Validate checks the parameter ranges. Failures match
// errs.ErrInvalidModel.
func (m Model) Validate() error {
	switch {
	case !(m.MuGamma > 0):
		return fmt.Errorf("core: μ_Γ must be positive, got %v: %w", m.MuGamma, errs.ErrInvalidModel)
	case !(m.SigmaGamma > 0):
		return fmt.Errorf("core: σ_Γ must be positive, got %v: %w", m.SigmaGamma, errs.ErrInvalidModel)
	case !(m.TailSlope > 0):
		return fmt.Errorf("core: m_T must be positive, got %v: %w", m.TailSlope, errs.ErrInvalidModel)
	case !(m.Hurst > 0 && m.Hurst < 1):
		return fmt.Errorf("core: H must be in (0,1), got %v: %w", m.Hurst, errs.ErrInvalidModel)
	}
	return nil
}

// Marginal returns the model's hybrid Gamma/Pareto marginal distribution.
func (m Model) Marginal() (*dist.GammaPareto, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return dist.NewGammaParetoFromParams(dist.GammaParetoParams{MuGamma: m.MuGamma, SigmaGamma: m.SigmaGamma, TailSlope: m.TailSlope})
}

// FitOptions controls parameter estimation from an empirical trace.
type FitOptions struct {
	// TailFrac is the upper fraction of the sample used for the Pareto
	// tail regression (the paper's trace has ≈3% of mass in the tail).
	TailFrac float64
	// AggM, when positive, fixes the aggregation level of the Whittle H
	// estimate (the paper reads Ĥ at m ≈ 700 for its 171,000-frame
	// trace). When zero, the estimate is read automatically where the
	// Ĥ(m) aggregation ladder stabilizes — the programmatic version of
	// the paper's procedure.
	AggM int
}

// DefaultFitOptions mirrors the paper's estimation choices with the
// automatic ladder stabilization.
func DefaultFitOptions() FitOptions {
	return FitOptions{TailFrac: 0.03, AggM: 0}
}

// FitCtx estimates all four model parameters from a frame-size series:
// μ_Γ and σ_Γ as the sample moments (sufficient when the tail holds only
// a few percent of the data, §4.2), m_T by least-squares regression on
// the empirical log-log CCDF tail (the Fig. 4 straight line), and H by
// the aggregated Whittle estimator of §3.2.3. Cancellation is checked
// between the estimation stages (the Whittle minimization dominates at
// paper scale).
func FitCtx(ctx context.Context, frames []float64, opts FitOptions) (Model, error) {
	if len(frames) < 1000 {
		return Model{}, fmt.Errorf("core: need ≥ 1000 frames to fit, got %d", len(frames))
	}
	if !(opts.TailFrac > 0 && opts.TailFrac < 1) {
		return Model{}, fmt.Errorf("core: tail fraction must be in (0,1), got %v", opts.TailFrac)
	}
	if opts.AggM < 0 {
		return Model{}, fmt.Errorf("core: aggregation level must be ≥ 0, got %d", opts.AggM)
	}
	mean, sd, err := dist.SampleMoments(frames)
	if err != nil {
		return Model{}, err
	}
	a, _, err := dist.FitParetoTail(frames, opts.TailFrac)
	if err != nil {
		return Model{}, fmt.Errorf("core: tail fit: %w", err)
	}
	if ctx.Err() != nil {
		return Model{}, errs.Cancelled(ctx)
	}

	positive := true
	for _, v := range frames {
		if v <= 0 {
			positive = false
			break
		}
	}
	var wh *lrd.WhittleResult
	if opts.AggM > 0 {
		wh, err = lrd.WhittleAggregated(frames, opts.AggM, positive)
	} else {
		wh, err = lrd.WhittleStabilized(frames, positive)
	}
	if err != nil {
		return Model{}, fmt.Errorf("core: Whittle fit: %w", err)
	}
	if ctx.Err() != nil {
		return Model{}, errs.Cancelled(ctx)
	}
	h := wh.H
	if h >= 0.98 {
		// The feasible aggregation ladder never crossed the trace's
		// short-range correlation scale (scene length), so Whittle
		// saturated at the stationarity boundary. Fall back to the
		// variance–time estimator fitted beyond that scale — the same
		// remedy §3.2.3 applies by measuring from ≈200 frames upward.
		vt, vtErr := lrd.VarianceTime(frames, 1, 200, 0)
		if vtErr != nil {
			return Model{}, fmt.Errorf("core: variance-time fallback: %w", vtErr)
		}
		h = vt.H
	}
	// Clamp into the stationary LRD range.
	if h <= 0.5 {
		h = 0.5 + 1e-6
	}
	if h >= 0.999 {
		h = 0.999
	}

	m := Model{MuGamma: mean, SigmaGamma: sd, TailSlope: a, Hurst: h}
	return m, m.Validate()
}

// GenOptions controls synthetic traffic generation.
type GenOptions struct {
	// Backend selects the Gaussian LRD engine (the zero value is the
	// paper's exact Hosking recursion).
	Backend backend.Backend
	// TableSize is the number of points of the Gaussian→Gamma/Pareto
	// mapping table (the paper uses 10,000), whose nodes are evenly
	// spaced on the Gaussian axis (dist.NormalTable).
	TableSize int
	// Standardize renormalizes the Gaussian realization to exactly zero
	// mean and unit variance before the marginal transform, compensating
	// the slow LRD sampling convergence discussed in §4.2.
	Standardize bool
	Seed        uint64
	// Pool, when non-nil, serves the seed-independent precomputations —
	// Hosking coefficients, Davies–Harte eigenvalues and Paxson
	// spectra with their FFT plans, and Eq. 13 mapping tables — from a
	// shared cross-request cache instead of recomputing them per call.
	// The generated output is bitwise identical either way (the cached
	// quantities do not depend on the seed); nil computes them cold for
	// each call.
	Pool *genpool.Pool
}

// DefaultGenOptions mirrors the paper's generation procedure.
func DefaultGenOptions() GenOptions {
	return GenOptions{Backend: backend.Hosking, TableSize: 10000, Standardize: true, Seed: 1}
}

// GenerateCtx produces n frames of synthetic VBR video traffic from the
// full model: LRD Gaussian noise mapped through Eq. 13. The Hosking
// generator checks the context once per point and returns an error
// matching errs.ErrCancelled promptly when it fires.
func (m Model) GenerateCtx(ctx context.Context, n int, opts GenOptions) ([]float64, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	x, err := m.gaussianCtx(ctx, n, opts)
	if err != nil {
		return nil, err
	}
	return m.transformCtx(ctx, x, opts)
}

// GenerateGaussianCtx produces the Fig. 16 ablation with LRD but
// Gaussian marginals N(μ, σ²) where μ, σ are the *overall* mean and
// standard deviation of the full model's marginal, so the two variants
// carry the same load. Negative values (possible for a Gaussian) are
// clamped to zero, as a bandwidth process requires.
func (m Model) GenerateGaussianCtx(ctx context.Context, n int, opts GenOptions) ([]float64, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	x, err := m.gaussianCtx(ctx, n, opts)
	if err != nil {
		return nil, err
	}
	mu, sd, err := m.effectiveMoments()
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i, v := range x {
		y := mu + sd*v
		if y < 0 {
			y = 0
		}
		out[i] = y
	}
	return out, nil
}

// GenerateIIDCtx produces the Fig. 16 ablation with the right
// heavy-tailed marginal but no time correlation at all. Cancellation is
// checked every few thousand draws.
func (m Model) GenerateIIDCtx(ctx context.Context, n int, opts GenOptions) ([]float64, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	gp, err := m.Marginal()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(opts.Seed, 0x11d))
	out := make([]float64, n)
	for i := range out {
		if i%4096 == 0 && ctx.Err() != nil {
			return nil, errs.Cancelled(ctx)
		}
		out[i] = gp.Sample(rng)
	}
	return out, nil
}

// gaussianCtx runs the selected LRD engine under a context and
// optionally standardizes. The seed-independent half of the chosen
// engine (coefficients, or eigenvalues or spectrum with its FFT plan)
// comes from opts.Pool, from cache when the pool is set and computed
// cold when it is nil; the seeded half draws from rng in the same order
// either way, keeping the output bitwise identical.
func (m Model) gaussianCtx(ctx context.Context, n int, opts GenOptions) ([]float64, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: length must be ≥ 1, got %d", n)
	}
	rng := rand.New(rand.NewPCG(opts.Seed, 0x6a55))
	var x []float64
	var err error
	// Auto resolves per request: exact Hosking below the cutoff, Paxson
	// above it. A resolved concrete backend passes through unchanged.
	// A nil pool computes cold, so one call per engine covers both modes.
	switch opts.Backend.Resolve(n, false) {
	case backend.Hosking:
		var c *fgn.HoskingCoeffs
		if c, err = opts.Pool.HoskingCoeffs(ctx, m.Hurst, n); err == nil {
			x, err = fgn.HoskingFromCoeffs(ctx, n, c, rng)
		}
	case backend.DaviesHarte:
		var eig *fgn.Pair
		if eig, err = opts.Pool.DaviesHarteEigen(ctx, m.Hurst, n); err == nil {
			x, err = fgn.DaviesHarteFromEigenCtx(ctx, n, eig, rng)
		}
	case backend.Paxson:
		var p *fgn.Pair
		if p, err = opts.Pool.PaxsonSpectrum(ctx, m.Hurst, n); err == nil {
			x, err = fgn.PaxsonFromSpectrumCtx(ctx, n, p, rng)
		}
	default:
		return nil, fmt.Errorf("core: generator %d: %w", int(opts.Backend), errs.ErrUnknownBackend)
	}
	if err != nil {
		return nil, err
	}
	if opts.Standardize {
		fgn.Standardize(x)
	}
	return x, nil
}

// effectiveMoments returns the mean and standard deviation of the full
// model's marginal, falling back to (μ_Γ, σ_Γ) when the Pareto tail makes
// them divergent.
func (m Model) effectiveMoments() (mu, sd float64, err error) {
	gp, err := m.Marginal()
	if err != nil {
		return 0, 0, err
	}
	mu, v := gp.Mean(), gp.Variance()
	if math.IsInf(mu, 0) {
		mu = m.MuGamma
	}
	if math.IsInf(v, 0) {
		sd = m.SigmaGamma
	} else {
		sd = math.Sqrt(v)
	}
	return mu, sd, nil
}

// GenerateTraceCtx wraps GenerateCtx in a trace.Trace with slice-level
// data derived by even division plus jitter, ready for the §5
// simulations.
func (m Model) GenerateTraceCtx(ctx context.Context, n int, frameRate float64, slicesPerFrame int, sliceJitter float64, opts GenOptions) (*trace.Trace, error) {
	frames, err := m.GenerateCtx(ctx, n, opts)
	if err != nil {
		return nil, err
	}
	tr := &trace.Trace{Frames: frames, FrameRate: frameRate}
	if slicesPerFrame > 0 {
		rng := rand.New(rand.NewPCG(opts.Seed, 0x517ce))
		if err := tr.SlicesFromFrames(slicesPerFrame, sliceJitter, rng.Float64); err != nil {
			return nil, err
		}
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// VerifyRealization checks a generated series against the model the way
// §4.2 reports: the sample mean/σ against the marginal's, the fitted
// tail slope against m_T, and the variance-time H against the model's H.
// It returns a report rather than pass/fail so callers can print it.
type RealizationReport struct {
	Mean, WantMean float64
	Std, WantStd   float64
	TailSlope      float64
	H, WantH       float64
}

// VerifyRealization measures a generated series.
func (m Model) VerifyRealization(frames []float64) (*RealizationReport, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	mu, sd, err := m.effectiveMoments()
	if err != nil {
		return nil, err
	}
	gotMean, gotSd, err := dist.SampleMoments(frames)
	if err != nil {
		return nil, err
	}
	rep := &RealizationReport{
		Mean: gotMean, WantMean: mu,
		Std: gotSd, WantStd: sd,
		WantH: m.Hurst,
	}
	if a, _, err := dist.FitParetoTail(frames, 0.02); err == nil {
		rep.TailSlope = a
	}
	vt, err := lrd.VarianceTime(frames, 1, 0, 0)
	if err != nil {
		return nil, err
	}
	rep.H = vt.H
	return rep, nil
}
