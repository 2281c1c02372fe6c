// Package vbr is a Go implementation of the VBR video traffic analysis,
// modeling and generation system of Garrett & Willinger, "Analysis,
// Modeling and Generation of Self-Similar VBR Video Traffic"
// (SIGCOMM 1994).
//
// The package is a facade over the internal subsystems:
//
//   - Trace representation and the intraframe DCT/RLE/Huffman coder that
//     produces bandwidth traces from (synthetic) video (§2 of the paper).
//   - The statistical toolkit: marginal distribution fitting with the
//     hybrid Gamma/Pareto model, autocorrelation, periodogram, and four
//     Hurst-parameter estimators (§3).
//   - The four-parameter (μ_Γ, σ_Γ, m_T, H) source model: exact Hosking
//     fractional ARIMA(0, d, 0) generation with the Eq. 13 marginal
//     transform, plus the Fig. 16 ablation variants (§4).
//   - The trace-driven FIFO queueing simulator with multiplexing,
//     capacity search, Q–C tradeoff curves and statistical multiplexing
//     gain analysis (§5).
//   - A cross-request generation cache (GenPool) and a parallel batch
//     engine (Model.GenerateBatch) that amortize the seed-independent
//     precomputations — Hosking coefficients, Davies–Harte
//     eigenvalues, Eq. 13 mapping tables — across requests without
//     changing a single output bit.
//
// # Context-first convention
//
// Every operation that can run long has exactly one entry point, and it
// takes a context as its first argument (GenerateMovie, FitCtx,
// Model.GenerateCtx, OpenStreamCtx, QCCurveCtx, ...): cancellation and
// deadlines propagate into the generators and simulation sweeps,
// and the context's obs scope collects metrics. There are no
// context-free spellings, so a caller holding a context cannot drop it
// by accident; a program makes its root context once, in main. Names
// that once had a context-free twin keep their Ctx suffix.
//
// Quick start:
//
//	ctx := context.Background() // in main; elsewhere, pass the caller's
//	tr, err := vbr.GenerateMovie(ctx, vbr.DefaultMovieConfig()) // empirical substitute
//	model, err := vbr.FitCtx(ctx, tr.Frames, vbr.DefaultFitOptions())
//	frames, err := model.GenerateCtx(ctx, 171000, vbr.DefaultGenOptions())
//
// To generate many traces, or many requests with shared parameters,
// attach a pool and let the precomputations be paid once:
//
//	pool := vbr.NewGenPool(0) // default 256 MiB budget
//	opts := vbr.DefaultGenOptions()
//	opts.Pool = pool
//	traces, err := model.GenerateBatch(ctx, 16, 171000, opts)
package vbr

import (
	"context"
	"io"

	"vbr/internal/arma"
	"vbr/internal/backend"
	"vbr/internal/core"
	"vbr/internal/dist"
	"vbr/internal/errs"
	"vbr/internal/genpool"
	"vbr/internal/lrd"
	"vbr/internal/queue"
	"vbr/internal/scenes"
	"vbr/internal/source"
	"vbr/internal/stats"
	"vbr/internal/stream"
	"vbr/internal/synth"
	"vbr/internal/trace"
)

// Trace is a VBR video bandwidth trace (bytes per frame, optionally bytes
// per slice).
type Trace = trace.Trace

// ReadTraceBinary reads a trace in the package's binary format.
func ReadTraceBinary(r io.Reader) (*Trace, error) { return trace.ReadBinary(r) }

// ReadTraceCSV reads a "frame,bytes" CSV trace.
func ReadTraceCSV(r io.Reader, frameRate float64) (*Trace, error) {
	return trace.ReadCSV(r, frameRate)
}

// MovieConfig parameterizes the synthetic scene-structured movie used as
// the empirical substitute for the paper's Star Wars trace.
type MovieConfig = synth.Config

// MovieEffect is a deterministic special-effects burst in the synthetic
// movie (e.g. the "jump to hyperspace" peak of Fig. 1).
type MovieEffect = synth.Effect

// DefaultMovieConfig is calibrated to Tables 1–2 of the paper.
func DefaultMovieConfig() MovieConfig { return synth.DefaultConfig() }

// GenerateMovie synthesizes the empirical-substitute VBR trace; the
// context reaches the activity backbone's Gaussian generator.
func GenerateMovie(ctx context.Context, cfg MovieConfig) (*Trace, error) {
	return synth.Generate(ctx, cfg)
}

// Model is the paper's four-parameter VBR video source model
// (μ_Γ, σ_Γ, m_T, H).
type Model = core.Model

// FitOptions controls model estimation from a trace.
type FitOptions = core.FitOptions

// DefaultFitOptions mirrors the paper's estimation procedure.
func DefaultFitOptions() FitOptions { return core.DefaultFitOptions() }

// FitCtx estimates the four model parameters from a frame-size series:
// μ_Γ and σ_Γ by sample moments, m_T by regression on the log-log CCDF
// tail, H by the aggregated Whittle estimator (§3.2.3). Cancellation is
// checked between estimation stages.
func FitCtx(ctx context.Context, frames []float64, opts FitOptions) (Model, error) {
	return core.FitCtx(ctx, frames, opts)
}

// GenOptions controls synthetic traffic generation, including the
// optional Pool that shares precomputations across calls.
type GenOptions = core.GenOptions

// Backend selects the Gaussian engine behind every generation path —
// batch, streaming and the synthetic movie backbone. Every engine
// draws the paper's fARIMA(0,d,0) process:
//
//   - BackendHosking: the paper's exact recursion, in its O(n log² n)
//     closed form; the reference engine.
//   - BackendDaviesHarte: exact circulant embedding, O(n log n).
//   - BackendPaxson: FFT spectral approximation (Paxson 1997) from the
//     fARIMA(0,d,0) density, O(n log n) with the smallest constants;
//     approximate but passes the committed fidelity battery.
//   - BackendAuto: policy choice — exact for short batch runs, Paxson
//     for long or streamed ones.
type Backend = backend.Backend

// Backend choices.
const (
	BackendHosking     = backend.Hosking
	BackendDaviesHarte = backend.DaviesHarte
	BackendPaxson      = backend.Paxson
	BackendAuto        = backend.Auto
)

// ParseBackend resolves a backend name ("hosking", "davies-harte",
// "paxson", "auto" and common aliases) to its Backend; unknown names
// return an error matching ErrUnknownBackend.
func ParseBackend(s string) (Backend, error) { return backend.Parse(s) }

// DefaultGenOptions mirrors the paper's generation procedure (Hosking,
// 10,000-point marginal table).
func DefaultGenOptions() GenOptions { return core.DefaultGenOptions() }

// GammaPareto is the paper's hybrid marginal distribution F_{Γ/P}.
type GammaPareto = dist.GammaPareto

// GammaParetoParams are the marginal's three parameters (μ_Γ, σ_Γ, m_T)
// with their names attached.
type GammaParetoParams = dist.GammaParetoParams

// NewGammaParetoFromParams constructs the hybrid marginal.
func NewGammaParetoFromParams(p GammaParetoParams) (*GammaPareto, error) {
	return dist.NewGammaParetoFromParams(p)
}

// Distribution is the common interface of all marginal models
// (Normal, Lognormal, Gamma, Pareto, Gamma/Pareto, ...).
type Distribution = dist.Distribution

// HurstEstimates bundles the Table 3 estimators' results, including the
// calibrated error bars of the five primary estimators.
type HurstEstimates = lrd.Estimates

// HurstBar is one estimator's calibrated report: the raw point
// estimate, the bias-corrected value, and the ±1.96σ half-width, both
// read off the committed calibration battery.
type HurstBar = lrd.HBar

// MAVARResult is the modified-Allan-variance estimate of H: the
// per-octave Mod σ²_y(τ) plot points, the fitted range and the slope-
// derived Ĥ.
type MAVARResult = lrd.MAVARResult

// OnlineMAVAR is the streaming form of the MAVAR estimator: feed
// observations one at a time or in blocks of any size, in O(1) memory,
// and read Ĥ at any point. Any partition gives the same bits, and
// feeding a whole series through it is exactly EstimateMAVAR.
type OnlineMAVAR = lrd.OnlineMAVAR

// EstimateHurst runs every §3.2.3 estimator on a series; aggM is the
// aggregation level for the aggregated variants (hundreds, as in the
// paper).
func EstimateHurst(xs []float64, aggM int) (*HurstEstimates, error) {
	return lrd.EstimateAll(xs, aggM)
}

// EstimateMAVAR estimates H from the modified Allan variance of the
// series (a post-paper estimator: octave-spaced log–log regression of
// Mod σ²_y(τ), H = 1 + µ/2). Zero fitLo/fitHi select the calibrated
// default fit range.
func EstimateMAVAR(xs []float64, fitLo, fitHi int) (*MAVARResult, error) {
	return lrd.MAVAR(xs, fitLo, fitHi)
}

// NewOnlineMAVAR builds a streaming MAVAR estimator tracking octaves
// up to maxTau observations.
func NewOnlineMAVAR(maxTau int) *OnlineMAVAR { return lrd.NewOnlineMAVAR(maxTau) }

// MaxMavarTau returns the largest octave-spaced observation interval
// worth tracking for a series of n frames — the natural maxTau argument
// for NewOnlineMAVAR when the stream length is known in advance.
func MaxMavarTau(n int) int { return lrd.MaxMavarTau(n) }

// SummaryStats are the Table 2 descriptive statistics.
type SummaryStats = stats.Summary

// Summarize computes Table 2 statistics for a series.
func Summarize(xs []float64) (SummaryStats, error) { return stats.Summarize(xs) }

// Workload is an arrival process for the queueing simulator.
type Workload = queue.Workload

// SimOptions controls queue simulation instrumentation.
type SimOptions = queue.Options

// SimResult summarizes a queue simulation run.
type SimResult = queue.Result

// Simulate runs the fluid FIFO queue of Fig. 13: capacity in bits/s,
// buffer in bytes.
func Simulate(w Workload, capacityBps, bufferBytes float64, opts SimOptions) (*SimResult, error) {
	return queue.Simulate(w, capacityBps, bufferBytes, opts)
}

// Mux multiplexes N randomly lagged copies of a trace (§5.1).
type Mux = queue.Mux

// MuxConfig parameterizes a multiplexer: the shared trace, the number
// of lagged copies, the paper's minimum pairwise lag and the seed for
// lag-combination draws.
type MuxConfig = queue.MuxConfig

// NewMuxFromConfig constructs a multiplexer with the paper's
// minimum-lag rule.
func NewMuxFromConfig(cfg MuxConfig) (*Mux, error) {
	return queue.NewMuxFromConfig(cfg)
}

// Aggregator is the multiplexer contract the capacity search and Q–C
// sweeps consume; Mux and SourceMux both implement it.
type Aggregator = queue.Aggregator

// SourceMux multiplexes a heterogeneous scenario-zoo population
// (independently seeded model replications instead of lagged trace
// copies) behind the same Aggregator contract as Mux.
type SourceMux = queue.SourceMux

// SourceMuxConfig parameterizes a scenario-zoo multiplexer.
type SourceMuxConfig = queue.SourceMuxConfig

// NewSourceMuxFromConfig validates and constructs a zoo multiplexer.
func NewSourceMuxFromConfig(cfg SourceMuxConfig) (*SourceMux, error) {
	return queue.NewSourceMuxFromConfig(cfg)
}

// LossTarget is a QOS target for capacity searches.
type LossTarget = queue.LossTarget

// QCPoint is one point of a Fig. 14 Q–C tradeoff curve.
type QCPoint = queue.QCPoint

// QCCurveConfig parameterizes a Q–C sweep: a multiplexer, a loss target
// and a T_max grid, each point sized by the zero-loss dual (Pl = 0) or
// a bisection under it (Pl > 0).
type QCCurveConfig = queue.QCCurveConfig

// QCCurveCtx computes a Fig. 14 curve under a context: cancellation
// returns the completed points alongside an error matching ErrCancelled,
// and cfg.Resume skips grid points carried over from a previous partial
// run.
func QCCurveCtx(ctx context.Context, cfg QCCurveConfig) ([]QCPoint, error) {
	return queue.QCCurveCtx(ctx, cfg)
}

// MinCapacityFnCtx bisects for the minimum capacity meeting a loss
// target, given any monotone loss(capacity) function — the primitive
// under the Pl > 0 points of QCCurveCtx and SMGCtx (their Pl = 0 points
// come from the exact zero-loss dual), exported for custom allocation
// studies. The context is checked between bisection iterations.
func MinCapacityFnCtx(ctx context.Context, loss func(capacityBps float64) (float64, error), loBps, hiBps float64, target LossTarget) (float64, error) {
	return queue.MinCapacityCtx(ctx, loss, loBps, hiBps, target)
}

// Knee locates a Q–C curve's knee, the paper's natural operating point.
func Knee(points []QCPoint) (QCPoint, error) { return queue.Knee(points) }

// SMGPoint and SMGConfig support the Fig. 15 statistical multiplexing
// gain analysis.
type (
	SMGPoint  = queue.SMGPoint
	SMGConfig = queue.SMGConfig
)

// SMGCtx computes required per-source allocation against N (Fig. 15)
// under a context.
func SMGCtx(ctx context.Context, cfg SMGConfig) ([]SMGPoint, error) {
	return queue.SMGCtx(ctx, cfg)
}

// RealizedGain is the fraction of peak-to-mean gain achieved (72% at
// N = 5 in the paper).
func RealizedGain(perSourceBps, peakBps, meanBps float64) (float64, error) {
	return queue.RealizedGain(perSourceBps, peakBps, meanBps)
}

// ------------------------------------------------------------------
// Extensions beyond the paper's evaluation (its stated future work).

// ARMA is a stationary ARMA(p, q) short-range filter; composing it with
// the model's LRD backbone yields fractional ARIMA(p, d, q) traffic
// (Model.GenerateWithARMACtx) — the §4 "ARMA filter" augmentation.
type ARMA = arma.Model

// MarkovChain is a level-modulating Markov chain for scene-like
// short-range structure (Model.GenerateMarkovModulatedCtx).
type MarkovChain = arma.MarkovChain

// SceneChain builds a three-state quiet/normal/action chain with the
// given mean sojourn (in frames) and level spread.
func SceneChain(meanSojourn, spread float64) (*MarkovChain, error) {
	return arma.SceneChain(meanSojourn, spread)
}

// FitAR estimates AR(p) coefficients from data (Yule–Walker).
func FitAR(xs []float64, p int) (ARMA, float64, error) { return arma.FitAR(xs, p) }

// LayeredWorkload is a two-priority (base + enhancement) arrival
// process for the §5.3 layered-coding study.
type LayeredWorkload = queue.LayeredWorkload

// LayeredResult reports per-layer loss from the priority queue.
type LayeredResult = queue.LayeredResult

// SplitLayers divides a workload into base and enhancement layers.
func SplitLayers(w Workload, baseFrac float64) (LayeredWorkload, error) {
	return queue.SplitLayers(w, baseFrac)
}

// SimulatePriority runs the two-priority partial-buffer-sharing queue:
// enhancement traffic is admitted only below thresholdBytes of backlog.
func SimulatePriority(lw LayeredWorkload, capacityBps, bufferBytes, thresholdBytes float64) (*LayeredResult, error) {
	return queue.SimulatePriority(lw, capacityBps, bufferBytes, thresholdBytes)
}

// CBRRate returns the constant (circuit) rate needed to carry the
// workload within a smoothing-delay budget — the CBR side of the paper's
// CBR-vs-VBR motivation.
func CBRRate(w Workload, maxDelay float64) (float64, error) {
	return queue.CBRRate(w, maxDelay)
}

// ZeroLossCapacityExact computes the exact zero-loss capacity for a
// buffer, by the convex-hull max-burst dual of the fluid queue.
func ZeroLossCapacityExact(w Workload, bufferBytes float64) (float64, error) {
	return queue.ZeroLossCapacityExact(w, bufferBytes)
}

// MarginalAllocation prices bufferless (rate-envelope) admission from
// the N-fold convolution of the per-source marginal — the §4.2
// convolution table applied to connection admission control.
func MarginalAllocation(d Distribution, n int, intervalSec, eps float64, tablePts int) (float64, error) {
	return queue.MarginalAllocation(d, n, intervalSec, eps, tablePts)
}

// AdmissibleSources returns the largest N admissible at a capacity under
// the bufferless overflow budget eps.
func AdmissibleSources(d Distribution, capacityBps, intervalSec, eps float64, tablePts, maxN int) (int, error) {
	return queue.AdmissibleSources(d, capacityBps, intervalSec, eps, tablePts, maxN)
}

// SceneConfig parameterizes the scene-change detector (the §4.2 open
// question: measuring and representing scene structure).
type SceneConfig = scenes.Config

// DetectedScene is one detected scene segment with level statistics.
type DetectedScene = scenes.Scene

// DefaultSceneConfig returns detector defaults tuned on the synthetic
// movie's ground truth.
func DefaultSceneConfig() SceneConfig { return scenes.DefaultConfig() }

// DetectScenes segments a frame-size series into scenes.
func DetectScenes(frames []float64, cfg SceneConfig) ([]DetectedScene, error) {
	return scenes.Detect(frames, cfg)
}

// SceneCuts returns detected scene-change positions.
func SceneCuts(frames []float64, cfg SceneConfig) ([]int, error) {
	return scenes.Cuts(frames, cfg)
}

// ------------------------------------------------------------------
// Resilient execution: error taxonomy, cancellation, fault injection.
//
// Long-running entry points, on this package and on the aliased types
// (Model.GenerateCtx, Mux.AverageLossCtx, QCCurveCtx above), take the
// caller's context and stop promptly when it is cancelled, returning an
// error matching ErrCancelled. Failures across the package wrap the
// sentinel errors re-exported here, so callers classify them with
// errors.Is rather than string matching.
// The panic-isolating parallel runner (internal/runner) is generic and
// cannot be re-exported as a type alias under this module's Go version;
// its behavior surfaces through SimResult-style combo error reporting
// on Mux.AverageLossCtx.

// Sentinel errors, matchable with errors.Is. Cancellation errors also
// match context.Canceled / context.DeadlineExceeded.
var (
	ErrCancelled          = errs.ErrCancelled
	ErrInvalidTrace       = errs.ErrInvalidTrace
	ErrInvalidModel       = errs.ErrInvalidModel
	ErrInvalidWorkload    = errs.ErrInvalidWorkload
	ErrInfeasibleLags     = errs.ErrInfeasibleLags
	ErrCheckpointVersion  = errs.ErrCheckpointVersion
	ErrCheckpointCorrupt  = errs.ErrCheckpointCorrupt
	ErrCheckpointMismatch = errs.ErrCheckpointMismatch
	ErrTargetUnreachable  = errs.ErrTargetUnreachable
	ErrAllCombosFailed    = errs.ErrAllCombosFailed
	ErrInvalidSeries      = errs.ErrInvalidSeries
	ErrUnknownModel       = errs.ErrUnknownModel
	ErrUnknownBackend     = errs.ErrUnknownBackend
)

// FaultEpisode is one capacity-degradation or outage episode of a
// deterministic server fault schedule.
type FaultEpisode = queue.FaultEpisode

// FaultSchedule is a reproducible schedule of server faults applied to
// the FIFO server during simulation (SimOptions.Faults).
type FaultSchedule = queue.FaultSchedule

// FaultConfig parameterizes random fault schedule generation.
type FaultConfig = queue.FaultConfig

// GenerateFaults draws a deterministic fault schedule over n arrival
// intervals: identical seeds and configs yield identical schedules.
func GenerateFaults(seed uint64, n int, cfg FaultConfig) (*FaultSchedule, error) {
	return queue.GenerateFaults(seed, n, cfg)
}

// StreamConfig parameterizes incremental block-based trace generation:
// the model, total length, seed and backend, of which the frames are a
// function, and an optional generation cache. The chunk geometry, the
// block and the Eq. 13 table are fixed by the stream, not set here.
type StreamConfig = stream.Config

// BlockSource produces consecutive frame-size blocks under bounded
// memory; the returned slice is valid only until the next call.
type BlockSource = stream.BlockSource

// Stream is a BlockSource over the full §4 pipeline (LRD Gaussian →
// Eq. 13 marginal), validated online by a running mean/σ and a
// streaming variance–time Ĥ probe.
type Stream = stream.Stream

// StreamProbe is the online-validation snapshot of a Stream.
type StreamProbe = stream.Probe

// OpenStreamCtx builds a Stream for cfg. The context bounds the setup
// work — for a Hosking stream that includes extending the (shared, when
// pooled) coefficients — and its obs scope receives cache counters.
func OpenStreamCtx(ctx context.Context, cfg StreamConfig) (*Stream, error) {
	return stream.OpenCtx(ctx, cfg)
}

// CollectStream drains a BlockSource into one materialized series, for
// consumers that need the whole trace at once.
func CollectStream(ctx context.Context, src BlockSource) ([]float64, error) {
	return stream.Collect(ctx, src)
}

// ------------------------------------------------------------------
// Scenario zoo: pluggable per-frame traffic sources.

// Source is the scenario-zoo contract: a deterministic per-frame byte
// supplier with Reset(seed), Next(ctx) and self-describing Meta.
type Source = source.Source

// SourceMeta describes a source: model name, mean/peak rates, frame
// rate and frame-type tags.
type SourceMeta = source.Meta

// SourceParams are a model's named numeric parameters.
type SourceParams = source.Params

// SourceSpec is one parsed term of a mix specification.
type SourceSpec = source.Spec

// MixSource sums the per-frame bytes of member sources sharing a
// frame rate.
type MixSource = source.Mix

// SourceModels lists the registered zoo models, sorted.
func SourceModels() []string { return source.Names() }

// NewSource builds a source from a spec like "gop:cv=0.3" or a mix
// spec like "farima*3+onoff*2". Unknown models return an error
// matching ErrUnknownModel.
func NewSource(spec string, seed uint64) (Source, error) { return source.New(spec, seed) }

// NewSourcePopulation expands a mix spec (honoring "+" terms and
// *count multipliers) into independently seeded sources — the natural
// input for SourceMuxConfig.Sources.
func NewSourcePopulation(spec string, seed uint64) ([]Source, error) {
	specs, err := source.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return source.NewPopulation(specs, seed)
}

// SourceBlockAdapter drives any zoo Source as a BlockSource with an
// online Hurst/mean probe attached.
type SourceBlockAdapter = source.BlockAdapter

// SourceBlocks adapts src to a BlockSource of n frames, served in
// blocks of at most 4,096 frames, the buffer a Stream uses.
func SourceBlocks(src Source, n int) (*SourceBlockAdapter, error) {
	return source.Blocks(src, n)
}

// SourceSubSeed derives the seed of population member i from a base
// seed, the same splitmix64 schedule used by batch generation.
func SourceSubSeed(base uint64, i int) uint64 { return source.SubSeed(base, i) }

// ------------------------------------------------------------------
// Cross-request generation cache and parallel batch engine.

// GenPool is a concurrency-safe, byte-bounded cache for the generator's
// seed-independent precomputations: Hosking coefficients (keyed by H,
// with prefix reuse across lengths), Davies–Harte
// eigenvalues and Paxson spectra with the FFT plans of their synthesis
// (keyed by H and synthesis length) and Eq. 13 marginal mapping tables
// (keyed by the marginal parameters and resolution).
// Attach one to GenOptions.Pool or StreamConfig.Pool; generated output
// is bitwise-identical with or without a pool.
type GenPool = genpool.Pool

// GenPoolStats is a point-in-time view of a pool's traffic and
// residency.
type GenPoolStats = genpool.Stats

// DefaultGenPoolBytes is the default pool budget (256 MiB).
const DefaultGenPoolBytes = genpool.DefaultMaxBytes

// NewGenPool builds a generation cache bounded to maxBytes of resident
// precomputation; maxBytes ≤ 0 selects DefaultGenPoolBytes.
func NewGenPool(maxBytes int64) *GenPool { return genpool.New(maxBytes) }

// BatchSeed derives the seed of trace i in a Model.GenerateBatch run
// from the batch seed, so any single batch member can be regenerated
// solo with GenerateCtx.
func BatchSeed(base uint64, i int) uint64 { return core.BatchSeed(base, i) }
