package queue

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"sync"

	"vbr/internal/errs"
	"vbr/internal/obs"
	"vbr/internal/runner"
	"vbr/internal/source"
	"vbr/internal/trace"
)

// Mux builds aggregate workloads by multiplexing N lagged copies of a
// trace, following §5.1: each copy is offset by a random number of frames,
// wraps around at the end so all frames are used once per source, and the
// lags are pairwise at least MinLagFrames apart (the paper uses 1000
// frames because LRD makes cross-correlation significant even at long
// lags). For N > 2 the paper averages results over Combos random lag
// combinations; Lags generates them reproducibly from Seed.
type Mux struct {
	Trace        *trace.Trace
	N            int
	MinLagFrames int
	Seed         uint64

	// Lag combinations and their aggregate workloads are deterministic
	// given Seed, so they are computed once and reused across the many
	// simulations of a capacity search. The mutex makes the lazy build
	// safe under the parallel runner.
	mu          sync.Mutex
	cachedFrame []Workload
	cachedSlice []Workload
}

// MuxConfig parameterizes a multiplexer: the shared trace, the number
// of lagged copies, the paper's minimum pairwise lag (1000 frames in
// §5.1) and the seed driving lag-combination draws.
type MuxConfig struct {
	Trace        *trace.Trace
	N            int
	MinLagFrames int
	Seed         uint64
}

// NewMuxFromConfig validates and constructs a multiplexer.
func NewMuxFromConfig(cfg MuxConfig) (*Mux, error) {
	if cfg.Trace == nil {
		return nil, fmt.Errorf("queue: nil trace")
	}
	if err := cfg.Trace.Validate(); err != nil {
		return nil, err
	}
	if cfg.N < 1 {
		return nil, fmt.Errorf("queue: source count must be ≥ 1, got %d", cfg.N)
	}
	if cfg.MinLagFrames < 0 {
		return nil, fmt.Errorf("queue: min lag must be ≥ 0, got %d", cfg.MinLagFrames)
	}
	// N·MinLag == len(frames) is the exactly-feasible zero-slack
	// placement (equally spaced lags around the circle), which the
	// constructive Lags sampler supports; only N·MinLag > len is
	// infeasible.
	if cfg.N > 1 && cfg.MinLagFrames*cfg.N > len(cfg.Trace.Frames) {
		return nil, fmt.Errorf("queue: cannot place %d lags ≥ %d apart in %d frames: %w",
			cfg.N, cfg.MinLagFrames, len(cfg.Trace.Frames), errs.ErrInfeasibleLags)
	}
	return &Mux{Trace: cfg.Trace, N: cfg.N, MinLagFrames: cfg.MinLagFrames, Seed: cfg.Seed}, nil
}

// NSources implements Aggregator.
func (m *Mux) NSources() int { return m.N }

// Lags draws one admissible lag combination: N offsets whose pairwise
// circular distances are all at least MinLagFrames, with the first lag 0
// (a pure relabeling of time). The draw is constructive rather than
// rejective — N·MinLagFrames of mandatory spacing is laid down around the
// circle and the remaining slack is split by uniform order statistics —
// so it runs in O(N log N) even when the spacing constraint is tight.
func (m *Mux) Lags(rng *rand.Rand) []int {
	l := len(m.Trace.Frames)
	if m.N == 1 {
		return []int{0}
	}
	slack := l - m.N*m.MinLagFrames // ≥ 0, enforced by NewMux
	offsets := make([]float64, m.N)
	for i := range offsets {
		offsets[i] = rng.Float64() * float64(slack)
	}
	sort.Float64s(offsets)
	lags := make([]int, m.N)
	for i := range lags {
		lags[i] = (int(offsets[i]) + i*m.MinLagFrames) % l
	}
	// Rotate so the first source sits at lag 0; rotation preserves all
	// pairwise circular distances.
	first := lags[0]
	for i := range lags {
		lags[i] = (lags[i] - first + l) % l
	}
	return lags
}

// AggregateSources sums one interval series per source into an
// aggregate workload: the shared §5.1 aggregation step behind both the
// lagged-trace Mux and the scenario-zoo SourceMux. The sum runs
// source-major (all of source 0's intervals, then source 1's, …), which
// fixes the float addition order: two populations yielding the same
// per-source series produce the bitwise-same workload.
func AggregateSources(ctx context.Context, srcs []source.Source, intervals int, intervalSec float64) (Workload, error) {
	if len(srcs) == 0 {
		return Workload{}, fmt.Errorf("queue: no sources to aggregate")
	}
	if intervals < 1 {
		return Workload{}, fmt.Errorf("queue: aggregation needs ≥ 1 intervals, got %d", intervals)
	}
	agg := make([]float64, intervals)
	for _, src := range srcs {
		if ctx.Err() != nil {
			return Workload{}, errs.Cancelled(ctx)
		}
		for i := 0; i < intervals; i++ {
			v, err := src.Next(ctx)
			if err != nil {
				return Workload{}, fmt.Errorf("queue: aggregating %s at interval %d: %w", src.Meta().Name, i, err)
			}
			agg[i] += v
		}
	}
	return Workload{Bytes: agg, Interval: intervalSec}, nil
}

// lagged builds the Source population of one lag combination: a phased
// looping copy of vals per lag, the §5.1 construction.
func lagged(vals []float64, lags []int, scale int, perFrame float64) ([]source.Source, error) {
	srcs := make([]source.Source, len(lags))
	for i, lag := range lags {
		s, err := source.Loop(vals, lag*scale, perFrame*float64(scale))
		if err != nil {
			return nil, err
		}
		srcs[i] = s
	}
	return srcs, nil
}

// FrameWorkload sums the N lagged frame series into one aggregate
// workload at frame granularity.
func (m *Mux) FrameWorkload(ctx context.Context, lags []int) (Workload, error) {
	if len(lags) != m.N {
		return Workload{}, fmt.Errorf("queue: %d lags for %d sources", len(lags), m.N)
	}
	srcs, err := lagged(m.Trace.Frames, lags, 1, m.Trace.FrameRate)
	if err != nil {
		return Workload{}, err
	}
	return AggregateSources(ctx, srcs, len(m.Trace.Frames), 1/m.Trace.FrameRate)
}

// SliceWorkload sums the N lagged slice series into one aggregate
// workload at slice granularity (the resolution the paper's simulations
// use). The trace must carry slice data.
func (m *Mux) SliceWorkload(ctx context.Context, lags []int) (Workload, error) {
	if m.Trace.Slices == nil {
		return Workload{}, fmt.Errorf("queue: trace has no slice data")
	}
	if len(lags) != m.N {
		return Workload{}, fmt.Errorf("queue: %d lags for %d sources", len(lags), m.N)
	}
	spf := m.Trace.SlicesPerFrame
	srcs, err := lagged(m.Trace.Slices, lags, spf, m.Trace.FrameRate)
	if err != nil {
		return Workload{}, err
	}
	return AggregateSources(ctx, srcs, len(m.Trace.Slices), 1/(m.Trace.FrameRate*float64(spf)))
}

// Combos returns the number of lag combinations §5.1 prescribes: one for
// N ≤ 2 (the lag relabels time and, for N=2, only the relative lag
// matters over a full wrap), six otherwise.
func (m *Mux) Combos() int {
	if m.N <= 2 {
		return 1
	}
	return 6
}

// Workloads implements Aggregator: the aggregate workloads of the
// Combos lag combinations drawn deterministically from Seed, built and
// cached on first use. Safe for concurrent use; the cached workloads
// are read-only after the build.
func (m *Mux) Workloads(ctx context.Context, useSlices bool) ([]Workload, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if useSlices && m.cachedSlice != nil {
		return m.cachedSlice, nil
	}
	if !useSlices && m.cachedFrame != nil {
		return m.cachedFrame, nil
	}
	rng := rand.New(rand.NewPCG(m.Seed, 0x1a65))
	combos := m.Combos()
	ws := make([]Workload, 0, combos)
	for c := 0; c < combos; c++ {
		lags := m.Lags(rng)
		var w Workload
		var err error
		if useSlices {
			w, err = m.SliceWorkload(ctx, lags)
		} else {
			w, err = m.FrameWorkload(ctx, lags)
		}
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
	}
	if useSlices {
		m.cachedSlice = ws
	} else {
		m.cachedFrame = ws
	}
	return ws, nil
}

// comboFailHook, when non-nil, is invoked before each lag combination's
// simulation. Tests use it to inject per-combination failures and
// panics; it is never set in production code.
var comboFailHook func(combo int) error

// AverageLossCtx runs the fluid simulation over Combos lag combinations
// and returns the mean overall and worst-errored-second loss rates, plus
// the per-window loss series of the first combination when requested.
// The lag combinations run concurrently across worker goroutines, a
// combination that fails or panics is excluded, and the averages are
// taken over the survivors (per-combo failures are reported in
// Result.ComboErrors). It fails outright only when the context is
// cancelled or every combination failed.
func (m *Mux) AverageLossCtx(ctx context.Context, capacityBps, bufferBytes float64, useSlices bool, opts Options) (*Result, error) {
	ws, err := m.Workloads(ctx, useSlices)
	if err != nil {
		return nil, err
	}
	return averageOverCombos(ctx, ws, capacityBps, bufferBytes, opts)
}

// averageOverCombos runs the fluid simulation over one workload per lag
// combination and averages the survivors — the shared §5.1 averaging
// step behind every Aggregator. Combinations run concurrently and
// panic-safe; a failed combination is excluded and reported in
// Result.ComboErrors, and only full failure or cancellation errors the
// call.
func averageOverCombos(ctx context.Context, ws []Workload, capacityBps, bufferBytes float64, opts Options) (*Result, error) {
	results := runner.Run(ctx, len(ws), runner.Options{
		Label: func(i int) string { return fmt.Sprintf("lag combo %d", i) },
	}, func(_ context.Context, c int) (*Result, error) {
		if comboFailHook != nil {
			if err := comboFailHook(c); err != nil {
				return nil, err
			}
		}
		o := opts
		if c > 0 {
			o.WindowIntervals = 0 // window series only from the first combo
		}
		return Simulate(ws[c], capacityBps, bufferBytes, o)
	})
	if ctx.Err() != nil {
		// A partial average over whichever combos happened to finish
		// would be silently biased; cancellation aborts the call.
		return nil, fmt.Errorf("queue: multiplexer average interrupted: %w", errs.Cancelled(ctx))
	}
	ok, failed := runner.Split(results)
	// Metrics are recorded at combo granularity, not inside the
	// per-interval fluid loop, so the simulator hot path stays
	// instrumentation-free.
	scope := obs.From(ctx)
	scope.Count("queue.combos.done", int64(len(ok)))
	scope.Count("queue.combos.failed", int64(len(failed)))
	if len(ok) == 0 {
		return nil, fmt.Errorf("queue: %w: %w", errs.ErrAllCombosFailed, errors.Join(runner.Errors(results)...))
	}
	var bytes float64
	for _, res := range ok {
		bytes += res.Value.TotalBytes
	}
	scope.Count("queue.bytes.simulated", int64(bytes))
	avg := &Result{CombosTotal: len(ws), CombosUsed: len(ok), ComboErrors: runner.Errors(results)}
	for _, res := range ok {
		r := res.Value
		avg.TotalBytes += r.TotalBytes
		avg.LostBytes += r.LostBytes
		avg.Pl += r.Pl
		avg.PlWES += r.PlWES
		if r.MaxBacklog > avg.MaxBacklog {
			avg.MaxBacklog = r.MaxBacklog
		}
		if res.Index == 0 {
			avg.WindowLoss = r.WindowLoss
		}
	}
	avg.Pl /= float64(len(ok))
	avg.PlWES /= float64(len(ok))
	return avg, nil
}
