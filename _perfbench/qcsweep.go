package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"vbr/internal/experiments"
	"vbr/internal/obs"
	"vbr/internal/queue"
	"vbr/internal/runner"
)

// The queue and runner probe: a traced Fig. 14 Q–C sweep at QuickScale,
// timing each curve and each multiplexer simulation call.

// buildSweep builds the QuickScale suite from the workload seed and runs
// the reference Fig. 14 sweep on it.
func buildSweep(ctx context.Context, seed uint64) (*experiments.Suite, *experiments.Fig14Result, error) {
	suite, err := experiments.GenerateSuite(suiteFrames, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("building the Fig. 14 suite: %w", err)
	}
	ref, err := suite.Fig14Ctx(ctx, nil)
	if err != nil {
		return nil, nil, err
	}
	if len(ref.CurveErrors) > 0 {
		return nil, nil, fmt.Errorf("set-up sweep: %w", errors.Join(ref.CurveErrors...))
	}
	return suite, ref, nil
}

// sameKnees reports whether a sweep reproduced every knee of want.
func sameKnees(got, want *experiments.Fig14Result) error {
	if len(got.CurveErrors) > 0 {
		return fmt.Errorf("sweep: %w", errors.Join(got.CurveErrors...))
	}
	if len(got.Curves) != len(want.Curves) {
		return fmt.Errorf("sweep made %d curves, the set-up sweep %d", len(got.Curves), len(want.Curves))
	}
	for i, c := range got.Curves {
		w := want.Curves[i]
		if c.N != w.N || c.Target != w.Target || c.Knee != w.Knee {
			return fmt.Errorf("curve N=%d %s: knee %+v, the set-up sweep's N=%d %s knee %+v", c.N, c.Target, c.Knee, w.N, w.Target, w.Knee)
		}
	}
	return nil
}

// sweepStats is where one traced sweep spent its time.
type sweepStats struct {
	start, end     time.Time
	workers        int
	curves         []time.Duration // per (N, target) curve
	alCalls        int64           // AverageLossCtx calls
	alTime         time.Duration   // Σ time inside them
	probes, points int64           // bisection probes, curve points
}

// timedAgg wraps a multiplexer so the benchmark times every
// AverageLossCtx call the capacity bisection makes.
type timedAgg struct {
	queue.Aggregator
	tr     *tracer
	parent int
	calls  *atomic.Int64
	nanos  *atomic.Int64
}

func (a timedAgg) AverageLossCtx(ctx context.Context, capacityBps, bufferBytes float64, useSlices bool, opts queue.Options) (*queue.Result, error) {
	id := a.tr.begin("queue.averageloss", a.parent)
	t0 := time.Now()
	r, err := a.Aggregator.AverageLossCtx(ctx, capacityBps, bufferBytes, useSlices, opts)
	a.nanos.Add(int64(time.Since(t0)))
	a.calls.Add(1)
	a.tr.end(id)
	return r, err
}

// tracedSweep makes the curves of ref the way Suite.Fig14Ctx does — one
// multiplexer per N, one QCCurveCtx per (N, target), fanned out by
// runner.Run — with a span around each curve and each AverageLossCtx
// call, and checks that every knee matches ref.
func tracedSweep(ctx context.Context, s *experiments.Suite, ref *experiments.Fig14Result, tr *tracer) (sweepStats, error) {
	reg := obs.NewRegistry()
	ctx = obs.With(ctx, obs.New(reg, nil))
	st := sweepStats{start: time.Now(), workers: min(runtime.GOMAXPROCS(0), len(ref.Curves))}
	root := tr.begin("experiments.fig14", 0)
	defer tr.end(root)

	minLag := min(1000, len(s.Trace.Frames)/25) // Fig14Ctx's §5.1 minimum lag
	muxes := map[int]queue.Aggregator{}
	for _, c := range ref.Curves {
		if muxes[c.N] != nil {
			continue
		}
		mux, err := queue.NewMuxFromConfig(queue.MuxConfig{Trace: s.Trace, N: c.N, MinLagFrames: minLag, Seed: 100 + uint64(c.N)})
		if err != nil {
			return st, err
		}
		muxes[c.N] = mux
	}
	var calls, nanos atomic.Int64
	st.curves = make([]time.Duration, len(ref.Curves))
	results := runner.Run(ctx, len(ref.Curves), runner.Options{Workers: st.workers}, func(ctx context.Context, i int) (queue.QCPoint, error) {
		c := ref.Curves[i]
		grid := make([]float64, len(c.Points))
		for j, p := range c.Points {
			grid[j] = p.TmaxSec
		}
		id := tr.begin("queue.qccurve", root)
		t0 := time.Now()
		pts, err := queue.QCCurveCtx(ctx, queue.QCCurveConfig{
			Mux:       timedAgg{Aggregator: muxes[c.N], tr: tr, parent: id, calls: &calls, nanos: &nanos},
			Target:    c.Target,
			TmaxGrid:  grid,
			UseSlices: s.UseSlices,
		})
		st.curves[i] = time.Since(t0)
		tr.end(id)
		if err != nil {
			return queue.QCPoint{}, err
		}
		return queue.Knee(pts)
	})
	st.end = time.Now()
	got := &experiments.Fig14Result{}
	for i, r := range results {
		if r.Err != nil {
			return st, fmt.Errorf("traced sweep: %w", r.Err)
		}
		c := ref.Curves[i]
		got.Curves = append(got.Curves, experiments.Fig14Curve{N: c.N, Target: c.Target, Knee: r.Value})
	}
	if err := sameKnees(got, ref); err != nil {
		return st, fmt.Errorf("traced sweep: %w", err)
	}
	snap := reg.Snapshot()
	st.alCalls, st.alTime = calls.Load(), time.Duration(nanos.Load())
	st.probes, st.points = snap.Counters["queue.capacity.probes"], snap.Counters["queue.curve.points"]
	return st, nil
}
