package experiments

import (
	"context"
	"errors"
	"fmt"

	"vbr/internal/errs"
	"vbr/internal/queue"
	"vbr/internal/runner"
)

// This file is the resilient driver for the Fig. 14 study — the most
// expensive computation in the repository (dozens of capacity searches,
// each running six multiplexer simulations per probe). The curves are
// independent, so they run on a panic-safe parallel worker pool, and a
// curve that fails is excluded and reported rather than aborting the
// study. Every curve is a pure function of the trace, the lag seed and
// the granularity, so an interrupted sweep is recovered by running it
// again.

// fig14Key names a curve in error reports, e.g. "N=5/Pl=1e-04".
func fig14Key(n int, target queue.LossTarget) string {
	return fmt.Sprintf("N=%d/%s", n, target)
}

// Fig14Ctx sweeps buffer delay against required capacity for every (N,
// target) combination of the paper. The curves run in parallel on a
// panic-safe worker pool. On cancellation the error matches
// errs.ErrCancelled. The second argument is ignored: it is kept because
// the separately built benchmark module (_perfbench) passes nil there,
// and it goes when that module's calls are renamed.
func (s *Suite) Fig14Ctx(ctx context.Context, _ any) (*Fig14Result, error) {
	defer span(ctx, "fig14")()
	type job struct {
		n      int
		target queue.LossTarget
	}
	var jobs []job
	muxes := map[int]*queue.Mux{}
	for _, n := range s.qcNs() {
		mux, err := queue.NewMuxFromConfig(queue.MuxConfig{Trace: s.Trace, N: n, MinLagFrames: s.minLag(), Seed: 100 + uint64(n)})
		if err != nil {
			return nil, err
		}
		muxes[n] = mux
		for _, target := range s.qcTargets() {
			jobs = append(jobs, job{n: n, target: target})
		}
	}

	results := runner.Run(ctx, len(jobs), runner.Options{
		Label: func(i int) string { return fig14Key(jobs[i].n, jobs[i].target) },
	}, func(ctx context.Context, i int) (Fig14Curve, error) {
		j := jobs[i]
		key := fig14Key(j.n, j.target)
		points, err := queue.QCCurveCtx(ctx, queue.QCCurveConfig{
			Mux:       muxes[j.n],
			Target:    j.target,
			TmaxGrid:  s.tmaxGrid(),
			UseSlices: s.UseSlices,
		})
		if err != nil {
			return Fig14Curve{}, fmt.Errorf("experiments: Fig14 %s: %w", key, err)
		}
		knee, err := queue.Knee(points)
		if err != nil {
			return Fig14Curve{}, fmt.Errorf("experiments: Fig14 %s: %w", key, err)
		}
		return Fig14Curve{N: j.n, Target: j.target, Points: points, Knee: knee}, nil
	})
	if ctx.Err() != nil {
		return nil, fmt.Errorf("experiments: Fig14 interrupted: %w", errs.Cancelled(ctx))
	}
	ok, _ := runner.Split(results)
	if len(ok) == 0 {
		return nil, fmt.Errorf("experiments: every Fig14 curve failed: %w", errors.Join(runner.Errors(results)...))
	}
	res := &Fig14Result{CurveErrors: runner.Errors(results)}
	for _, r := range results { // index order keeps the paper's curve order
		if r.Err == nil {
			res.Curves = append(res.Curves, r.Value)
		}
	}
	return res, nil
}
