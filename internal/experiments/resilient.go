package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"vbr/internal/checkpoint"
	"vbr/internal/errs"
	"vbr/internal/queue"
	"vbr/internal/runner"
)

// This file is the resilient driver for the Fig. 14 study — the most
// expensive computation in the repository (dozens of bisection searches,
// each running six multiplexer simulations per probe). The curves are
// independent, so they run on a panic-safe parallel worker pool; a curve
// that fails is excluded and reported rather than aborting the study;
// and progress is recorded per curve into a checkpoint.SearchState so an
// interrupted run resumes where it stopped instead of re-searching
// completed (N, target) combinations.

// fig14Key names a curve inside a search checkpoint, e.g. "N=5/Pl=1e-04".
func fig14Key(n int, target queue.LossTarget) string {
	return fmt.Sprintf("N=%d/%s", n, target)
}

// Fig14Ctx sweeps buffer delay against required capacity for every (N,
// target) combination of the paper. The curves run in parallel on a
// panic-safe worker pool. progress may be nil (no checkpointing). On
// cancellation the error matches errs.ErrCancelled and progress holds
// every finished — and every partially finished — curve; passing the
// same state back resumes them.
func (s *Suite) Fig14Ctx(ctx context.Context, progress *checkpoint.SearchState) (*Fig14Result, error) {
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

	var mu sync.Mutex // guards progress across workers
	resumeFor := func(key string) []queue.QCPoint {
		if progress == nil {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		c := progress.Find(key)
		if c == nil {
			return nil
		}
		pts := make([]queue.QCPoint, len(c.X))
		for i := range c.X {
			pts[i] = queue.QCPoint{TmaxSec: c.X[i], PerSourceBps: c.Y[i]}
		}
		return pts
	}
	record := func(key string, done bool, pts []queue.QCPoint) {
		if progress == nil {
			return
		}
		xs := make([]float64, len(pts))
		ys := make([]float64, len(pts))
		for i, p := range pts {
			xs[i], ys[i] = p.TmaxSec, p.PerSourceBps
		}
		mu.Lock()
		progress.Set(key, done, xs, ys)
		mu.Unlock()
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
			Resume:    resumeFor(key),
		})
		record(key, err == nil, points)
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
