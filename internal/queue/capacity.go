package queue

import (
	"context"
	"fmt"
	"math"

	"vbr/internal/errs"
	"vbr/internal/obs"
	"vbr/internal/runner"
)

// LossTarget is a quality-of-service target for the capacity search:
// either an overall loss rate (UseWES false) or a worst-errored-second
// loss rate (UseWES true). Pl == 0 requests the zero-loss allocation.
type LossTarget struct {
	Pl     float64
	UseWES bool
}

// String renders the target the way the paper labels its curves.
func (t LossTarget) String() string {
	name := "Pl"
	if t.UseWES {
		name = "Pl-WES"
	}
	//vbrlint:ignore floateq Pl 0 is the exact zero-loss sentinel assigned from literals, never computed
	if t.Pl == 0 {
		return name + "=0"
	}
	return fmt.Sprintf("%s=%.0e", name, t.Pl)
}

// MinCapacityCtx finds, by bisection, the minimum channel capacity
// (bits/s) meeting the loss target when the buffer is sized for a fixed
// maximum delay T_max = Q/(N·C) — the paper's normalized buffer
// measure, which makes Q proportional to C during the search.
// loss(capacity) is supplied by the caller (typically
// Mux.AverageLossCtx with Q = T_max·C/8 bytes). The context is checked
// before every simulation of the bisection.
//
// The search assumes loss is non-increasing in capacity, which holds for
// a work-conserving FIFO queue when Q grows with C.
func MinCapacityCtx(ctx context.Context, loss func(capacityBps float64) (float64, error), loBps, hiBps float64, target LossTarget) (float64, error) {
	if !(loBps > 0) || !(hiBps > loBps) {
		return 0, fmt.Errorf("queue: bad capacity bracket [%v, %v]", loBps, hiBps)
	}
	if ctx.Err() != nil {
		return 0, errs.Cancelled(ctx)
	}
	scope := obs.From(ctx)
	scope.Count("queue.capacity.searches", 1)
	// Verify the bracket actually brackets the target. These two
	// endpoint evaluations are not counted as bisection probes:
	// queue.capacity.probes reports search effort, bounded at 50.
	lHi, err := loss(hiBps)
	if err != nil {
		return 0, err
	}
	if lHi > target.Pl {
		return 0, fmt.Errorf("queue: loss %v at max capacity %v still above target %v: %w",
			lHi, hiBps, target.Pl, errs.ErrTargetUnreachable)
	}
	lLo, err := loss(loBps)
	if err != nil {
		return 0, err
	}
	if lLo <= target.Pl {
		scope.Observe("queue.capacity.bracket.relwidth", 0)
		return loBps, nil
	}
	probes := 0
	for i := 0; i < 50 && hiBps-loBps > 1e-4*hiBps; i++ {
		if ctx.Err() != nil {
			scope.Count("queue.capacity.probes", int64(probes))
			return 0, errs.Cancelled(ctx)
		}
		mid := (loBps + hiBps) / 2
		probes++
		l, err := loss(mid)
		if err != nil {
			scope.Count("queue.capacity.probes", int64(probes))
			return 0, err
		}
		if l <= target.Pl {
			hiBps = mid
		} else {
			loBps = mid
		}
	}
	scope.Count("queue.capacity.probes", int64(probes))
	scope.Observe("queue.capacity.bracket.relwidth", (hiBps-loBps)/hiBps)
	return hiBps, nil
}

// MinCapacityAtCtx returns the least aggregate capacity (bits/s) at
// which agg meets target with the buffer sized for a maximum delay T_max
// (Q = T_max·C/8 bytes) — one point of a Q–C curve. Its upper end is the
// zero-loss dual: C* = the largest zeroLossRate(w, 0, T_max) over the
// aggregator's combination workloads, above which no combination loses
// anything, so C* bounds every target. A Pl = 0 target is answered with
// the first capacity from C*·(1 + 1e-12) up at which AverageLossCtx
// reports exactly zero loss (at C* itself rounding leaves ~1e-16);
// any other target is bisected by MinCapacityCtx on
// [½·min(mean, C*), that capacity].
func MinCapacityAtCtx(ctx context.Context, agg Aggregator, target LossTarget, tmaxSec float64, useSlices bool) (float64, error) {
	if !(tmaxSec >= 0) {
		return 0, fmt.Errorf("queue: negative T_max %v", tmaxSec)
	}
	ws, err := agg.Workloads(ctx, useSlices)
	if err != nil {
		return 0, err
	}
	duals := runner.Run(ctx, len(ws), runner.Options{}, func(_ context.Context, c int) (float64, error) {
		return zeroLossRate(ws[c], 0, tmaxSec)
	})
	var cStar, mean float64
	for i, d := range duals {
		if d.Err != nil {
			return 0, d.Err
		}
		cStar = max(cStar, d.Value)
		mean += ws[i].MeanRate()
	}
	mean /= float64(len(ws))
	lossAt := func(c float64) (float64, error) {
		r, err := agg.AverageLossCtx(ctx, c, tmaxSec*c/8, useSlices, Options{})
		if err != nil {
			return 0, err
		}
		if target.UseWES {
			return r.PlWES, nil
		}
		return r.Pl, nil
	}
	for step := 1e-12; step < 2e-6; step *= 10 {
		zero := cStar * (1 + step)
		l, err := lossAt(zero)
		if err != nil {
			return 0, err
		}
		//vbrlint:ignore floateq exact zero is the point: Pl = 0 promises no lost byte, not a rounding-sized loss
		if l != 0 {
			continue
		}
		//vbrlint:ignore floateq Pl 0 is the exact zero-loss sentinel assigned from literals, never computed
		if target.Pl == 0 {
			return zero, nil
		}
		return MinCapacityCtx(ctx, lossAt, min(mean, cStar)/2, zero, target)
	}
	return 0, fmt.Errorf("queue: loss still nonzero 1e-6 above the zero-loss dual %v: %w", cStar, errs.ErrTargetUnreachable)
}

// QCPoint is one point of a Fig. 14 curve: the maximum buffer delay
// T_max = Q/(N·C) against the allocated bandwidth per source C/N.
type QCPoint struct {
	TmaxSec      float64
	PerSourceBps float64
}

// QCCurveConfig parameterizes a Q–C tradeoff sweep over any
// Aggregator — the classic lagged-trace Mux or a scenario-zoo
// SourceMux population. Each point is one MinCapacityAtCtx search.
type QCCurveConfig struct {
	Mux       Aggregator
	Target    LossTarget
	TmaxGrid  []float64 // buffer delays to evaluate (seconds)
	UseSlices bool      // simulate at slice granularity (the paper's choice)
}

// QCCurveCtx computes a Fig. 14 curve: for each T_max, the minimum
// capacity per source achieving the loss target. On a cancelled context
// it returns the points completed so far together with an error
// matching errs.ErrCancelled.
func QCCurveCtx(ctx context.Context, cfg QCCurveConfig) ([]QCPoint, error) {
	if cfg.Mux == nil {
		return nil, fmt.Errorf("queue: nil multiplexer")
	}
	if len(cfg.TmaxGrid) == 0 {
		return nil, fmt.Errorf("queue: empty T_max grid")
	}
	n := float64(cfg.Mux.NSources())
	scope := obs.From(ctx)
	points := make([]QCPoint, 0, len(cfg.TmaxGrid))
	for _, tmax := range cfg.TmaxGrid {
		if ctx.Err() != nil {
			return points, fmt.Errorf("queue: Q-C sweep interrupted at T_max=%v: %w", tmax, errs.Cancelled(ctx))
		}
		c, err := MinCapacityAtCtx(ctx, cfg.Mux, cfg.Target, tmax, cfg.UseSlices)
		if err != nil {
			return points, fmt.Errorf("queue: T_max=%v: %w", tmax, err)
		}
		points = append(points, QCPoint{TmaxSec: tmax, PerSourceBps: c / n})
		scope.Count("queue.curve.points", 1)
		scope.Progress("queue.qccurve", int64(len(points)), int64(len(cfg.TmaxGrid)))
	}
	return points, nil
}

// Knee locates the knee of a Q–C curve — the natural operating point the
// paper identifies — as the point of maximum curvature on log-log axes,
// estimated by the largest second difference of log(C/N) against
// log(T_max).
//
//vbrlint:ignore ctxcheck bounded pass over the precomputed capacity curve; no blocking calls
func Knee(points []QCPoint) (QCPoint, error) {
	if len(points) < 3 {
		return QCPoint{}, fmt.Errorf("queue: knee needs ≥ 3 points, got %d", len(points))
	}
	best, bestCurv := 1, math.Inf(-1)
	for i := 1; i < len(points)-1; i++ {
		x0, x1, x2 := math.Log(points[i-1].TmaxSec), math.Log(points[i].TmaxSec), math.Log(points[i+1].TmaxSec)
		y0, y1, y2 := math.Log(points[i-1].PerSourceBps), math.Log(points[i].PerSourceBps), math.Log(points[i+1].PerSourceBps)
		// Second difference with uneven spacing.
		d1 := (y1 - y0) / (x1 - x0)
		d2 := (y2 - y1) / (x2 - x1)
		curv := math.Abs(d2 - d1)
		if curv > bestCurv {
			bestCurv, best = curv, i
		}
	}
	return points[best], nil
}

// SMGPoint is one point of Fig. 15: sources multiplexed and the capacity
// allocated per source.
type SMGPoint struct {
	N            int
	PerSourceBps float64
}

// SMGConfig parameterizes the statistical-multiplexing-gain analysis.
type SMGConfig struct {
	NewMux    func(n int) (Aggregator, error) // constructs the N-source multiplexer
	Ns        []int
	Target    LossTarget
	TmaxSec   float64 // Fig. 15 fixes T_max = 2 ms
	UseSlices bool
}

// SMGCtx computes Fig. 15: the required per-source allocation against N
// at a fixed buffer delay. On a cancelled context it returns the points
// completed so far with an error matching errs.ErrCancelled.
func SMGCtx(ctx context.Context, cfg SMGConfig) ([]SMGPoint, error) {
	if cfg.NewMux == nil {
		return nil, fmt.Errorf("queue: nil multiplexer factory")
	}
	if len(cfg.Ns) == 0 {
		return nil, fmt.Errorf("queue: empty N list")
	}
	scope := obs.From(ctx)
	out := make([]SMGPoint, 0, len(cfg.Ns))
	for _, n := range cfg.Ns {
		if ctx.Err() != nil {
			return out, fmt.Errorf("queue: SMG sweep interrupted at N=%d: %w", n, errs.Cancelled(ctx))
		}
		mux, err := cfg.NewMux(n)
		if err != nil {
			return out, err
		}
		c, err := MinCapacityAtCtx(ctx, mux, cfg.Target, cfg.TmaxSec, cfg.UseSlices)
		if err != nil {
			return out, fmt.Errorf("queue: N=%d: %w", n, err)
		}
		out = append(out, SMGPoint{N: n, PerSourceBps: c / float64(n)})
		scope.Count("queue.smg.points", 1)
		scope.Progress("queue.smg", int64(len(out)), int64(len(cfg.Ns)))
	}
	return out, nil
}

// RealizedGain returns the fraction of the theoretically possible
// multiplexing gain achieved at a given allocation: the paper reports 72%
// at N = 5. peak and mean are single-source rates in bits/s.
func RealizedGain(perSourceBps, peakBps, meanBps float64) (float64, error) {
	if !(peakBps > meanBps) {
		return 0, fmt.Errorf("queue: peak %v must exceed mean %v", peakBps, meanBps)
	}
	return (peakBps - perSourceBps) / (peakBps - meanBps), nil
}
