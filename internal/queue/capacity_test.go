package queue

import (
	"context"
	"errors"
	"testing"

	"vbr/internal/errs"
)

// countingAgg counts the AverageLossCtx calls a capacity search makes.
type countingAgg struct {
	Aggregator
	calls int
}

func (a *countingAgg) AverageLossCtx(ctx context.Context, capacityBps, bufferBytes float64, useSlices bool, opts Options) (*Result, error) {
	a.calls++
	return a.Aggregator.AverageLossCtx(ctx, capacityBps, bufferBytes, useSlices, opts)
}

// zeroLossDual returns C*, the largest zero-loss dual rate over the
// aggregator's combination workloads at delay tmax, and their mean rate.
func zeroLossDual(t *testing.T, agg Aggregator, tmax float64, useSlices bool) (cStar, mean float64) {
	t.Helper()
	ws, err := agg.Workloads(context.Background(), useSlices)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		c, err := zeroLossRate(w, 0, tmax)
		if err != nil {
			t.Fatal(err)
		}
		cStar = max(cStar, c)
		mean += w.MeanRate()
	}
	return cStar, mean / float64(len(ws))
}

// TestQCCurveSliceZeroLossAboveFramePeak is the regression test for the
// old 1.05 × frame-peak bracket: at slice granularity one source needs
// more than that for zero loss at T_max = 0.5 ms, so the sweep failed
// with ErrTargetUnreachable. The point must now carry exactly zero loss.
func TestQCCurveSliceZeroLossAboveFramePeak(t *testing.T) {
	ctx := context.Background()
	tr := testTrace(t, 30000)
	m, err := NewMuxFromConfig(MuxConfig{Trace: tr, N: 1, MinLagFrames: 1000, Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	const tmax = 0.0005
	pts, err := QCCurveCtx(ctx, QCCurveConfig{Mux: m, Target: LossTarget{Pl: 0}, TmaxGrid: []float64{tmax}, UseSlices: true})
	if err != nil {
		t.Fatal(err)
	}
	c := pts[0].PerSourceBps
	if c <= 1.05*tr.PeakRate() {
		t.Errorf("zero-loss capacity %v within the old bracket %v; the case no longer exercises it", c, 1.05*tr.PeakRate())
	}
	r, err := m.AverageLossCtx(ctx, c, tmax*c/8, true, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.LostBytes != 0 {
		t.Errorf("lost %v bytes at the Pl = 0 point %v", r.LostBytes, c)
	}
}

// TestMinCapacityAtMatchesBisection checks every Pl = 0 point of the
// QuickScale grid against the bisection the dual replaced, run over
// AverageLossCtx on [½·mean, 2·C*]: the dual is never above the
// bisection and within its 1e-4 tolerance, the simulator loses bytes
// just below it, and it averages at most two simulations per point.
func TestMinCapacityAtMatchesBisection(t *testing.T) {
	if testing.Short() {
		t.Skip("bisection reference over 30 sweep points skipped in -short mode")
	}
	ctx := context.Background()
	tr := testTrace(t, 30000)
	var points, calls int
	for _, n := range []int{1, 5, 20} {
		m, err := NewMuxFromConfig(MuxConfig{Trace: tr, N: n, MinLagFrames: 1000, Seed: 100 + uint64(n)})
		if err != nil {
			t.Fatal(err)
		}
		for _, slices := range []bool{false, true} {
			for _, tmax := range []float64{0.0005, 0.002, 0.008, 0.032, 0.128} {
				agg := &countingAgg{Aggregator: m}
				got, err := MinCapacityAtCtx(ctx, agg, LossTarget{Pl: 0}, tmax, slices)
				if err != nil {
					t.Fatalf("N=%d slices=%v T_max=%v: %v", n, slices, tmax, err)
				}
				points, calls = points+1, calls+agg.calls

				cStar, mean := zeroLossDual(t, m, tmax, slices)
				lossAt := func(c float64) (float64, error) {
					r, err := m.AverageLossCtx(ctx, c, tmax*c/8, slices, Options{})
					if err != nil {
						return 0, err
					}
					return r.Pl, nil
				}
				want, err := MinCapacityCtx(ctx, lossAt, mean/2, 2*cStar, LossTarget{Pl: 0})
				if err != nil {
					t.Fatal(err)
				}
				if got > want || want-got > 1e-4*want {
					t.Errorf("N=%d slices=%v T_max=%v: dual %v vs bisection %v", n, slices, tmax, got, want)
				}
				below := 0.9999 * got
				r, err := m.AverageLossCtx(ctx, below, tmax*below/8, slices, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !(r.LostBytes > 0) {
					t.Errorf("N=%d slices=%v T_max=%v: no loss at 0.9999 × the dual %v", n, slices, tmax, got)
				}
			}
		}
	}
	if calls > 2*points {
		t.Errorf("%d AverageLossCtx calls for %d Pl = 0 points, want ≤ 2 per point", calls, points)
	}
}

// TestQCCurveDelayBeyondTrace covers a T_max longer than the whole
// trace: C* then falls below half the mean rate, so the bisection's
// lower bracket must come from C* too, and both a Pl = 0 and a Pl > 0
// point must land at or below the dual rather than at a mean-based
// floor.
func TestQCCurveDelayBeyondTrace(t *testing.T) {
	ctx := context.Background()
	m, err := NewMuxFromConfig(MuxConfig{Trace: testTrace(t, 3000), N: 1})
	if err != nil {
		t.Fatal(err)
	}
	const tmax = 1e4
	cStar, mean := zeroLossDual(t, m, tmax, false)
	if !(cStar < mean/2) {
		t.Fatalf("C* %v not below half the mean %v; the case no longer exercises the lower bracket", cStar, mean)
	}
	for _, target := range []LossTarget{{Pl: 0}, {Pl: 1e-3}} {
		pts, err := QCCurveCtx(ctx, QCCurveConfig{Mux: m, Target: target, TmaxGrid: []float64{tmax}})
		if err != nil {
			t.Fatalf("%v: %v", target, err)
		}
		c := pts[0].PerSourceBps
		if c > cStar*(1+1e-6) {
			t.Errorf("%v: capacity %v above the dual %v", target, c, cStar)
		}
		r, err := m.AverageLossCtx(ctx, c, tmax*c/8, false, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Pl > target.Pl {
			t.Errorf("%v: loss %v at the returned capacity %v", target, r.Pl, c)
		}
	}
}

// lossyAgg reports a loss no capacity removes, as a simulator that
// disagreed with the zero-loss dual would.
type lossyAgg struct{ countingAgg }

func (a *lossyAgg) AverageLossCtx(context.Context, float64, float64, bool, Options) (*Result, error) {
	a.calls++
	return &Result{Pl: 1e-9, PlWES: 1e-9}, nil
}

// TestMinCapacityAtFailsLoudly: when the average still reports loss
// 1e-6 above the dual, the search gives up with ErrTargetUnreachable
// after stepping C*·(1 + 1e-12) … C*·(1 + 1e-6) rather than searching on.
func TestMinCapacityAtFailsLoudly(t *testing.T) {
	m, err := NewMuxFromConfig(MuxConfig{Trace: testTrace(t, 3000), N: 1})
	if err != nil {
		t.Fatal(err)
	}
	agg := &lossyAgg{countingAgg{Aggregator: m}}
	_, err = MinCapacityAtCtx(context.Background(), agg, LossTarget{Pl: 0}, 0.002, false)
	if !errors.Is(err, errs.ErrTargetUnreachable) {
		t.Fatalf("err = %v, want ErrTargetUnreachable", err)
	}
	if agg.calls != 7 {
		t.Errorf("%d AverageLossCtx calls, want 7 (steps 1e-12 … 1e-6)", agg.calls)
	}
}
