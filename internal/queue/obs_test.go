package queue

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sync/atomic"
	"testing"
	"time"

	"vbr/internal/obs"
)

// scopedCtx returns a context carrying a fresh metrics scope plus the
// registry backing it, for asserting on recorded metrics.
func scopedCtx(t *testing.T) (context.Context, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	return obs.With(context.Background(), obs.New(reg, nil)), reg
}

// TestAverageLossWindowSeriesFromFirstCombo is the regression test for
// the window-loss attribution rule: Result.WindowLoss must come from lag
// combination 0 even when combo 0 is the last to finish. The hook holds
// combo 0 at the start line until every other combo has been dispatched
// (with a timeout escape so a single-worker schedule cannot deadlock),
// making a completion-order bug — e.g. taking the series from whichever
// result lands first — deterministic instead of a rare flake.
func TestAverageLossWindowSeriesFromFirstCombo(t *testing.T) {
	ctx := context.Background()
	tr := testTrace(t, 2000)
	m, err := NewMuxFromConfig(MuxConfig{Trace: tr, N: 3, MinLagFrames: 100, Seed: 13}) // N=3 → 6 combos
	if err != nil {
		t.Fatal(err)
	}

	var othersStarted atomic.Int64
	release := make(chan struct{})
	comboFailHook = func(c int) error {
		if c != 0 {
			if othersStarted.Add(1) == 5 {
				close(release)
			}
			return nil
		}
		select {
		case <-release:
		case <-time.After(2 * time.Second):
			// GOMAXPROCS=1 or a single runner worker would run the combos
			// sequentially starting with 0; proceed rather than deadlock.
		}
		return nil
	}
	defer func() { comboFailHook = nil }()

	mean := tr.MeanRate() * 3
	capBps, buf := mean*1.02, 50000.0
	r, err := m.AverageLossCtx(ctx, capBps, buf, true, Options{WindowIntervals: 600})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.WindowLoss) == 0 {
		t.Fatal("window series missing")
	}

	// The series must be bit-identical to combo 0 simulated directly.
	ws, err := m.Workloads(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Simulate(ws[0], capBps, buf, Options{WindowIntervals: 600})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.WindowLoss) != len(want.WindowLoss) {
		t.Fatalf("window series length %d, want %d", len(r.WindowLoss), len(want.WindowLoss))
	}
	for i := range want.WindowLoss {
		if r.WindowLoss[i] != want.WindowLoss[i] {
			t.Fatalf("window %d: %v != combo-0 value %v", i, r.WindowLoss[i], want.WindowLoss[i])
		}
	}
}

// TestAverageLossComboMetricsConsistent checks that the combo counters
// recorded on the scope agree with the Result bookkeeping under partial
// failures, and that queue.bytes.simulated sums exactly the survivors.
func TestAverageLossComboMetricsConsistent(t *testing.T) {
	tr := testTrace(t, 2000)
	m, err := NewMuxFromConfig(MuxConfig{Trace: tr, N: 3, MinLagFrames: 100, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	comboFailHook = func(c int) error {
		if c == 1 || c == 3 {
			return fmt.Errorf("injected failure in combo %d", c)
		}
		return nil
	}
	defer func() { comboFailHook = nil }()

	ctx, reg := scopedCtx(t)
	mean := tr.MeanRate() * 3
	r, err := m.AverageLossCtx(ctx, mean*1.02, 50000, true, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.CombosUsed != 4 || r.CombosTotal != 6 || len(r.ComboErrors) != 2 {
		t.Fatalf("result bookkeeping: used=%d total=%d errors=%d, want 4/6/2",
			r.CombosUsed, r.CombosTotal, len(r.ComboErrors))
	}
	snap := reg.Snapshot()
	if got := snap.Counters["queue.combos.done"]; got != int64(r.CombosUsed) {
		t.Errorf("queue.combos.done = %d, want CombosUsed %d", got, r.CombosUsed)
	}
	if got := snap.Counters["queue.combos.failed"]; got != int64(len(r.ComboErrors)) {
		t.Errorf("queue.combos.failed = %d, want %d", got, len(r.ComboErrors))
	}
	if got := snap.Counters["queue.bytes.simulated"]; got != int64(r.TotalBytes) {
		t.Errorf("queue.bytes.simulated = %d, want survivor total %d", got, int64(r.TotalBytes))
	}
}

// TestMinCapacityConvergesOnAnalyticCrossing is the property test for
// the bisection: for randomized exponentially-decaying loss curves the
// analytic crossing point is known, so the search result must land
// within the bisection tolerance above it, with at most 50 probes per
// search recorded on the scope.
func TestMinCapacityConvergesOnAnalyticCrossing(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x0b5, 0xcab))
	ctx, reg := scopedCtx(t)
	const trials = 25
	for trial := 0; trial < trials; trial++ {
		// loss(c) = exp(-c/scale) is strictly decreasing; the target Pl is
		// crossed exactly at c* = -scale·ln(Pl).
		scale := 1e5 * (1 + 9*rng.Float64())
		target := math.Pow(10, -1-4*rng.Float64()) // Pl ∈ [1e-5, 1e-1]
		cross := -scale * math.Log(target)
		lo := cross * (0.1 + 0.5*rng.Float64())
		hi := cross * (1.5 + 3*rng.Float64())
		loss := func(c float64) (float64, error) { return math.Exp(-c / scale), nil }

		got, err := MinCapacityCtx(ctx, loss, lo, hi, LossTarget{Pl: target})
		if err != nil {
			t.Fatalf("trial %d (scale=%g target=%g): %v", trial, scale, target, err)
		}
		if got < cross {
			t.Errorf("trial %d: capacity %v below the analytic crossing %v — target not met", trial, got, cross)
		}
		// The loop stops once hi-lo ≤ 1e-4·hi, so the returned upper
		// endpoint overshoots the crossing by at most that bracket width.
		if tol := 1e-4 * hi; got-cross > tol {
			t.Errorf("trial %d: capacity %v overshoots crossing %v by %v > tolerance %v",
				trial, got, cross, got-cross, tol)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["queue.capacity.searches"]; got != trials {
		t.Errorf("queue.capacity.searches = %d, want %d", got, trials)
	}
	probes := snap.Counters["queue.capacity.probes"]
	if probes <= 0 || probes > 50*trials {
		t.Errorf("queue.capacity.probes = %d, want in (0, %d] (≤ 50 per search)", probes, 50*trials)
	}
	rw := snap.Histograms["queue.capacity.bracket.relwidth"]
	if rw.Count != trials {
		t.Errorf("bracket.relwidth observations = %d, want %d", rw.Count, trials)
	}
	if rw.Max > 1e-4 {
		t.Errorf("worst relative bracket width %g exceeds the 1e-4 stop criterion", rw.Max)
	}
}

// TestMinCapacityProbeBudget pins the probe bound itself: a pathological
// bracket that cannot tighten to the relative tolerance must still stop
// at 50 probes rather than loop.
func TestMinCapacityProbeBudget(t *testing.T) {
	ctx, reg := scopedCtx(t)
	// The crossing sits at c ≈ 1, the bottom of an enormous bracket: hi
	// converges toward 1 but 50 halvings of a 1e18-wide bracket still
	// leave it ~900 wide — far above the 1e-4·hi relative tolerance — so
	// the iteration cap is what stops the search.
	loss := func(c float64) (float64, error) { return math.Exp(-c), nil }
	if _, err := MinCapacityCtx(ctx, loss, 0.5, 1e18, LossTarget{Pl: math.Exp(-1)}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["queue.capacity.probes"]; got != 50 {
		t.Errorf("probes = %d, want exactly the 50-iteration budget", got)
	}
}

// TestKneeFindsTwoSlopeJoint is the property test for Knee: on synthetic
// curves that are exactly two power laws glued at a known grid index,
// the maximum log-log curvature is at the joint.
func TestKneeFindsTwoSlopeJoint(t *testing.T) {
	rng := rand.New(rand.NewPCG(0x7e5, 0x1))
	for trial := 0; trial < 20; trial++ {
		n := 7 + rng.IntN(8)       // 7..14 points
		joint := 2 + rng.IntN(n-4) // interior, with a flank on each side
		// Distinct negative slopes: steep before the knee, shallow after —
		// the shape of the paper's Fig. 14 curves on log-log axes.
		s1 := -1.5 - rng.Float64()
		s2 := -0.1 - 0.3*rng.Float64()
		points := make([]QCPoint, n)
		for i := range points {
			x := float64(i - joint) // log T_max, zero at the joint
			var y float64           // log per-source capacity
			if i <= joint {
				y = s1 * x
			} else {
				y = s2 * x
			}
			points[i] = QCPoint{TmaxSec: math.Exp(x), PerSourceBps: math.Exp(y + 10)}
		}
		knee, err := Knee(points)
		if err != nil {
			t.Fatal(err)
		}
		if knee != points[joint] {
			t.Errorf("trial %d (n=%d joint=%d s1=%.2f s2=%.2f): knee at T_max=%g, want %g",
				trial, n, joint, s1, s2, knee.TmaxSec, points[joint].TmaxSec)
		}
	}
	if _, err := Knee([]QCPoint{{1, 1}, {2, 2}}); err == nil {
		t.Error("knee on 2 points should fail")
	}
}
