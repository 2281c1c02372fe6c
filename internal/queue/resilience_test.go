package queue

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"vbr/internal/errs"
	"vbr/internal/runner"
)

// --- NewMux tight-spacing boundary (N·MinLag vs trace length) ---

func TestNewMuxSpacingBoundary(t *testing.T) {
	tr := testTrace(t, 3000)
	l := len(tr.Frames)
	n := 5

	// Exactly feasible: N·MinLag == len → the zero-slack equally-spaced
	// placement must be accepted, not rejected.
	m, err := NewMuxFromConfig(MuxConfig{Trace: tr, N: n, MinLagFrames: l / n, Seed: 1})
	if err != nil {
		t.Fatalf("zero-slack placement rejected: %v", err)
	}
	// At zero slack every draw is the deterministic equally-spaced layout;
	// verify the pairwise circular distances meet MinLag exactly.
	rng := rand.New(rand.NewPCG(3, 3))
	for trial := 0; trial < 5; trial++ {
		lags := m.Lags(rng)
		for i := 0; i < len(lags); i++ {
			for j := i + 1; j < len(lags); j++ {
				d := lags[i] - lags[j]
				if d < 0 {
					d = -d
				}
				if d > l-d {
					d = l - d
				}
				if d < l/n {
					t.Fatalf("zero-slack lags %v violate spacing: |%d-%d| = %d < %d", lags, lags[i], lags[j], d, l/n)
				}
			}
		}
	}

	// One frame of slack: still feasible.
	if _, err := NewMuxFromConfig(MuxConfig{Trace: tr, N: n, MinLagFrames: (l - 1) / n, Seed: 1}); err != nil {
		t.Errorf("near-tight placement rejected: %v", err)
	}

	// One frame too many: infeasible, and identified as such.
	_, err = NewMuxFromConfig(MuxConfig{Trace: tr, N: n, MinLagFrames: l/n + 1, Seed: 1})
	if !errors.Is(err, errs.ErrInfeasibleLags) {
		t.Errorf("over-tight placement: got %v, want ErrInfeasibleLags", err)
	}

	// N == 1 never has a spacing constraint.
	if _, err := NewMuxFromConfig(MuxConfig{Trace: tr, N: 1, MinLagFrames: l * 10, Seed: 1}); err != nil {
		t.Errorf("single source with huge MinLag rejected: %v", err)
	}
}

// --- panic-safe combo averaging (graceful degradation) ---

func TestAverageLossComboFailuresDegradeGracefully(t *testing.T) {
	ctx := context.Background()
	tr := testTrace(t, 2000)
	m, err := NewMuxFromConfig(MuxConfig{Trace: tr, N: 3, MinLagFrames: 100, Seed: 13}) // N=3 → 6 combos
	if err != nil {
		t.Fatal(err)
	}
	mean := tr.MeanRate() * 3

	comboFailHook = func(c int) error {
		switch c {
		case 2:
			panic(fmt.Sprintf("injected panic in combo %d", c))
		case 4:
			return errors.New("injected failure in combo 4")
		}
		return nil
	}
	defer func() { comboFailHook = nil }()

	r, err := m.AverageLossCtx(ctx, mean*1.02, 50000, true, Options{})
	if err != nil {
		t.Fatalf("average with 4 surviving combos failed outright: %v", err)
	}
	if r.CombosTotal != 6 || r.CombosUsed != 4 {
		t.Errorf("combos total/used = %d/%d, want 6/4", r.CombosTotal, r.CombosUsed)
	}
	if len(r.ComboErrors) != 2 {
		t.Fatalf("ComboErrors has %d entries, want 2: %v", len(r.ComboErrors), r.ComboErrors)
	}
	var pe *runner.PanicError
	foundPanic := false
	for _, e := range r.ComboErrors {
		if errors.As(e, &pe) {
			foundPanic = true
		}
	}
	if !foundPanic {
		t.Errorf("panic not surfaced as *runner.PanicError: %v", r.ComboErrors)
	}
	if r.Pl < 0 || r.Pl > 1 || math.IsNaN(r.Pl) {
		t.Errorf("survivor-averaged Pl %v out of range", r.Pl)
	}

	// The survivor average must equal the mean over exactly the four
	// surviving combos, computed directly.
	ws, err := m.workloads(true)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for c, w := range ws {
		if c == 2 || c == 4 {
			continue
		}
		res, err := Simulate(w, mean*1.02, 50000, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want += res.Pl
	}
	want /= 4
	if math.Abs(r.Pl-want) > 1e-15 {
		t.Errorf("survivor average %v, want %v", r.Pl, want)
	}
}

func TestAverageLossAllCombosFailed(t *testing.T) {
	ctx := context.Background()
	tr := testTrace(t, 2000)
	m, err := NewMuxFromConfig(MuxConfig{Trace: tr, N: 3, MinLagFrames: 100, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	comboFailHook = func(c int) error { return fmt.Errorf("combo %d down", c) }
	defer func() { comboFailHook = nil }()

	_, err = m.AverageLossCtx(ctx, tr.MeanRate()*3, 50000, true, Options{})
	if !errors.Is(err, errs.ErrAllCombosFailed) {
		t.Fatalf("got %v, want ErrAllCombosFailed", err)
	}
}

func TestAverageLossCtxCancelled(t *testing.T) {
	tr := testTrace(t, 2000)
	m, err := NewMuxFromConfig(MuxConfig{Trace: tr, N: 3, MinLagFrames: 100, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = m.AverageLossCtx(ctx, tr.MeanRate()*3, 50000, true, Options{})
	if !errors.Is(err, errs.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want ErrCancelled wrapping context.Canceled", err)
	}
}

// --- deterministic fault injection ---

func TestGenerateFaultsDeterministic(t *testing.T) {
	cfg := FaultConfig{MeanGap: 200, MeanLength: 20, OutageProb: 0.3, MinFactor: 0.2}
	a, err := GenerateFaults(99, 5000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateFaults(99, 5000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Episodes) == 0 {
		t.Fatal("seed 99 produced no episodes; pick different parameters")
	}
	if len(a.Episodes) != len(b.Episodes) {
		t.Fatalf("episode counts differ: %d vs %d", len(a.Episodes), len(b.Episodes))
	}
	for i := range a.Episodes {
		if a.Episodes[i] != b.Episodes[i] {
			t.Fatalf("episode %d differs: %+v vs %+v", i, a.Episodes[i], b.Episodes[i])
		}
	}
	c, err := GenerateFaults(100, 5000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := len(a.Episodes) == len(c.Episodes)
	if same {
		for i := range a.Episodes {
			if a.Episodes[i] != c.Episodes[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical schedules")
	}
}

func TestFaultedSimulationDeterministicAndLossy(t *testing.T) {
	tr := testTrace(t, 2000)
	m, err := NewMuxFromConfig(MuxConfig{Trace: tr, N: 3, MinLagFrames: 100, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := m.workloads(false)
	if err != nil {
		t.Fatal(err)
	}
	w := ws[0]
	cap := w.MeanRate() * 1.1
	buf := 100000.0

	faults, err := GenerateFaults(7, len(w.Bytes), FaultConfig{MeanGap: 300, MeanLength: 30, OutageProb: 0.5, MinFactor: 0.3})
	if err != nil {
		t.Fatal(err)
	}

	clean, err := Simulate(w, cap, buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Simulate(w, cap, buf, Options{Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Simulate(w, cap, buf, Options{Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Pl != r2.Pl || r1.PlWES != r2.PlWES || r1.LostBytes != r2.LostBytes {
		t.Errorf("faulted run not deterministic: (%v,%v) vs (%v,%v)", r1.Pl, r1.PlWES, r2.Pl, r2.PlWES)
	}
	if r1.Pl <= clean.Pl {
		t.Errorf("faults did not increase loss: clean %v, faulted %v", clean.Pl, r1.Pl)
	}
	if r1.PlWES < clean.PlWES {
		t.Errorf("faults decreased worst-second loss: clean %v, faulted %v", clean.PlWES, r1.PlWES)
	}

	// Cell-exact simulator must be deterministic under the same schedule
	// too.
	c1, err := SimulateCells(w, cap, buf, UniformSpacing, Options{Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := SimulateCells(w, cap, buf, UniformSpacing, Options{Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	if c1.Pl != c2.Pl || c1.PlWES != c2.PlWES {
		t.Errorf("faulted cell run not deterministic: (%v,%v) vs (%v,%v)", c1.Pl, c1.PlWES, c2.Pl, c2.PlWES)
	}
}

func TestFactorAtAndDrainBetween(t *testing.T) {
	fs := &FaultSchedule{Episodes: []FaultEpisode{
		{Start: 10, Length: 5, Factor: 0},
		{Start: 20, Length: 10, Factor: 0.5},
	}}
	if err := fs.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		i    int
		want float64
	}{{0, 1}, {9, 1}, {10, 0}, {14, 0}, {15, 1}, {19, 1}, {20, 0.5}, {29, 0.5}, {30, 1}}
	for _, c := range cases {
		if got := fs.FactorAt(c.i); got != c.want {
			t.Errorf("FactorAt(%d) = %v, want %v", c.i, got, c.want)
		}
	}
	if got := fs.DegradedIntervals(100); got != 15 {
		t.Errorf("DegradedIntervals = %d, want 15", got)
	}
	if got := fs.DegradedIntervals(25); got != 10 {
		t.Errorf("clipped DegradedIntervals = %d, want 10", got)
	}

	// drainBetween across an episode boundary: intervals of 1 s, nominal
	// drain 100 B/s. Span [9.5, 11.5) covers 0.5 s clean (interval 9),
	// then 1.0 s outage (10), then 0.5 s outage (11) — only the clean
	// half-second drains.
	got := fs.drainBetween(9.5, 11.5, 100, 1)
	if math.Abs(got-50) > 1e-9 {
		t.Errorf("drainBetween outage boundary = %v, want 50", got)
	}
	// Span [19.5, 21) = 0.5 s clean + 1.0 s at half rate.
	got = fs.drainBetween(19.5, 21, 100, 1)
	if math.Abs(got-100) > 1e-9 {
		t.Errorf("drainBetween degraded boundary = %v, want 100", got)
	}
	// Clean schedule and degenerate spans.
	var nilFS *FaultSchedule
	if got := nilFS.drainBetween(0, 2, 100, 1); got != 200 {
		t.Errorf("nil schedule drain = %v, want 200", got)
	}
	if got := fs.drainBetween(5, 5, 100, 1); got != 0 {
		t.Errorf("empty span drain = %v, want 0", got)
	}
}

func TestFaultValidation(t *testing.T) {
	bad := []*FaultSchedule{
		{Episodes: []FaultEpisode{{Start: -1, Length: 2, Factor: 0.5}}},
		{Episodes: []FaultEpisode{{Start: 0, Length: 0, Factor: 0.5}}},
		{Episodes: []FaultEpisode{{Start: 0, Length: 2, Factor: 1.5}}},
		{Episodes: []FaultEpisode{{Start: 0, Length: 5, Factor: 0.5}, {Start: 3, Length: 2, Factor: 0}}},
	}
	for i, fs := range bad {
		if err := fs.Validate(); err == nil {
			t.Errorf("bad schedule %d accepted", i)
		}
		if _, err := Simulate(Workload{Bytes: []float64{1, 2}, Interval: 1}, 100, 10, Options{Faults: fs}); err == nil {
			t.Errorf("Simulate accepted bad schedule %d", i)
		}
	}
	if _, err := GenerateFaults(1, 0, FaultConfig{MeanGap: 10, MeanLength: 2}); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := GenerateFaults(1, 100, FaultConfig{MeanGap: 0, MeanLength: 2}); err == nil {
		t.Error("zero mean gap accepted")
	}
}

// --- capacity search: resume, cancellation, unreachable targets ---

func TestMinCapacityTargetUnreachable(t *testing.T) {
	ctx := context.Background()
	loss := func(c float64) (float64, error) { return 0.5, nil } // lossy at any capacity
	_, err := MinCapacityCtx(ctx, loss, 1e6, 1e7, LossTarget{Pl: 1e-3})
	if !errors.Is(err, errs.ErrTargetUnreachable) {
		t.Fatalf("got %v, want ErrTargetUnreachable", err)
	}
}

func TestQCCurveResumeSkipsCompletedPoints(t *testing.T) {
	ctx := context.Background()
	tr := testTrace(t, 2000)
	m, err := NewMuxFromConfig(MuxConfig{Trace: tr, N: 2, MinLagFrames: 100, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	grid := []float64{0.002, 0.01, 0.05}
	cfg := QCCurveConfig{Mux: m, Target: LossTarget{Pl: 1e-3}, TmaxGrid: grid}
	full, err := QCCurveCtx(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Resume with the first two points marked done, the first one with a
	// sentinel value that a real search could never produce: if the value
	// survives, the point was genuinely skipped rather than recomputed.
	cfg.Resume = []QCPoint{{TmaxSec: 0.002, PerSourceBps: -1}, {TmaxSec: 0.01, PerSourceBps: full[1].PerSourceBps}}
	resumed, err := QCCurveCtx(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 3 {
		t.Fatalf("resumed curve has %d points", len(resumed))
	}
	if resumed[0].PerSourceBps != -1 {
		t.Errorf("resume point recomputed: %v", resumed[0].PerSourceBps)
	}
	if resumed[1].PerSourceBps != full[1].PerSourceBps {
		t.Errorf("resume point altered: %v vs %v", resumed[1].PerSourceBps, full[1].PerSourceBps)
	}
	if resumed[2].PerSourceBps != full[2].PerSourceBps {
		t.Errorf("fresh point differs from full run: %v vs %v", resumed[2].PerSourceBps, full[2].PerSourceBps)
	}
}

func TestQCCurveCtxReturnsPartialOnCancel(t *testing.T) {
	tr := testTrace(t, 2000)
	m, err := NewMuxFromConfig(MuxConfig{Trace: tr, N: 2, MinLagFrames: 100, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// All three points supplied via Resume still complete under a
	// cancelled context — no search work is needed.
	pts, err := QCCurveCtx(ctx, QCCurveConfig{
		Mux: m, Target: LossTarget{Pl: 1e-3},
		TmaxGrid: []float64{0.002, 0.01},
		Resume:   []QCPoint{{TmaxSec: 0.002, PerSourceBps: 5}, {TmaxSec: 0.01, PerSourceBps: 4}},
	})
	if err != nil || len(pts) != 2 {
		t.Fatalf("fully-resumed sweep under cancelled ctx: pts=%d err=%v", len(pts), err)
	}
	// With one fresh point required, the sweep stops there and returns
	// the resumed prefix.
	pts, err = QCCurveCtx(ctx, QCCurveConfig{
		Mux: m, Target: LossTarget{Pl: 1e-3},
		TmaxGrid: []float64{0.002, 0.01},
		Resume:   []QCPoint{{TmaxSec: 0.002, PerSourceBps: 5}},
	})
	if !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("got %v, want ErrCancelled", err)
	}
	if len(pts) != 1 || pts[0].PerSourceBps != 5 {
		t.Fatalf("partial points %v, want the one resumed point", pts)
	}
}

func TestSMGCtxCancelled(t *testing.T) {
	tr := testTrace(t, 2000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts, err := SMGCtx(ctx, SMGConfig{
		NewMux: func(n int) (Aggregator, error) {
			return NewMuxFromConfig(MuxConfig{Trace: tr, N: n, MinLagFrames: 100, Seed: 23})
		},
		Ns:      []int{1, 5},
		Target:  LossTarget{Pl: 1e-3},
		TmaxSec: 0.002,
	})
	if !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("got %v, want ErrCancelled", err)
	}
	if len(pts) != 0 {
		t.Fatalf("cancelled-before-start sweep returned %d points", len(pts))
	}
}
