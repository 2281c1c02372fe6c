package queue

import (
	"context"
	"errors"
	"math"
	"testing"

	"vbr/internal/source"
)

func zooPopulation(t *testing.T, spec string, seed uint64) []source.Source {
	t.Helper()
	specs, err := source.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	srcs, err := source.NewPopulation(specs, seed)
	if err != nil {
		t.Fatal(err)
	}
	return srcs
}

func TestSourceMuxValidation(t *testing.T) {
	if _, err := NewSourceMuxFromConfig(SourceMuxConfig{Frames: 100}); err == nil {
		t.Error("empty population accepted")
	}
	srcs := zooPopulation(t, "poisson:fps=24*2", 1)
	if _, err := NewSourceMuxFromConfig(SourceMuxConfig{Sources: srcs}); err == nil {
		t.Error("zero frames accepted")
	}
	if _, err := NewSourceMuxFromConfig(SourceMuxConfig{Sources: srcs, Frames: 100, Combos: -1}); err == nil {
		t.Error("negative combos accepted")
	}
	mixed := zooPopulation(t, "poisson:fps=24+onoff:fps=72", 1)
	if _, err := NewSourceMuxFromConfig(SourceMuxConfig{Sources: mixed, Frames: 100}); err == nil {
		t.Error("mismatched frame rates accepted")
	}

	m, err := NewSourceMuxFromConfig(SourceMuxConfig{Sources: srcs, Frames: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.NSources() != 2 {
		t.Errorf("NSources = %d, want 2", m.NSources())
	}
	if m.Combos() != 1 {
		t.Errorf("2-source default combos = %d, want 1", m.Combos())
	}
	if m.FrameRate() != 24 {
		t.Errorf("FrameRate = %v, want 24", m.FrameRate())
	}
	big, err := NewSourceMuxFromConfig(SourceMuxConfig{Sources: zooPopulation(t, "poisson:fps=24*3", 1), Frames: 100})
	if err != nil {
		t.Fatal(err)
	}
	if big.Combos() != 6 {
		t.Errorf("3-source default combos = %d, want 6", big.Combos())
	}
}

// envelope reads a zoo population's aggregate rate envelope off its
// realized workloads: the mean over replications of the aggregate mean
// rate, and the largest realized aggregate peak.
func envelope(t *testing.T, m *SourceMux) (meanBps, peakBps float64) {
	t.Helper()
	ws, err := m.Workloads(context.Background(), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		meanBps += w.MeanRate()
		peakBps = max(peakBps, w.PeakRate())
	}
	return meanBps / float64(len(ws)), peakBps
}

// TestSourceMuxDeterminism pins the zoo multiplexer's reproducibility:
// two muxes built from the same spec and seed must produce bitwise
// identical loss results, and a different seed must not.
func TestSourceMuxDeterminism(t *testing.T) {
	ctx := context.Background()
	build := func(seed uint64) *SourceMux {
		t.Helper()
		m, err := NewSourceMuxFromConfig(SourceMuxConfig{
			Sources: zooPopulation(t, "poisson:rate=2e6,fps=24*2+onoff:rate=1e6,peak=8e6,fps=24", seed),
			Frames:  2048,
			Seed:    seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1, m2, m3 := build(11), build(11), build(12)
	mean, peak := envelope(t, m1)
	if !(peak > mean) || !(mean > 0) {
		t.Fatalf("degenerate envelope mean=%v peak=%v", mean, peak)
	}
	capacity := (mean + peak) / 2
	r1, err := m1.AverageLossCtx(ctx, capacity, 20000, false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m2.AverageLossCtx(ctx, capacity, 20000, false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(r1.Pl) != math.Float64bits(r2.Pl) ||
		math.Float64bits(r1.TotalBytes) != math.Float64bits(r2.TotalBytes) {
		t.Errorf("same seed diverged: Pl %v vs %v, bytes %v vs %v", r1.Pl, r2.Pl, r1.TotalBytes, r2.TotalBytes)
	}
	r3, err := m3.AverageLossCtx(ctx, capacity, 20000, false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(r3.TotalBytes) == math.Float64bits(r1.TotalBytes) {
		t.Error("different seeds produced identical workloads")
	}
}

func TestSourceMuxRejectsSlices(t *testing.T) {
	m, err := NewSourceMuxFromConfig(SourceMuxConfig{
		Sources: zooPopulation(t, "poisson:fps=24*2", 1),
		Frames:  64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AverageLossCtx(context.Background(), 1e6, 1e4, true, Options{}); err == nil {
		t.Error("slice granularity accepted for zoo sources")
	}
}

func TestSourceMuxCancellation(t *testing.T) {
	m, err := NewSourceMuxFromConfig(SourceMuxConfig{
		Sources: zooPopulation(t, "poisson:fps=24*2", 1),
		Frames:  4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.AverageLossCtx(ctx, 1e6, 1e4, false, Options{}); err == nil || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled build err = %v, want context.Canceled", err)
	}
}

// TestQCCurveOverSourceMux runs the Fig. 14 sweep machinery unchanged
// over a heterogeneous zoo population through the Aggregator seam: the
// per-source allocation must be finite, above the per-source mean and
// non-increasing in the buffer delay.
func TestQCCurveOverSourceMux(t *testing.T) {
	ctx := context.Background()
	m, err := NewSourceMuxFromConfig(SourceMuxConfig{
		Sources: zooPopulation(t, "poisson:rate=2e6,fps=24*2+onoff:rate=1e6,peak=6e6,fps=24*2", uint64(1994)),
		Frames:  4096,
		Combos:  2,
		Seed:    uint64(1994),
	})
	if err != nil {
		t.Fatal(err)
	}
	points, err := QCCurveCtx(ctx, QCCurveConfig{
		Mux:      m,
		Target:   LossTarget{Pl: 1e-2},
		TmaxGrid: []float64{0.002, 0.032, 0.512},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points, want 3", len(points))
	}
	mean, _ := envelope(t, m)
	perSourceMean := mean / float64(m.NSources())
	for i, p := range points {
		if !(p.PerSourceBps > 0) || math.IsInf(p.PerSourceBps, 0) {
			t.Fatalf("point %d: bad allocation %v", i, p.PerSourceBps)
		}
		if p.PerSourceBps < perSourceMean*0.99 {
			t.Errorf("point %d: allocation %v below per-source mean %v", i, p.PerSourceBps, perSourceMean)
		}
		if i > 0 && p.PerSourceBps > points[i-1].PerSourceBps*1.0001 {
			t.Errorf("allocation increased with buffer: %v -> %v", points[i-1].PerSourceBps, p.PerSourceBps)
		}
	}
}
