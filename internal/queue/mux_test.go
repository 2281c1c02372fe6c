package queue

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"vbr/internal/synth"
	"vbr/internal/trace"
)

// testTrace builds a small synthetic trace with slice data for mux tests.
func testTrace(t testing.TB, frames int) *trace.Trace {
	ctx := context.Background()
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Frames = frames
	cfg.SlicesPerFrame = 6
	cfg.MeanSceneFrames = 48
	tr, err := synth.Generate(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewMuxValidation(t *testing.T) {
	tr := testTrace(t, 3000)
	if _, err := NewMuxFromConfig(MuxConfig{Trace: nil, N: 1, MinLagFrames: 0, Seed: 1}); err == nil {
		t.Error("nil trace should fail")
	}
	if _, err := NewMuxFromConfig(MuxConfig{Trace: tr, N: 0, MinLagFrames: 0, Seed: 1}); err == nil {
		t.Error("zero sources should fail")
	}
	if _, err := NewMuxFromConfig(MuxConfig{Trace: tr, N: 2, MinLagFrames: -1, Seed: 1}); err == nil {
		t.Error("negative lag should fail")
	}
	if _, err := NewMuxFromConfig(MuxConfig{Trace: tr, N: 5, MinLagFrames: 1000, Seed: 1}); err == nil {
		t.Error("impossible lag packing should fail")
	}
	if _, err := NewMuxFromConfig(MuxConfig{Trace: tr, N: 5, MinLagFrames: 100, Seed: 1}); err != nil {
		t.Errorf("valid mux rejected: %v", err)
	}
}

func TestLagsRespectMinDistance(t *testing.T) {
	tr := testTrace(t, 3000)
	m, err := NewMuxFromConfig(MuxConfig{Trace: tr, N: 5, MinLagFrames: 200, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	n := len(tr.Frames)
	for trial := 0; trial < 20; trial++ {
		lags := m.Lags(rng)
		if len(lags) != 5 {
			t.Fatalf("got %d lags", len(lags))
		}
		if lags[0] != 0 {
			t.Errorf("first lag %d, want 0", lags[0])
		}
		for i := 0; i < len(lags); i++ {
			for j := i + 1; j < len(lags); j++ {
				d := lags[i] - lags[j]
				if d < 0 {
					d = -d
				}
				if d > n-d {
					d = n - d
				}
				if d < 200 {
					t.Fatalf("lags %d and %d too close: %d", lags[i], lags[j], d)
				}
			}
		}
	}
}

func TestFrameWorkloadConservesBytes(t *testing.T) {
	ctx := context.Background()
	tr := testTrace(t, 2000)
	m, err := NewMuxFromConfig(MuxConfig{Trace: tr, N: 3, MinLagFrames: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(9, 9))
	lags := m.Lags(rng)
	w, err := m.FrameWorkload(ctx, lags)
	if err != nil {
		t.Fatal(err)
	}
	// Wraparound means each source contributes the full trace total.
	var single float64
	for _, v := range tr.Frames {
		single += v
	}
	if math.Abs(w.TotalBytes()-3*single) > 1e-6*single {
		t.Errorf("aggregate total %v, want %v", w.TotalBytes(), 3*single)
	}
	if math.Abs(w.Interval-1.0/24) > 1e-12 {
		t.Errorf("interval %v", w.Interval)
	}
	if _, err := m.FrameWorkload(ctx, []int{1}); err == nil {
		t.Error("wrong lag count should fail")
	}
}

func TestSliceWorkload(t *testing.T) {
	ctx := context.Background()
	tr := testTrace(t, 2000)
	m, err := NewMuxFromConfig(MuxConfig{Trace: tr, N: 2, MinLagFrames: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(11, 11))
	lags := m.Lags(rng)
	w, err := m.SliceWorkload(ctx, lags)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Bytes) != len(tr.Slices) {
		t.Fatalf("len %d", len(w.Bytes))
	}
	if math.Abs(w.Interval-1.0/(24*6)) > 1e-12 {
		t.Errorf("interval %v", w.Interval)
	}
	// Slice aggregate equals frame aggregate in total.
	fw, _ := m.FrameWorkload(ctx, lags)
	if math.Abs(w.TotalBytes()-fw.TotalBytes()) > 1e-6*fw.TotalBytes() {
		t.Errorf("slice total %v vs frame total %v", w.TotalBytes(), fw.TotalBytes())
	}
	// Trace without slice data.
	noSlices := &trace.Trace{Frames: tr.Frames, FrameRate: 24}
	m2, _ := NewMuxFromConfig(MuxConfig{Trace: noSlices, N: 2, MinLagFrames: 100, Seed: 7})
	if _, err := m2.SliceWorkload(ctx, lags); err == nil {
		t.Error("missing slices should fail")
	}
}

func TestCombos(t *testing.T) {
	tr := testTrace(t, 2000)
	for _, c := range []struct{ n, want int }{{1, 1}, {2, 1}, {3, 6}, {20, 6}} {
		m, err := NewMuxFromConfig(MuxConfig{Trace: tr, N: c.n, MinLagFrames: 50, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Combos(); got != c.want {
			t.Errorf("N=%d: combos %d, want %d", c.n, got, c.want)
		}
	}
}

func TestAverageLossSmoke(t *testing.T) {
	ctx := context.Background()
	tr := testTrace(t, 2000)
	m, err := NewMuxFromConfig(MuxConfig{Trace: tr, N: 3, MinLagFrames: 100, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	mean := tr.MeanRate() * 3
	r, err := m.AverageLossCtx(ctx, mean*1.02, 50000, true, Options{WindowIntervals: 600})
	if err != nil {
		t.Fatal(err)
	}
	if r.Pl < 0 || r.Pl > 1 {
		t.Errorf("Pl %v out of range", r.Pl)
	}
	if len(r.WindowLoss) == 0 {
		t.Error("window series missing")
	}
	// Higher capacity must not lose more.
	r2, err := m.AverageLossCtx(ctx, mean*1.5, 50000, true, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Pl > r.Pl+1e-12 {
		t.Errorf("loss increased with capacity: %v → %v", r.Pl, r2.Pl)
	}
}

func TestStatisticalMultiplexingGainAppears(t *testing.T) {
	ctx := context.Background()
	// The paper's central result: per-source capacity needed at a loss
	// target falls as N grows.
	tr := testTrace(t, 4000)
	target := LossTarget{Pl: 1e-3}
	var prev float64 = math.Inf(1)
	for _, n := range []int{1, 4, 8} {
		m, err := NewMuxFromConfig(MuxConfig{Trace: tr, N: n, MinLagFrames: 300, Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		mean := tr.MeanRate() * float64(n)
		peak := tr.PeakRate() * float64(n) * 1.05
		lossAt := func(c float64) (float64, error) {
			q := 0.01 * c / 8 // T_max = 10 ms
			r, err := m.AverageLossCtx(ctx, c, q, false, Options{})
			if err != nil {
				return 0, err
			}
			return r.Pl, nil
		}
		c, err := MinCapacityCtx(ctx, lossAt, mean*0.6, peak, target)
		if err != nil {
			t.Fatal(err)
		}
		perSource := c / float64(n)
		if perSource > prev*1.02 {
			t.Errorf("N=%d: per-source %v not below N-1 level %v", n, perSource, prev)
		}
		prev = perSource
		// Sanity: always between mean and peak.
		if perSource < tr.MeanRate()*0.95 || perSource > tr.PeakRate()*1.1 {
			t.Errorf("N=%d: per-source %v outside [mean, peak]", n, perSource)
		}
	}
}

func TestQCCurveShape(t *testing.T) {
	ctx := context.Background()
	tr := testTrace(t, 3000)
	m, err := NewMuxFromConfig(MuxConfig{Trace: tr, N: 2, MinLagFrames: 300, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	points, err := QCCurveCtx(ctx, QCCurveConfig{
		Mux:      m,
		Target:   LossTarget{Pl: 1e-3},
		TmaxGrid: []float64{0.001, 0.004, 0.016, 0.064, 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 {
		t.Fatalf("points %d", len(points))
	}
	// Capacity must be non-increasing in buffer delay.
	for i := 1; i < len(points); i++ {
		if points[i].PerSourceBps > points[i-1].PerSourceBps*1.02 {
			t.Errorf("Q-C curve not decreasing at %v", points[i].TmaxSec)
		}
	}
	if _, err := QCCurveCtx(ctx, QCCurveConfig{Mux: m}); err == nil {
		t.Error("empty grid should fail")
	}
	if _, err := QCCurveCtx(ctx, QCCurveConfig{TmaxGrid: []float64{1}}); err == nil {
		t.Error("nil mux should fail")
	}
}

func TestSMGAndRealizedGain(t *testing.T) {
	ctx := context.Background()
	tr := testTrace(t, 3000)
	points, err := SMGCtx(ctx, SMGConfig{
		NewMux: func(n int) (Aggregator, error) {
			return NewMuxFromConfig(MuxConfig{Trace: tr, N: n, MinLagFrames: 300, Seed: 23})
		},
		Ns:      []int{1, 5},
		Target:  LossTarget{Pl: 1e-3},
		TmaxSec: 0.002,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points %d", len(points))
	}
	if points[1].PerSourceBps >= points[0].PerSourceBps {
		t.Errorf("no multiplexing gain: N=1 %v, N=5 %v", points[0].PerSourceBps, points[1].PerSourceBps)
	}
	gain, err := RealizedGain(points[1].PerSourceBps, tr.PeakRate(), tr.MeanRate())
	if err != nil {
		t.Fatal(err)
	}
	// The paper reports 72% at N=5; accept a broad band for the small
	// test trace.
	if gain < 0.2 || gain > 1.05 {
		t.Errorf("realized gain %v implausible", gain)
	}
	if _, err := SMGCtx(ctx, SMGConfig{Ns: []int{1}}); err == nil {
		t.Error("nil factory should fail")
	}
}
