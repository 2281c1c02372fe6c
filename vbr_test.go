package vbr

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"
)

// TestPublicAPIEndToEnd exercises the complete documented workflow
// through the facade: movie generation → summary → fit → generate →
// Hurst estimation → multiplexed queueing → capacity planning.
func TestPublicAPIEndToEnd(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultMovieConfig()
	cfg.Frames = 12000
	cfg.MeanSceneFrames = 96
	tr, err := GenerateMovie(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}

	s, err := Summarize(tr.Frames)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Mean-27791)/27791 > 0.1 {
		t.Errorf("mean %v", s.Mean)
	}

	model, err := FitCtx(ctx, tr.Frames, DefaultFitOptions())
	if err != nil {
		t.Fatal(err)
	}
	if model.Hurst <= 0.5 || model.Hurst >= 1 {
		t.Errorf("fitted H %v", model.Hurst)
	}

	opts := DefaultGenOptions()
	opts.Backend = BackendDaviesHarte
	frames, err := model.GenerateCtx(ctx, 8000, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 8000 {
		t.Fatalf("generated %d frames", len(frames))
	}

	est, err := EstimateHurst(frames, 50)
	if err != nil {
		t.Fatal(err)
	}
	if est.Median() < 0.5 {
		t.Errorf("generated traffic H %v; LRD lost", est.Median())
	}

	mux, err := NewMuxFromConfig(MuxConfig{Trace: tr, N: 3, MinLagFrames: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	capacity := tr.MeanRate() * 3 * 1.2
	r, err := mux.AverageLossCtx(ctx, capacity, 0.002*capacity/8, false, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Pl < 0 || r.Pl > 1 {
		t.Errorf("loss %v", r.Pl)
	}

	points, err := QCCurveCtx(ctx, QCCurveConfig{
		Mux:      mux,
		Target:   LossTarget{Pl: 1e-3},
		TmaxGrid: []float64{0.001, 0.008, 0.064},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points %d", len(points))
	}
	if _, err := Knee(points); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPITraceIO(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultMovieConfig()
	cfg.Frames = 500
	cfg.SlicesPerFrame = 4
	tr, err := GenerateMovie(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := tr.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceBinary(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Frames) != 500 || len(got.Slices) != 2000 {
		t.Fatalf("round trip shape: %d frames, %d slices", len(got.Frames), len(got.Slices))
	}

	var csv bytes.Buffer
	if err := tr.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	got2, err := ReadTraceCSV(&csv, 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2.Frames) != 500 {
		t.Fatalf("CSV round trip: %d frames", len(got2.Frames))
	}
}

func TestPublicAPIMarginal(t *testing.T) {
	gp, err := NewGammaParetoFromParams(GammaParetoParams{MuGamma: 27791, SigmaGamma: 6254, TailSlope: 12})
	if err != nil {
		t.Fatal(err)
	}
	// Quantile/CDF consistency through the facade.
	for _, p := range []float64{0.1, 0.5, 0.9, 0.999} {
		x := gp.Quantile(p)
		if math.Abs(gp.CDF(x)-p) > 1e-6 {
			t.Errorf("p=%v: CDF(Quantile)=%v", p, gp.CDF(x))
		}
	}
	var d Distribution = gp
	if d.Name() != "gamma/pareto" {
		t.Errorf("name %q", d.Name())
	}
}

func TestPublicAPISimulate(t *testing.T) {
	w := Workload{Bytes: []float64{1000, 1000, 1000, 1000}, Interval: 0.01}
	r, err := Simulate(w, 400_000, 0, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Pl-0.5) > 1e-9 {
		t.Errorf("Pl %v, want 0.5", r.Pl)
	}
	if _, err := RealizedGain(5e6, 14e6, 5.3e6); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIStream(t *testing.T) {
	ctx := context.Background()
	model := Model{MuGamma: 27791, SigmaGamma: 6254, TailSlope: 12, Hurst: 0.8}
	s, err := OpenStreamCtx(ctx, StreamConfig{Model: model, N: 2000, Seed: 7, Backend: BackendHosking})
	if err != nil {
		t.Fatal(err)
	}
	var src BlockSource = s
	frames, err := CollectStream(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2000 {
		t.Fatalf("collected %d frames", len(frames))
	}
	for i, f := range frames {
		if !(f > 0) || math.IsInf(f, 0) {
			t.Fatalf("frame %d = %v, want positive finite bytes", i, f)
		}
	}
	p := s.Probe()
	if p.N != 2000 || p.Mean <= 0 || p.Std <= 0 {
		t.Errorf("probe %+v, want 2000 frames with positive moments", p)
	}
}

// TestPublicAPIBackend pins the unified backend surface: the exported
// constants round-trip through ParseBackend/String, unknown names
// match ErrUnknownBackend, and every backend drives GenerateCtx through
// the facade.
func TestPublicAPIBackend(t *testing.T) {
	ctx := context.Background()
	for _, b := range []Backend{BackendHosking, BackendDaviesHarte, BackendPaxson, BackendAuto} {
		got, err := ParseBackend(b.String())
		if err != nil {
			t.Fatalf("ParseBackend(%q): %v", b.String(), err)
		}
		if got != b {
			t.Errorf("ParseBackend(%q) = %v, want %v", b.String(), got, b)
		}
	}
	if _, err := ParseBackend("fourier"); !errors.Is(err, ErrUnknownBackend) {
		t.Errorf("ParseBackend(fourier) = %v, want ErrUnknownBackend", err)
	}

	model := Model{MuGamma: 27791, SigmaGamma: 6254, TailSlope: 12, Hurst: 0.8}
	for _, b := range []Backend{BackendHosking, BackendDaviesHarte, BackendPaxson, BackendAuto} {
		opts := DefaultGenOptions()
		opts.Backend = b
		opts.Seed = 4
		frames, err := model.GenerateCtx(ctx, 1024, opts)
		if err != nil {
			t.Fatalf("Generate with %v: %v", b, err)
		}
		if len(frames) != 1024 {
			t.Fatalf("backend %v: generated %d frames", b, len(frames))
		}
	}
}

// TestPublicAPIOnlineMAVARSmallTau: a maxTau below 1 still tracks
// octave 1, so MaxTau, Add and Estimate all work on it.
func TestPublicAPIOnlineMAVARSmallTau(t *testing.T) {
	for _, maxTau := range []int{0, -3} {
		o := NewOnlineMAVAR(maxTau)
		if got := o.MaxTau(); got != 1 {
			t.Errorf("NewOnlineMAVAR(%d).MaxTau() = %d, want 1", maxTau, got)
		}
		for i := range 1000 {
			o.Add(float64(i % 7))
		}
		if h, octaves := o.Estimate(); octaves > 1 {
			t.Errorf("NewOnlineMAVAR(%d).Estimate() = %v over %d octaves, want at most 1", maxTau, h, octaves)
		}
	}
}
