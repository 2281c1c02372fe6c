package core

import (
	"context"
	"math"
	"testing"

	"vbr/internal/backend"
	"vbr/internal/stats"
	"vbr/internal/synth"
)

// paperModel returns the model with the paper's fitted parameters.
func paperModel() Model {
	return Model{MuGamma: 27791, SigmaGamma: 6254, TailSlope: 12, Hurst: 0.8}
}

func TestValidate(t *testing.T) {
	if err := paperModel().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Model{
		{MuGamma: 0, SigmaGamma: 1, TailSlope: 1, Hurst: 0.8},
		{MuGamma: 1, SigmaGamma: 0, TailSlope: 1, Hurst: 0.8},
		{MuGamma: 1, SigmaGamma: 1, TailSlope: 0, Hurst: 0.8},
		{MuGamma: 1, SigmaGamma: 1, TailSlope: 1, Hurst: 0},
		{MuGamma: 1, SigmaGamma: 1, TailSlope: 1, Hurst: 1},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("model %d should be invalid", i)
		}
	}
}

func TestGenerateFullModel(t *testing.T) {
	ctx := context.Background()
	m := paperModel()
	opts := DefaultGenOptions()
	opts.Backend = backend.DaviesHarte // fast path for the big series
	frames, err := m.GenerateCtx(ctx, 50000, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.VerifyRealization(frames)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Mean-rep.WantMean)/rep.WantMean > 0.05 {
		t.Errorf("mean %v, want %v", rep.Mean, rep.WantMean)
	}
	if math.Abs(rep.Std-rep.WantStd)/rep.WantStd > 0.15 {
		t.Errorf("std %v, want %v", rep.Std, rep.WantStd)
	}
	if math.Abs(rep.H-0.8) > 0.1 {
		t.Errorf("H %v, want 0.8", rep.H)
	}
	// All positive.
	for _, v := range frames {
		if v <= 0 {
			t.Fatal("generated bandwidth must be positive")
		}
	}
}

func TestGenerateHoskingMatchesPaperAlgorithm(t *testing.T) {
	ctx := context.Background()
	m := paperModel()
	opts := DefaultGenOptions()
	opts.Backend = backend.Hosking
	frames, err := m.GenerateCtx(ctx, 8000, opts)
	if err != nil {
		t.Fatal(err)
	}
	mean := stats.Mean(frames)
	if math.Abs(mean-27791)/27791 > 0.1 {
		t.Errorf("Hosking-path mean %v", mean)
	}
	// LRD check on the short series: lag-100 autocorrelation clearly
	// positive (exponential SRD would be ~0).
	r, err := stats.Autocorrelation(frames, 200)
	if err != nil {
		t.Fatal(err)
	}
	if r[100] < 0.05 {
		t.Errorf("lag-100 acf %v; Hosking output not LRD", r[100])
	}
}

func TestGenerateErrors(t *testing.T) {
	ctx := context.Background()
	m := paperModel()
	if _, err := m.GenerateCtx(ctx, 0, DefaultGenOptions()); err == nil {
		t.Error("n=0 should fail")
	}
	opts := DefaultGenOptions()
	opts.TableSize = 1
	if _, err := m.GenerateCtx(ctx, 100, opts); err == nil {
		t.Error("bad table size should fail")
	}
	opts = DefaultGenOptions()
	opts.Backend = backend.Backend(99)
	if _, err := m.GenerateCtx(ctx, 100, opts); err == nil {
		t.Error("unknown generator should fail")
	}
	bad := Model{}
	if _, err := bad.GenerateCtx(ctx, 100, DefaultGenOptions()); err == nil {
		t.Error("invalid model should fail")
	}
}

func TestGenerateGaussianVariant(t *testing.T) {
	ctx := context.Background()
	m := paperModel()
	opts := DefaultGenOptions()
	opts.Backend = backend.DaviesHarte
	frames, err := m.GenerateGaussianCtx(ctx, 50000, opts)
	if err != nil {
		t.Fatal(err)
	}
	mean := stats.Mean(frames)
	if math.Abs(mean-27791)/27791 > 0.06 {
		t.Errorf("gaussian variant mean %v", mean)
	}
	for _, v := range frames {
		if v < 0 {
			t.Fatal("clamped gaussian must be nonnegative")
		}
	}
	// Gaussian variant must lack the heavy upper tail of the full model:
	// its empirical max should be far below the hybrid's extreme quantile.
	maxv := 0.0
	for _, v := range frames {
		maxv = math.Max(maxv, v)
	}
	if maxv > 27791+8*6254 {
		t.Errorf("gaussian variant max %v suspiciously heavy", maxv)
	}
}

func TestGenerateIIDVariant(t *testing.T) {
	ctx := context.Background()
	m := paperModel()
	frames, err := m.GenerateIIDCtx(ctx, 50000, DefaultGenOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Right marginal...
	mean := stats.Mean(frames)
	if math.Abs(mean-27791)/27791 > 0.05 {
		t.Errorf("iid variant mean %v", mean)
	}
	// ...but no correlation.
	r, err := stats.Autocorrelation(frames, 10)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 10; k++ {
		if math.Abs(r[k]) > 0.05 {
			t.Errorf("iid variant acf lag %d = %v", k, r[k])
		}
	}
}

func TestVariantsShareLoad(t *testing.T) {
	ctx := context.Background()
	// Fig. 16 compares the three variants at equal offered load: their
	// means must agree within sampling error.
	m := paperModel()
	opts := DefaultGenOptions()
	opts.Backend = backend.DaviesHarte
	full, err := m.GenerateCtx(ctx, 30000, opts)
	if err != nil {
		t.Fatal(err)
	}
	gauss, err := m.GenerateGaussianCtx(ctx, 30000, opts)
	if err != nil {
		t.Fatal(err)
	}
	iid, err := m.GenerateIIDCtx(ctx, 30000, opts)
	if err != nil {
		t.Fatal(err)
	}
	mf, mg, mi := stats.Mean(full), stats.Mean(gauss), stats.Mean(iid)
	if math.Abs(mf-mg)/mf > 0.08 || math.Abs(mf-mi)/mf > 0.08 {
		t.Errorf("variant means diverge: full %v gauss %v iid %v", mf, mg, mi)
	}
}

func TestFitRecoversSynthTraceParameters(t *testing.T) {
	ctx := context.Background()
	// Fit the model to the synthetic empirical trace and check the
	// parameters come back near the generator's configuration — the §4.2
	// "realizations were tested and found to agree" loop.
	cfg := synth.DefaultConfig()
	cfg.Frames = 60000
	cfg.SlicesPerFrame = 0
	tr, err := synth.Generate(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultFitOptions()
	opts.AggM = 0
	m, err := FitCtx(ctx, tr.Frames, opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.MuGamma-27791)/27791 > 0.05 {
		t.Errorf("fitted μ_Γ %v", m.MuGamma)
	}
	if math.Abs(m.SigmaGamma-6254)/6254 > 0.25 {
		t.Errorf("fitted σ_Γ %v", m.SigmaGamma)
	}
	if m.TailSlope < 6 || m.TailSlope > 20 {
		t.Errorf("fitted m_T %v, configured 12", m.TailSlope)
	}
	if m.Hurst < 0.6 || m.Hurst > 0.98 {
		t.Errorf("fitted H %v, configured 0.8", m.Hurst)
	}
}

func TestFitErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := FitCtx(ctx, make([]float64, 10), DefaultFitOptions()); err == nil {
		t.Error("short series should fail")
	}
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = 100 + float64(i%7)
	}
	opts := DefaultFitOptions()
	opts.TailFrac = 0
	if _, err := FitCtx(ctx, xs, opts); err == nil {
		t.Error("bad tail fraction should fail")
	}
	opts = DefaultFitOptions()
	opts.AggM = -1
	if _, err := FitCtx(ctx, xs, opts); err == nil {
		t.Error("bad aggM should fail")
	}
}

func TestRoundTripFitGenerate(t *testing.T) {
	ctx := context.Background()
	// Generate from known parameters, fit, and compare: the model's own
	// consistency loop.
	truth := paperModel()
	opts := DefaultGenOptions()
	opts.Backend = backend.DaviesHarte
	opts.Seed = 77
	frames, err := truth.GenerateCtx(ctx, 60000, opts)
	if err != nil {
		t.Fatal(err)
	}
	fitOpts := DefaultFitOptions()
	fitOpts.AggM = 0
	got, err := FitCtx(ctx, frames, fitOpts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.MuGamma-truth.MuGamma)/truth.MuGamma > 0.05 {
		t.Errorf("μ_Γ %v, want %v", got.MuGamma, truth.MuGamma)
	}
	if math.Abs(got.Hurst-truth.Hurst) > 0.12 {
		t.Errorf("H %v, want %v", got.Hurst, truth.Hurst)
	}
	if got.TailSlope < truth.TailSlope*0.5 || got.TailSlope > truth.TailSlope*2 {
		t.Errorf("m_T %v, want ≈ %v", got.TailSlope, truth.TailSlope)
	}
}

func TestGenerateTrace(t *testing.T) {
	ctx := context.Background()
	m := paperModel()
	opts := DefaultGenOptions()
	opts.Backend = backend.DaviesHarte
	tr, err := m.GenerateTraceCtx(ctx, 2000, 24, 30, 0.3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tr.Slices) != 2000*30 {
		t.Fatalf("slices %d", len(tr.Slices))
	}
	// No slices requested.
	tr2, err := m.GenerateTraceCtx(ctx, 100, 24, 0, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Slices != nil {
		t.Error("slices should be absent")
	}
}

func TestDeterministicBySeed(t *testing.T) {
	ctx := context.Background()
	m := paperModel()
	opts := DefaultGenOptions()
	opts.Backend = backend.DaviesHarte
	a, _ := m.GenerateCtx(ctx, 500, opts)
	b, _ := m.GenerateCtx(ctx, 500, opts)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce")
		}
	}
	opts.Seed = 2
	c, _ := m.GenerateCtx(ctx, 500, opts)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seed should differ")
	}
}

func TestMarginalAndEffectiveMoments(t *testing.T) {
	m := paperModel()
	mu, sd, err := m.effectiveMoments()
	if err != nil {
		t.Fatal(err)
	}
	if mu < 27791*0.95 || mu > 27791*1.1 {
		t.Errorf("effective mean %v", mu)
	}
	if sd <= 0 {
		t.Errorf("effective sd %v", sd)
	}
	// Infinite-variance tail falls back to σ_Γ.
	heavy := Model{MuGamma: 27791, SigmaGamma: 6254, TailSlope: 1.5, Hurst: 0.8}
	_, sd2, err := heavy.effectiveMoments()
	if err != nil {
		t.Fatal(err)
	}
	if sd2 != 6254 {
		t.Errorf("heavy-tail fallback sd %v", sd2)
	}
}
