package core

import (
	"context"
	"math"
	"testing"

	"vbr/internal/arma"
	"vbr/internal/backend"
	"vbr/internal/lrd"
	"vbr/internal/stats"
)

func fastOpts(seed uint64) GenOptions {
	opts := DefaultGenOptions()
	opts.Backend = backend.DaviesHarte
	opts.Seed = seed
	return opts
}

func TestGenerateWithARMAPreservesMarginal(t *testing.T) {
	ctx := context.Background()
	m := paperModel()
	srd := arma.Model{Phi: []float64{0.6}}
	frames, err := m.GenerateWithARMACtx(ctx, 50000, srd, fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	s, err := stats.Summarize(frames)
	if err != nil {
		t.Fatal(err)
	}
	// The marginal transform runs after restandardization, so the
	// moments must match the plain model's.
	if math.Abs(s.Mean-27791)/27791 > 0.05 {
		t.Errorf("mean %v", s.Mean)
	}
	for _, v := range frames {
		if v <= 0 {
			t.Fatal("bandwidth must be positive")
		}
	}
}

func TestGenerateWithARMABoostsShortRangeCorrelation(t *testing.T) {
	ctx := context.Background()
	m := paperModel()
	plain, err := m.GenerateCtx(ctx, 40000, fastOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	srd := arma.Model{Phi: []float64{0.85}}
	augmented, err := m.GenerateWithARMACtx(ctx, 40000, srd, fastOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	rPlain, err := stats.Autocorrelation(plain, 5)
	if err != nil {
		t.Fatal(err)
	}
	rAug, err := stats.Autocorrelation(augmented, 5)
	if err != nil {
		t.Fatal(err)
	}
	// The AR filter must raise the short-lag correlations materially.
	if rAug[1] < rPlain[1]+0.1 {
		t.Errorf("lag-1 acf: augmented %v vs plain %v; filter ineffective", rAug[1], rPlain[1])
	}
}

func TestGenerateWithARMAPreservesH(t *testing.T) {
	ctx := context.Background()
	// "The SRD structure is by default self-similar to the long-term
	// structure": an ARMA filter must not change H. Fit the
	// variance-time slope beyond the ARMA correlation length.
	m := paperModel()
	srd := arma.Model{Phi: []float64{0.8}}
	frames, err := m.GenerateWithARMACtx(ctx, 80000, srd, fastOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	vt, err := lrd.VarianceTime(frames, 30, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vt.H-0.8) > 0.12 {
		t.Errorf("H after ARMA filtering %v, want ≈ 0.8", vt.H)
	}
}

func TestGenerateWithARMAErrors(t *testing.T) {
	ctx := context.Background()
	m := paperModel()
	if _, err := m.GenerateWithARMACtx(ctx, 100, arma.Model{Phi: []float64{1.1}}, fastOpts(1)); err == nil {
		t.Error("non-stationary filter should fail")
	}
	bad := Model{}
	if _, err := bad.GenerateWithARMACtx(ctx, 100, arma.Model{}, fastOpts(1)); err == nil {
		t.Error("invalid model should fail")
	}
	if _, err := m.GenerateWithARMACtx(ctx, 0, arma.Model{}, fastOpts(1)); err == nil {
		t.Error("n=0 should fail")
	}
}

func TestGenerateMarkovModulated(t *testing.T) {
	ctx := context.Background()
	m := paperModel()
	chain, err := arma.SceneChain(240, 1)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := m.GenerateMarkovModulatedCtx(ctx, 50000, chain, 0.5, fastOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	s, err := stats.Summarize(frames)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Mean-27791)/27791 > 0.05 {
		t.Errorf("mean %v", s.Mean)
	}
	// Scene persistence: strong correlation at lags within a scene.
	r, err := stats.Autocorrelation(frames, 100)
	if err != nil {
		t.Fatal(err)
	}
	if r[50] < 0.2 {
		t.Errorf("lag-50 acf %v; modulation not visible", r[50])
	}
}

func TestGenerateMarkovModulatedErrors(t *testing.T) {
	ctx := context.Background()
	m := paperModel()
	chain, _ := arma.SceneChain(100, 1)
	if _, err := m.GenerateMarkovModulatedCtx(ctx, 100, nil, 0.5, fastOpts(1)); err == nil {
		t.Error("nil chain should fail")
	}
	if _, err := m.GenerateMarkovModulatedCtx(ctx, 100, chain, 1.0, fastOpts(1)); err == nil {
		t.Error("weight 1 should fail")
	}
	if _, err := m.GenerateMarkovModulatedCtx(ctx, 100, chain, -0.1, fastOpts(1)); err == nil {
		t.Error("negative weight should fail")
	}
	bad := Model{}
	if _, err := bad.GenerateMarkovModulatedCtx(ctx, 100, chain, 0.5, fastOpts(1)); err == nil {
		t.Error("invalid model should fail")
	}
}

func TestMarkovModulationZeroWeightMatchesPlain(t *testing.T) {
	ctx := context.Background()
	m := paperModel()
	chain, _ := arma.SceneChain(100, 1)
	plain, err := m.GenerateCtx(ctx, 5000, fastOpts(5))
	if err != nil {
		t.Fatal(err)
	}
	mod, err := m.GenerateMarkovModulatedCtx(ctx, 5000, chain, 0, fastOpts(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if math.Abs(plain[i]-mod[i]) > 1e-9*plain[i] {
			t.Fatalf("weight 0 differs from plain at %d: %v vs %v", i, plain[i], mod[i])
		}
	}
}
