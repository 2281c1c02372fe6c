package core

import (
	"context"
	"math"
	"testing"

	"vbr/internal/lrd"
	"vbr/internal/stats"
)

func TestGenerateTESMarginal(t *testing.T) {
	ctx := context.Background()
	m := paperModel()
	frames, err := m.GenerateTESCtx(ctx, 60000, 0.3, fastOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	s, err := stats.Summarize(frames)
	if err != nil {
		t.Fatal(err)
	}
	// The modulo-1 walk keeps U exactly uniform, so the marginal moments
	// match the hybrid's.
	gp, err := m.Marginal()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Mean-gp.Mean())/gp.Mean() > 0.03 {
		t.Errorf("TES mean %v, want %v", s.Mean, gp.Mean())
	}
	for _, v := range frames {
		if v <= 0 {
			t.Fatal("bandwidth must be positive")
		}
	}
}

func TestGenerateTESCorrelationTunable(t *testing.T) {
	ctx := context.Background()
	m := paperModel()
	strong, err := m.GenerateTESCtx(ctx, 40000, 0.1, fastOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	weak, err := m.GenerateTESCtx(ctx, 40000, 1.0, fastOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := stats.Autocorrelation(strong, 5)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := stats.Autocorrelation(weak, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rs[1] < 0.5 {
		t.Errorf("α=0.1 lag-1 acf %v; should be strongly correlated", rs[1])
	}
	if math.Abs(rw[1]) > 0.05 {
		t.Errorf("α=1 lag-1 acf %v; should be ≈ i.i.d.", rw[1])
	}
}

func TestGenerateTESIsSRD(t *testing.T) {
	ctx := context.Background()
	// TES has geometric correlations: the variance-time slope beyond its
	// correlation length must look like H ≈ 0.5, unlike the full model.
	m := paperModel()
	frames, err := m.GenerateTESCtx(ctx, 80000, 0.3, fastOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	vt, err := lrd.VarianceTime(frames, 100, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if vt.H > 0.65 {
		t.Errorf("TES variance-time H = %v; should be SRD (≈0.5)", vt.H)
	}
}

func TestGenerateTESValidation(t *testing.T) {
	ctx := context.Background()
	m := paperModel()
	if _, err := m.GenerateTESCtx(ctx, 0, 0.3, fastOpts(1)); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := m.GenerateTESCtx(ctx, 100, 0, fastOpts(1)); err == nil {
		t.Error("alpha=0 should fail")
	}
	if _, err := m.GenerateTESCtx(ctx, 100, 1.5, fastOpts(1)); err == nil {
		t.Error("alpha>1 should fail")
	}
	bad := Model{}
	if _, err := bad.GenerateTESCtx(ctx, 100, 0.3, fastOpts(1)); err == nil {
		t.Error("invalid model should fail")
	}
	opts := fastOpts(1)
	opts.TableSize = 1
	if _, err := m.GenerateTESCtx(ctx, 100, 0.3, opts); err == nil {
		t.Error("bad table should fail")
	}
}

func TestGenerateTESDeterminism(t *testing.T) {
	ctx := context.Background()
	m := paperModel()
	a, _ := m.GenerateTESCtx(ctx, 500, 0.3, fastOpts(7))
	b, _ := m.GenerateTESCtx(ctx, 500, 0.3, fastOpts(7))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce")
		}
	}
}
