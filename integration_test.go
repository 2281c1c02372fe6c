package vbr

import (
	"context"
	"math"
	"testing"

	"vbr/internal/experiments"
)

// TestPaperScaleStatistics regenerates the full 171,000-frame trace and
// validates the statistical reproduction (Tables 1–3, the marginal fits
// and the LRD signatures) at the paper's own scale. The queueing figures
// are exercised at quick scale by the experiments package tests and at
// paper scale by cmd/vbrexperiments; they are excluded here to keep
// `go test ./...` wall-clock reasonable (~4 s for this test).
func TestPaperScaleStatistics(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale regeneration skipped in -short mode")
	}
	ctx := context.Background()
	suite, err := experiments.NewSuite(ctx, experiments.PaperScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Trace.Frames) != 171000 {
		t.Fatalf("frames %d", len(suite.Trace.Frames))
	}

	// Table 1: headline generation parameters.
	t1, err := suite.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(t1.Duration/3600-2) > 0.05 {
		t.Errorf("duration %v h, want ≈ 2", t1.Duration/3600)
	}
	if math.Abs(t1.AvgBandwidthMbs-5.34) > 0.15 {
		t.Errorf("avg bandwidth %v Mb/s, paper 5.34", t1.AvgBandwidthMbs)
	}
	if math.Abs(t1.CompressionRatio-8.70) > 0.3 {
		t.Errorf("compression ratio %v, paper 8.70", t1.CompressionRatio)
	}

	// Table 2: frame and slice statistics within tight bands.
	t2, err := suite.Table2()
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name, unit string
		got, want  float64
		tol        float64 // relative
	}{
		{"frame mean", "bytes", t2.Frame.Mean, 27791, 0.02},
		{"frame std", "bytes", t2.Frame.Std, 6254, 0.05},
		{"frame CoV", "", t2.Frame.CoV, 0.23, 0.10},
		{"frame peak/mean", "", t2.Frame.PeakMean, 2.82, 0.20},
		{"frame min", "bytes", t2.Frame.Min, 8622, 0.15},
		{"slice mean", "bytes", t2.Slice.Mean, 926.4, 0.02},
		{"slice peak/mean", "", t2.Slice.PeakMean, 3.96, 0.20},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want)/c.want > c.tol {
			t.Errorf("%s = %v, paper %v (tol %v)", c.name, c.got, c.want, c.tol)
		}
	}

	// Table 3: every estimator lands in the LRD band around the paper's
	// 0.78–0.83 range.
	t3, err := suite.Table3()
	if err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]float64{
		"variance-time":  t3.Estimates.VarianceTime,
		"R/S":            t3.Estimates.RS,
		"R/S aggregated": t3.Estimates.RSAggregated,
		"Whittle":        t3.Estimates.Whittle,
	} {
		if h < 0.6 || h > 0.99 {
			t.Errorf("%s H = %v outside the reproduction band", name, h)
		}
	}
	// MAVAR reads the scene-process crossover on this trace, not the
	// LRD asymptote: scenes make consecutive frames nearly equal
	// (lag-1 autocorrelation ≈ 0.94), which suppresses the small-τ
	// modified Allan variance that the inverse-variance-weighted fit
	// emphasizes, so the raw slope sits well above the LRD band. The
	// estimator itself is validated against known-H fARIMA(0,d,0) noise
	// by the committed calibration battery (internal/lrd/calibration_test.go)
	// and against the model's generator output by the stream tests;
	// here we pin the documented crossover reading so a change in the
	// synthetic trace or the fit convention is caught deliberately.
	if m := t3.Estimates.MAVAR; math.IsNaN(m) || m < 1.0 || m > 1.3 {
		t.Errorf("MAVAR crossover H = %v, expected the documented 1.0–1.3 scene-process reading", m)
	}
	// The calibrated bars must cover all five primary estimators, each
	// with a finite bias-corrected Ĥ and error half-width on a trace
	// well inside the battery grid.
	if len(t3.Estimates.Bars) != 5 {
		t.Fatalf("Table 3 bars = %d, want 5", len(t3.Estimates.Bars))
	}
	for _, bar := range t3.Estimates.Bars {
		if math.IsNaN(bar.H) || !(bar.CI95 > 0) {
			t.Errorf("calibrated %s bar = %+v, want finite Ĥ ± CI95", bar.Estimator, bar)
		}
	}

	// Marginal model: Fig. 4 ordering and Fig. 6 fit quality.
	f4, err := suite.Fig4Ctx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !(f4.TailErr["gamma/pareto"] < f4.TailErr["gamma"] &&
		f4.TailErr["gamma/pareto"] < f4.TailErr["lognormal"]) {
		t.Errorf("Fig 4 ordering violated: %v", f4.TailErr)
	}
	if f4.ParetoSlope < 8 || f4.ParetoSlope > 18 {
		t.Errorf("fitted m_T %v, configured 12", f4.ParetoSlope)
	}
	f6, err := suite.Fig6Ctx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if f6.KS > 0.01 {
		t.Errorf("Fig 6 KS %v at paper scale", f6.KS)
	}

	// Fig. 9: the i.i.d. CI failure must be stark at full length.
	f9, err := suite.Fig9Ctx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if f9.IIDMisses < (len(f9.Points)-1)*2/3 {
		t.Errorf("iid CIs missed only %d of %d prefixes", f9.IIDMisses, len(f9.Points)-1)
	}

	// Model fit on the full trace brackets the paper's H = 0.8 ± 0.088.
	model, err := suite.Model(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if model.Hurst < 0.7 || model.Hurst > 0.95 {
		t.Errorf("fitted H %v outside 0.8 ± 0.15", model.Hurst)
	}
	if math.Abs(model.MuGamma-27791)/27791 > 0.02 {
		t.Errorf("fitted μ_Γ %v", model.MuGamma)
	}
}
