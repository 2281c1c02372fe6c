package lrd

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"vbr/internal/fgn"
)

// testSeries caches test series so the expensive generators run once.
var seriesCache = map[float64][]float64{}

func testSeries(t testing.TB, h float64, n int) []float64 {
	ctx := context.Background()
	t.Helper()
	if s, ok := seriesCache[h]; ok && len(s) >= n {
		return s[:n]
	}
	rng := rand.New(rand.NewPCG(uint64(h*1e6), 99))
	s, err := fgn.DaviesHarteCtx(ctx, n, h, rng)
	if err != nil {
		t.Fatal(err)
	}
	seriesCache[h] = s
	return s
}

func whiteNoise(n int, seed uint64) []float64 {
	rng := rand.New(rand.NewPCG(seed, 1))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	return xs
}

func TestVarianceTimeRecoversH(t *testing.T) {
	for _, h := range []float64{0.6, 0.8, 0.9} {
		xs := testSeries(t, h, 100000)
		res, err := VarianceTime(xs, 1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.H-h) > 0.08 {
			t.Errorf("H=%v: variance-time estimate %v", h, res.H)
		}
		if len(res.Points) < 10 {
			t.Errorf("too few plot points: %d", len(res.Points))
		}
	}
}

func TestVarianceTimeWhiteNoise(t *testing.T) {
	xs := whiteNoise(100000, 7)
	res, err := VarianceTime(xs, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// i.i.d. data: β = 1, H = 0.5.
	if math.Abs(res.Beta-1) > 0.1 {
		t.Errorf("white noise β = %v, want 1", res.Beta)
	}
	if math.Abs(res.H-0.5) > 0.05 {
		t.Errorf("white noise H = %v, want 0.5", res.H)
	}
}

func TestVarianceTimeErrors(t *testing.T) {
	if _, err := VarianceTime(make([]float64, 50), 1, 0, 0); err == nil {
		t.Error("short series should fail")
	}
	if _, err := VarianceTime(make([]float64, 1000), 1, 0, 0); err == nil {
		t.Error("constant series should fail")
	}
}

func TestRSRecoversH(t *testing.T) {
	for _, h := range []float64{0.6, 0.8} {
		xs := testSeries(t, h, 100000)
		res, err := RS(xs, 16, 25, 12, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		// R/S has known small-sample transient bias toward 0.5-0.6 for
		// short lags; allow a wider band but require clear separation
		// from 0.5 for persistent series.
		if math.Abs(res.H-h) > 0.12 {
			t.Errorf("H=%v: R/S estimate %v", h, res.H)
		}
		if len(res.Points) == 0 {
			t.Error("no pox points")
		}
	}
}

func TestRSWhiteNoiseNearHalf(t *testing.T) {
	xs := whiteNoise(100000, 13)
	res, err := RS(xs, 32, 25, 12, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Small-sample R/S is biased slightly above 0.5 (Feller transient).
	if res.H < 0.45 || res.H > 0.65 {
		t.Errorf("white noise R/S H = %v", res.H)
	}
}

func TestRSStatisticHandCase(t *testing.T) {
	// xs = {1, 2, 3}: mean 2, W = {-1, -1, 0}; R = max(0,W)-min(0,W) = 1.
	// S = sqrt(2/3).
	rs, ok := rsStatistic([]float64{1, 2, 3})
	if !ok {
		t.Fatal("statistic undefined")
	}
	want := 1.0 / math.Sqrt(2.0/3.0)
	if math.Abs(rs-want) > 1e-12 {
		t.Errorf("R/S = %v, want %v", rs, want)
	}
	if _, ok := rsStatistic([]float64{5}); ok {
		t.Error("single point should be undefined")
	}
	if _, ok := rsStatistic([]float64{3, 3, 3}); ok {
		t.Error("constant block should be undefined (S=0)")
	}
}

func TestRSAggregatedCloseToPlain(t *testing.T) {
	xs := testSeries(t, 0.8, 100000)
	plain, err := RS(xs, 16, 25, 12, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := RSAggregated(xs, 10, 0, 20, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Self-similarity: aggregation must not change H much.
	if math.Abs(plain.H-agg.H) > 0.15 {
		t.Errorf("plain %v vs aggregated %v", plain.H, agg.H)
	}
}

func TestRSSweepRobust(t *testing.T) {
	xs := testSeries(t, 0.8, 60000)
	lo, hi, err := RSSweep(xs, []int{15, 30}, []int{8, 16})
	if err != nil {
		t.Fatal(err)
	}
	if lo > hi {
		t.Errorf("sweep inverted: %v > %v", lo, hi)
	}
	// Robustness claim of Table 3: spread should be small.
	if hi-lo > 0.15 {
		t.Errorf("sweep spread too wide: [%v, %v]", lo, hi)
	}
	if _, _, err := RSSweep(xs, nil, []int{8}); err == nil {
		t.Error("empty sweep should fail")
	}
}

func TestPeriodogramHRecovers(t *testing.T) {
	xs := testSeries(t, 0.8, 100000)
	res, err := PeriodogramH(xs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.H-0.8) > 0.1 {
		t.Errorf("periodogram H = %v", res.H)
	}
	if res.Used < 5 {
		t.Errorf("too few ordinates used: %d", res.Used)
	}
	if _, err := PeriodogramH(xs, 0); err == nil {
		t.Error("lowFrac 0 should fail")
	}
	if _, err := PeriodogramH(make([]float64, 8), 0.5); err == nil {
		t.Error("short series should fail")
	}
}

func TestPeriodogramHWhiteNoise(t *testing.T) {
	xs := whiteNoise(100000, 23)
	res, err := PeriodogramH(xs, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.H-0.5) > 0.08 {
		t.Errorf("white noise periodogram H = %v", res.H)
	}
}

func TestWhittleRecoversH(t *testing.T) {
	ctx := context.Background()
	// Whittle on fARIMA data (its own model) should be tight.
	rng := rand.New(rand.NewPCG(31, 32))
	xs, err := fgn.HoskingCtx(ctx, 20000, 0.8, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Whittle(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.H-0.8) > 3*res.StdErr+0.02 {
		t.Errorf("Whittle H = %v ± %v, want 0.8", res.H, res.StdErr)
	}
	// Asymptotic SE formula check: σ = sqrt(6/(π² n)).
	want := math.Sqrt(6 / (math.Pi * math.Pi * 20000))
	if math.Abs(res.StdErr-want) > 0.05*want {
		t.Errorf("Whittle SE = %v, want %v", res.StdErr, want)
	}
	if math.Abs(res.CI95-1.96*res.StdErr) > 1e-12 {
		t.Error("CI95 must be 1.96·SE")
	}
}

func TestWhittleWhiteNoise(t *testing.T) {
	xs := whiteNoise(20000, 37)
	res, err := Whittle(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.H-0.5) > 3*res.StdErr+0.01 {
		t.Errorf("white noise Whittle H = %v ± %v", res.H, res.StdErr)
	}
}

func TestWhittleErrors(t *testing.T) {
	if _, err := Whittle(make([]float64, 64)); err == nil {
		t.Error("short series should fail")
	}
}

func TestWhittleAggregated(t *testing.T) {
	xs := testSeries(t, 0.8, 100000)
	// Shift positive so the log transform is defined.
	shifted := make([]float64, len(xs))
	for i, v := range xs {
		shifted[i] = math.Exp(v*0.25 + 3)
	}
	res, err := WhittleAggregated(shifted, 50, true)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.H-0.8) > 0.12 {
		t.Errorf("aggregated Whittle H = %v", res.H)
	}
	if _, err := WhittleAggregated([]float64{-1, 2, 3}, 1, true); err == nil {
		t.Error("log of nonpositive data should fail")
	}
	if _, err := WhittleAggregated(xs, 0, false); err == nil {
		t.Error("aggregation 0 should fail")
	}
}

func TestWhittleLadder(t *testing.T) {
	xs := testSeries(t, 0.8, 60000)
	ladder, err := WhittleLadder(xs, false, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(ladder) < 5 {
		t.Fatalf("ladder has %d points", len(ladder))
	}
	prevM := 0
	for _, p := range ladder {
		if p.M <= prevM {
			t.Fatalf("ladder not increasing in m: %d after %d", p.M, prevM)
		}
		prevM = p.M
		// CIs widen as aggregation shrinks the sample.
		if p.H < 0.4 || p.H > 1.0 {
			t.Errorf("m=%d: H=%v implausible for true H=0.8", p.M, p.H)
		}
		if p.CI95 <= 0 {
			t.Errorf("m=%d: missing CI", p.M)
		}
	}
	for i := 1; i < len(ladder); i++ {
		if ladder[i].CI95 < ladder[i-1].CI95 {
			t.Errorf("CI shrank with aggregation at m=%d", ladder[i].M)
		}
	}
	// Log-transform path with positive data.
	pos := make([]float64, len(xs))
	for i, v := range xs {
		pos[i] = math.Exp(0.25 * v)
	}
	if _, err := WhittleLadder(pos, true, 128); err != nil {
		t.Fatal(err)
	}
	// Errors.
	if _, err := WhittleLadder(make([]float64, 64), false, 128); err == nil {
		t.Error("short series should fail")
	}
	if _, err := WhittleLadder([]float64{-1, 1}, true, 128); err == nil {
		t.Error("log of negative data should fail")
	}
}

func TestWhittleStabilizedOnPureFGN(t *testing.T) {
	// On long-range dependent input with no short-range part the
	// stabilized estimate should stay near the truth. On these
	// fARIMA(0, d, 0) series it reads 0.866 on average where plain
	// Whittle reads 0.800: aggregation moves fARIMA toward fGn, which
	// the ladder's fARIMA model reads high (one ladder climbs from 0.80
	// at m = 1 to 0.90 near m = 50), so the bound is loose. One series'
	// Ĥ spreads with a standard deviation near 0.03 at this length, so
	// the bound applies to the mean over whittleSeeds series (PCG(s, 99),
	// s = 1..whittleSeeds); the CI check stays on the fixed series.
	const whittleSeeds = 32
	ctx := context.Background()
	res, err := WhittleStabilized(testSeries(t, 0.8, 60000), false)
	if err != nil {
		t.Fatal(err)
	}
	if res.CI95 <= 0 {
		t.Error("missing CI")
	}
	var mean float64
	for s := uint64(1); s <= whittleSeeds; s++ {
		xs, err := fgn.DaviesHarteCtx(ctx, 60000, 0.8, rand.New(rand.NewPCG(s, 99)))
		if err != nil {
			t.Fatal(err)
		}
		r, err := WhittleStabilized(xs, false)
		if err != nil {
			t.Fatal(err)
		}
		mean += r.H / whittleSeeds
	}
	t.Logf("mean stabilized Ĥ over %d series: %.4f", whittleSeeds, mean)
	if math.Abs(mean-0.8) > 0.08 {
		t.Errorf("mean stabilized H over %d series = %v, want 0.8", whittleSeeds, mean)
	}
}

func TestWhittleStabilizedFiltersSRD(t *testing.T) {
	ctx := context.Background()
	// A strongly low-passed process (heavy AR(1) on top of LRD) saturates
	// full-resolution Whittle; the stabilized ladder must land closer to
	// the backbone H than the m=1 estimate does.
	rng := rand.New(rand.NewPCG(51, 52))
	base, err := fgn.DaviesHarteCtx(ctx, 80000, 0.8, rng)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, len(base))
	ar := 0.0
	for i, v := range base {
		ar = 0.95*ar + 0.3*rng.NormFloat64()
		xs[i] = v + ar
	}
	plain, err := Whittle(xs)
	if err != nil {
		t.Fatal(err)
	}
	stab, err := WhittleStabilized(xs, false)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(stab.H-0.8) > math.Abs(plain.H-0.8)+0.02 {
		t.Errorf("stabilized (%v) no better than plain (%v) for true 0.8", stab.H, plain.H)
	}
}

func TestEstimateAllConsensus(t *testing.T) {
	xs := testSeries(t, 0.8, 100000)
	shifted := make([]float64, len(xs))
	for i, v := range xs {
		shifted[i] = math.Exp(v*0.25 + 3)
	}
	est, err := EstimateAll(shifted, 50)
	if err != nil {
		t.Fatal(err)
	}
	med := est.Median()
	if math.Abs(med-0.8) > 0.1 {
		t.Errorf("consensus H = %v (estimates %+v)", med, est)
	}
	// Every individual estimator should land in a broad sane band.
	for name, h := range map[string]float64{
		"variance-time": est.VarianceTime,
		"R/S":           est.RS,
		"R/S agg":       est.RSAggregated,
		"Whittle":       est.Whittle,
		"periodogram":   est.Periodogram,
	} {
		if h < 0.6 || h > 1.0 {
			t.Errorf("%s estimate %v far from 0.8", name, h)
		}
	}
	if est.RSSweepMin > est.RSSweepMax {
		t.Error("sweep range inverted")
	}
	if _, err := EstimateAll(xs, 0); err == nil {
		t.Error("aggM 0 should fail")
	}
}

func TestEstimatorsDistinguishSRDFromLRD(t *testing.T) {
	// The central claim of §3.2: estimators must separate an SRD process
	// (AR(1), exponential acf) from an LRD one even when the AR(1) has
	// strong short-range correlation.
	rng := rand.New(rand.NewPCG(41, 43))
	n := 100000
	ar := make([]float64, n)
	v := 0.0
	for i := range ar {
		v = 0.7*v + rng.NormFloat64()
		ar[i] = v
	}
	vtAR, err := VarianceTime(ar, 50, 50, 0) // fit beyond the AR correlation length
	if err != nil {
		t.Fatal(err)
	}
	lrdSeries := testSeries(t, 0.85, n)
	vtLRD, err := VarianceTime(lrdSeries, 50, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if vtAR.H > 0.65 {
		t.Errorf("AR(1) misclassified as LRD: H = %v", vtAR.H)
	}
	if vtLRD.H < 0.7 {
		t.Errorf("LRD series misclassified: H = %v", vtLRD.H)
	}
}

func TestGoldenMin(t *testing.T) {
	x := goldenMin(func(x float64) float64 { return (x - 1.3) * (x - 1.3) }, -5, 5, 1e-12)
	if math.Abs(x-1.3) > 1e-9 {
		t.Errorf("golden min found %v, want 1.3", x)
	}
}

func TestRegressErrors(t *testing.T) {
	if _, err := regress([]float64{1}, []float64{2}); err == nil {
		t.Error("single point should fail")
	}
	if _, err := regress([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("constant x should fail")
	}
	s, err := regress([]float64{0, 1, 2}, []float64{1, 3, 5})
	if err != nil || math.Abs(s-2) > 1e-12 {
		t.Errorf("slope %v err %v", s, err)
	}
}

func TestLogSpacedInts(t *testing.T) {
	v := logSpacedInts(1, 1000, 10)
	if len(v) == 0 || v[0] != 1 {
		t.Fatalf("bad spacing %v", v)
	}
	for i := 1; i < len(v); i++ {
		if v[i] <= v[i-1] {
			t.Fatalf("not strictly increasing: %v", v)
		}
		if v[i] > 1000 {
			t.Fatalf("exceeds hi: %v", v)
		}
	}
	if logSpacedInts(10, 5, 3) != nil {
		t.Error("hi < lo should be nil")
	}
}
