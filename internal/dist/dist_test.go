package dist

import (
	"math"
	"math/rand/v2"
	"testing"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsInf(want, 0) {
		if got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
		return
	}
	diff := math.Abs(got - want)
	if diff > tol && diff > tol*math.Abs(want) {
		t.Errorf("%s = %v, want %v (tol %v)", name, got, want, tol)
	}
}

// allDistributions returns one instance of every family for generic tests.
func allDistributions(t *testing.T) []Distribution {
	t.Helper()
	n, err := NewNormal(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := NewLognormal(1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGamma(3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPareto(2, 3.5)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExponential(0.25)
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUniform(-1, 4)
	if err != nil {
		t.Fatal(err)
	}
	gp, err := NewGammaParetoFromParams(GammaParetoParams{MuGamma: 27791, SigmaGamma: 6254, TailSlope: 12})
	if err != nil {
		t.Fatal(err)
	}
	return []Distribution{n, ln, g, p, e, u, gp}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewNormal(0, 0); err == nil {
		t.Error("NewNormal(0,0) should fail")
	}
	if _, err := NewLognormal(0, -1); err == nil {
		t.Error("NewLognormal negative sigma should fail")
	}
	if _, err := NewGamma(0, 1); err == nil {
		t.Error("NewGamma zero shape should fail")
	}
	if _, err := NewGamma(1, 0); err == nil {
		t.Error("NewGamma zero rate should fail")
	}
	if _, err := NewPareto(-1, 2); err == nil {
		t.Error("NewPareto negative k should fail")
	}
	if _, err := NewExponential(0); err == nil {
		t.Error("NewExponential zero rate should fail")
	}
	if _, err := NewUniform(3, 3); err == nil {
		t.Error("NewUniform empty interval should fail")
	}
	if _, err := NewGammaParetoFromParams(GammaParetoParams{MuGamma: -1, SigmaGamma: 1, TailSlope: 2}); err == nil {
		t.Error("NewGammaPareto negative mean should fail")
	}
	if _, err := NewGammaParetoFromParams(GammaParetoParams{MuGamma: 1, SigmaGamma: 1, TailSlope: 0}); err == nil {
		t.Error("NewGammaPareto zero tail slope should fail")
	}
	if _, err := GammaFromMoments(0, 1); err == nil {
		t.Error("GammaFromMoments zero mean should fail")
	}
	// Moments whose shape or rate leaves the range the incomplete gamma
	// function converges on, or overflows, are refused; a 1% CoV is not.
	for _, m := range [][2]float64{{1000, 9.99}, {math.Inf(1), 1}, {1, math.Inf(1)}, {1e-200, 1e200}, {1e200, 1e-200}, {1, 1e-160}} {
		if g, err := GammaFromMoments(m[0], m[1]); err == nil {
			t.Errorf("GammaFromMoments(%v, %v) accepted shape %v, rate %v", m[0], m[1], g.Shape, g.Rate)
		}
	}
	if _, err := GammaFromMoments(1000, 10); err != nil {
		t.Errorf("GammaFromMoments(1000, 10): %v", err)
	}
	if _, err := NewGammaParetoFromParams(GammaParetoParams{MuGamma: 1, SigmaGamma: 1, TailSlope: math.Inf(1)}); err == nil {
		t.Error("NewGammaPareto infinite tail slope should fail")
	}
}

func TestQuantileCDFRoundTrip(t *testing.T) {
	for _, d := range allDistributions(t) {
		for _, p := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.99999} {
			x := d.Quantile(p)
			got := d.CDF(x)
			if math.Abs(got-p) > 1e-6 {
				t.Errorf("%s: CDF(Quantile(%v)=%v) = %v", d.Name(), p, x, got)
			}
		}
	}
}

func TestCDFMonotoneAndBounded(t *testing.T) {
	for _, d := range allDistributions(t) {
		lo, hi := d.Quantile(0.0005), d.Quantile(0.9995)
		span := hi - lo
		prev := -1.0
		for i := 0; i <= 400; i++ {
			x := lo - 0.1*span + float64(i)/400*1.2*span
			f := d.CDF(x)
			if f < -1e-12 || f > 1+1e-12 {
				t.Fatalf("%s: CDF(%v) = %v out of [0,1]", d.Name(), x, f)
			}
			if f < prev-1e-12 {
				t.Fatalf("%s: CDF not monotone at %v", d.Name(), x)
			}
			prev = f
		}
	}
}

func TestPDFIntegratesToCDF(t *testing.T) {
	// Trapezoid ∫ pdf over [q(1e-4), q(1-1e-4)] ≈ 1 - 2e-4.
	for _, d := range allDistributions(t) {
		lo, hi := d.Quantile(1e-4), d.Quantile(1-1e-4)
		const n = 40000
		h := (hi - lo) / n
		sum := 0.5 * (d.PDF(lo) + d.PDF(hi))
		for i := 1; i < n; i++ {
			sum += d.PDF(lo + float64(i)*h)
		}
		sum *= h
		want := d.CDF(hi) - d.CDF(lo)
		if math.Abs(sum-want) > 2e-3 {
			t.Errorf("%s: ∫pdf = %v, CDF difference = %v", d.Name(), sum, want)
		}
	}
}

func TestAnalyticMoments(t *testing.T) {
	g, _ := NewGamma(3, 0.5)
	approx(t, "gamma mean", g.Mean(), 6, 1e-12)
	approx(t, "gamma var", g.Variance(), 12, 1e-12)

	p, _ := NewPareto(2, 3.5)
	approx(t, "pareto mean", p.Mean(), 2*3.5/2.5, 1e-12)
	approx(t, "pareto var", p.Variance(), 4*3.5/(2.5*2.5*1.5), 1e-12)

	pInfVar, _ := NewPareto(1, 1.5)
	if !math.IsInf(pInfVar.Variance(), 1) {
		t.Error("pareto a=1.5 should have infinite variance")
	}
	pInfMean, _ := NewPareto(1, 0.9)
	if !math.IsInf(pInfMean.Mean(), 1) {
		t.Error("pareto a=0.9 should have infinite mean")
	}

	ln, _ := NewLognormal(1, 0.5)
	approx(t, "lognormal mean", ln.Mean(), math.Exp(1.125), 1e-12)

	u, _ := NewUniform(-1, 4)
	approx(t, "uniform mean", u.Mean(), 1.5, 1e-12)
	approx(t, "uniform var", u.Variance(), 25.0/12, 1e-12)
}

func TestSampleMomentsMatchAnalytic(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 43))
	const n = 200000
	for _, d := range allDistributions(t) {
		if math.IsInf(d.Variance(), 1) {
			continue
		}
		var sum, sum2 float64
		for i := 0; i < n; i++ {
			x := d.Sample(rng)
			sum += x
			sum2 += x * x
		}
		mean := sum / n
		varr := sum2/n - mean*mean
		if math.Abs(mean-d.Mean()) > 5*math.Sqrt(d.Variance()/n)+1e-9*math.Abs(d.Mean()) {
			t.Errorf("%s: sample mean %v, want %v", d.Name(), mean, d.Mean())
		}
		if math.Abs(varr-d.Variance()) > 0.05*d.Variance() {
			t.Errorf("%s: sample var %v, want %v", d.Name(), varr, d.Variance())
		}
	}
}

func TestGammaPDFMatchesPaperFormula(t *testing.T) {
	// Eq. 14: f(x) = e^{-λx} λ(λx)^{s-1} / Γ(s).
	g, _ := NewGamma(2.7, 1.3)
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		want := math.Exp(-1.3*x) * 1.3 * math.Pow(1.3*x, 1.7) / math.Gamma(2.7)
		approx(t, "gamma pdf", g.PDF(x), want, 1e-12)
	}
}

func TestGammaPartialMoments(t *testing.T) {
	g, _ := NewGamma(4, 2)
	// As T → ∞ the partial moments converge to the full ones.
	approx(t, "partial mean at inf", g.PartialMean(1e6), g.Mean(), 1e-9)
	full2 := g.Variance() + g.Mean()*g.Mean()
	approx(t, "partial m2 at inf", g.PartialSecondMoment(1e6), full2, 1e-9)
	if g.PartialMean(0) != 0 || g.PartialSecondMoment(-1) != 0 {
		t.Error("partial moments at T<=0 must be 0")
	}
	// Numeric check at finite T.
	T := 2.5
	const n = 200000
	h := T / n
	var num float64
	for i := 0; i < n; i++ {
		x := (float64(i) + 0.5) * h
		num += x * g.PDF(x) * h
	}
	approx(t, "partial mean numeric", g.PartialMean(T), num, 1e-5)
}

func TestParetoCCDFSlope(t *testing.T) {
	// On log-log axes the CCDF of a Pareto is a straight line of slope -a.
	p, _ := NewPareto(3, 2.5)
	x1, x2 := 10.0, 1000.0
	slope := (math.Log(p.CCDF(x2)) - math.Log(p.CCDF(x1))) / (math.Log(x2) - math.Log(x1))
	approx(t, "pareto ccdf slope", slope, -2.5, 1e-12)
}

func TestGammaParetoThresholdSlopeMatch(t *testing.T) {
	// At x_th the log-log density slopes of body and tail must agree:
	// (s-1) - λ x_th == -(a+1).
	gp, err := NewGammaParetoFromParams(GammaParetoParams{MuGamma: 27791, SigmaGamma: 6254, TailSlope: 12})
	if err != nil {
		t.Fatal(err)
	}
	s, lam, a := gp.Body.Shape, gp.Body.Rate, gp.Tail
	xth := gp.Threshold()
	approx(t, "slope match", (s-1)-lam*xth, -(a + 1), 1e-9)
	// And the threshold equals (s+a)/λ.
	approx(t, "threshold", xth, (s+a)/lam, 1e-9)
}

func TestGammaParetoCDFContinuity(t *testing.T) {
	gp, _ := NewGammaParetoFromParams(GammaParetoParams{MuGamma: 100, SigmaGamma: 30, TailSlope: 5})
	xth := gp.Threshold()
	below := gp.CDF(xth * (1 - 1e-9))
	above := gp.CDF(xth * (1 + 1e-9))
	if math.Abs(below-above) > 1e-6 {
		t.Errorf("CDF discontinuous at threshold: %v vs %v", below, above)
	}
}

func TestGammaParetoTailIsExactlyPareto(t *testing.T) {
	gp, _ := NewGammaParetoFromParams(GammaParetoParams{MuGamma: 100, SigmaGamma: 30, TailSlope: 5})
	xth := gp.Threshold()
	// CCDF(x)/CCDF(x_th) should equal (x_th/x)^a for x > x_th.
	for _, mult := range []float64{1.5, 2, 5, 10, 100} {
		x := xth * mult
		got := gp.CCDF(x) / gp.TailMass()
		want := math.Pow(1/mult, gp.Tail)
		approx(t, "conditional tail", got, want, 1e-9)
	}
}

func TestGammaParetoTailMassSmall(t *testing.T) {
	// With the paper's trace parameters the tail should carry a few
	// percent of the mass (the paper reports ~3%).
	gp, _ := NewGammaParetoFromParams(GammaParetoParams{MuGamma: 27791, SigmaGamma: 6254, TailSlope: 12})
	if tm := gp.TailMass(); tm < 0.001 || tm > 0.15 {
		t.Errorf("tail mass %v outside plausible range", tm)
	}
}

func TestGammaParetoMomentsNumeric(t *testing.T) {
	gp, _ := NewGammaParetoFromParams(GammaParetoParams{MuGamma: 100, SigmaGamma: 30, TailSlope: 6})
	// Numeric mean/variance via quantile sampling.
	const n = 2000000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		p := (float64(i) + 0.5) / n
		x := gp.Quantile(p)
		sum += x
		sum2 += x * x
	}
	mean := sum / n
	varr := sum2/n - mean*mean
	approx(t, "hybrid mean", gp.Mean(), mean, 2e-3*mean)
	approx(t, "hybrid var", gp.Variance(), varr, 2e-2*varr)
}

func TestGammaParetoInfiniteMoments(t *testing.T) {
	gp1, _ := NewGammaParetoFromParams(GammaParetoParams{MuGamma: 100, SigmaGamma: 30, TailSlope: 0.9})
	if !math.IsInf(gp1.Mean(), 1) {
		t.Error("tail slope < 1 should give infinite mean")
	}
	gp2, _ := NewGammaParetoFromParams(GammaParetoParams{MuGamma: 100, SigmaGamma: 30, TailSlope: 1.5})
	if math.IsInf(gp2.Mean(), 1) {
		t.Error("tail slope 1.5 should give finite mean")
	}
	if !math.IsInf(gp2.Variance(), 1) {
		t.Error("tail slope 1.5 should give infinite variance")
	}
}

func TestQuantileTable(t *testing.T) {
	gp, _ := NewGammaParetoFromParams(GammaParetoParams{MuGamma: 27791, SigmaGamma: 6254, TailSlope: 12})
	tab, err := gp.QuantileTable(10000) // the paper's table size
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 10000 {
		t.Fatalf("table size %d", tab.Len())
	}
	for _, p := range []float64{0.001, 0.01, 0.2, 0.5, 0.8, 0.99, 0.999} {
		exact := gp.Quantile(p)
		got := tab.Value(p)
		if math.Abs(got-exact) > 0.002*exact {
			t.Errorf("table quantile p=%v: %v vs exact %v", p, got, exact)
		}
	}
	// Extreme tail must use the exact Pareto quantile, not clip.
	pExt := 1 - 1e-8
	approx(t, "extreme tail quantile", tab.Value(pExt), gp.Quantile(pExt), 1e-9)
	if tab.Value(0) != 0 {
		t.Error("Value(0) should be 0")
	}
	if !math.IsInf(tab.Value(1), 1) {
		t.Error("Value(1) should be +Inf")
	}
	if _, err := gp.QuantileTable(1); err == nil {
		t.Error("QuantileTable(1) should fail")
	}
}

func TestFitGammaRecoversParameters(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	truth, _ := NewGamma(4.2, 0.013)
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = truth.Sample(rng)
	}
	fit, err := FitGamma(xs)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "fitted shape", fit.Shape, truth.Shape, 0.1*truth.Shape)
	approx(t, "fitted rate", fit.Rate, truth.Rate, 0.1*truth.Rate)
}

func TestFitParetoTailRecoversIndex(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	truth, _ := NewPareto(5, 3)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = truth.Sample(rng)
	}
	a, _, err := FitParetoTail(xs, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "fitted tail index", a, 3, 0.3)
}

func TestFitParetoTailErrors(t *testing.T) {
	if _, _, err := FitParetoTail([]float64{1, 2}, 0.1); err == nil {
		t.Error("too few points should fail")
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 1
	}
	if _, _, err := FitParetoTail(xs, 0.5); err == nil {
		t.Error("constant data should fail")
	}
	if _, _, err := FitParetoTail(xs, 1.5); err == nil {
		t.Error("tail fraction > 1 should fail")
	}
	// Upward-sloping 'tail' (impossible for CCDF over sorted data) cannot
	// occur, but negative data must be skipped gracefully.
	neg := make([]float64, 100)
	for i := range neg {
		neg[i] = -float64(i + 1)
	}
	if _, _, err := FitParetoTail(neg, 0.5); err == nil {
		t.Error("all-negative data should fail")
	}
}

func TestFitGammaParetoOnHybridSample(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 19))
	truth, _ := NewGammaParetoFromParams(GammaParetoParams{MuGamma: 27791, SigmaGamma: 6254, TailSlope: 8})
	xs := make([]float64, 80000)
	for i := range xs {
		xs[i] = truth.Sample(rng)
	}
	fit, err := FitGammaPareto(xs, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	// Means should agree well; tail index within ~30%.
	approx(t, "hybrid fit mean", fit.Mean(), truth.Mean(), 0.02*truth.Mean())
	if fit.Tail < 5 || fit.Tail > 12 {
		t.Errorf("fitted tail index %v too far from truth 8", fit.Tail)
	}
}

func TestFitNormalAndLognormal(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 29))
	xs := make([]float64, 50000)
	truth, _ := NewLognormal(2, 0.4)
	for i := range xs {
		xs[i] = truth.Sample(rng)
	}
	lf, err := FitLognormal(xs)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "lognormal mu", lf.Mu, 2, 0.05)
	approx(t, "lognormal sigma", lf.Sigma, 0.4, 0.05)

	nf, err := FitNormal(xs)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "normal mean", nf.Mu, truth.Mean(), 0.05*truth.Mean())

	if _, err := FitLognormal([]float64{1, -2, 3}); err == nil {
		t.Error("lognormal fit with nonpositive data should fail")
	}
	if _, err := FitNormal(nil); err == nil {
		t.Error("fit of empty sample should fail")
	}
}

func TestKolmogorovDistance(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 37))
	d, _ := NewNormal(0, 1)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = d.Sample(rng)
	}
	ks, err := KolmogorovDistance(xs, d)
	if err != nil {
		t.Fatal(err)
	}
	// For the true distribution KS ~ 1/sqrt(n) ≈ 0.007; allow 4x.
	if ks > 0.03 {
		t.Errorf("KS distance to true distribution too large: %v", ks)
	}
	wrong, _ := NewNormal(1, 1)
	ksWrong, _ := KolmogorovDistance(xs, wrong)
	if ksWrong < 10*ks {
		t.Errorf("KS should discriminate: right %v vs wrong %v", ks, ksWrong)
	}
	if _, err := KolmogorovDistance(nil, d); err == nil {
		t.Error("empty sample should fail")
	}
}

func TestHeavyTailOrdering(t *testing.T) {
	// Fig. 4's qualitative claim: at high quantiles,
	// Normal < Gamma < GammaPareto. (The lognormal crosses over and is
	// not globally ordered, so it is excluded here.)
	mean, sd := 27791.0, 6254.0
	n, _ := NewNormal(mean, sd)
	g, _ := GammaFromMoments(mean, sd)
	gp, _ := NewGammaParetoFromParams(GammaParetoParams{MuGamma: mean, SigmaGamma: sd, TailSlope: 9})
	x := mean + 6*sd
	cN, cG, cGP := 1-n.CDF(x), 1-g.CDF(x), gp.CCDF(x)
	if !(cN < cG && cG < cGP) {
		t.Errorf("tail ordering violated: normal %v, gamma %v, hybrid %v", cN, cG, cGP)
	}
}
