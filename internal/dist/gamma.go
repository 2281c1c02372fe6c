package dist

import (
	"fmt"
	"math"
	"math/rand/v2"

	"vbr/internal/specfn"
	"vbr/internal/stats"
)

// Gamma is the gamma distribution with the paper's parameterization
// (Eq. 14): density f(x) = e^{-λx} λ(λx)^{s-1} / Γ(s), where s is the shape
// and λ the rate ("scale" in the paper's wording). Mean = s/λ,
// variance = s/λ².
type Gamma struct {
	Shape float64 // s
	Rate  float64 // λ
}

// NewGamma returns a Gamma distribution; both parameters must be positive.
func NewGamma(shape, rate float64) (Gamma, error) {
	if !(shape > 0) || !(rate > 0) {
		return Gamma{}, fmt.Errorf("dist: gamma requires shape, rate > 0, got (%v, %v)", shape, rate)
	}
	return Gamma{Shape: shape, Rate: rate}, nil
}

// maxMomentShape is the largest shape GammaFromMoments builds, a
// coefficient of variation of 1%: specfn.GammaP's series and continued
// fraction converge within their iteration cap up to about this shape
// and drift beyond it (P(a, a) reads 0.4988 at a = 3·10⁴ and 0.44 at
// 10⁵, for about 0.5).
const maxMomentShape = 1e4

// GammaFromMoments builds the Gamma distribution matching a given mean and
// standard deviation, the fit used throughout the paper: s = (μ/σ)²,
// λ = μ/σ². The shape must come out in (0, 10⁴] and the rate finite.
func GammaFromMoments(mean, sd float64) (Gamma, error) {
	if !(mean > 0) || !(sd > 0) {
		return Gamma{}, fmt.Errorf("dist: gamma moments require mean, sd > 0, got (%v, %v)", mean, sd)
	}
	g := Gamma{Shape: (mean / sd) * (mean / sd), Rate: mean / (sd * sd)}
	if !(g.Shape > 0 && g.Shape <= maxMomentShape && g.Rate > 0 && g.Rate <= math.MaxFloat64) {
		return Gamma{}, fmt.Errorf("dist: gamma moments (%v, %v) give shape %v and rate %v; want a shape in (0, %g] (σ/μ ≥ 1%%) and a finite rate", mean, sd, g.Shape, g.Rate, float64(maxMomentShape))
	}
	return g, nil
}

func (d Gamma) Name() string { return "gamma" }

func (d Gamma) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	if stats.AlmostEqual(x, 0, 0) {
		switch {
		case d.Shape < 1:
			return math.Inf(1)
		case stats.AlmostEqual(d.Shape, 1, 0):
			return d.Rate
		}
		return 0
	}
	lf := -d.Rate*x + d.Shape*math.Log(d.Rate) + (d.Shape-1)*math.Log(x) - specfn.LnGamma(d.Shape)
	return math.Exp(lf)
}

// LogPDF returns ln f(x); useful for the slope matching in the hybrid model
// and for likelihood work without underflow.
func (d Gamma) LogPDF(x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	return -d.Rate*x + d.Shape*math.Log(d.Rate) + (d.Shape-1)*math.Log(x) - specfn.LnGamma(d.Shape)
}

func (d Gamma) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return specfn.GammaP(d.Shape, d.Rate*x)
}

func (d Gamma) Quantile(p float64) float64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return math.Inf(1)
	}
	return specfn.GammaPInv(d.Shape, p) / d.Rate
}

func (d Gamma) Mean() float64     { return d.Shape / d.Rate }
func (d Gamma) Variance() float64 { return d.Shape / (d.Rate * d.Rate) }

// Sample draws a gamma variate by the Marsaglia–Tsang (2000) squeeze
// method, boosting shapes below one with the standard U^{1/s} trick.
func (d Gamma) Sample(rng *rand.Rand) float64 {
	shape := d.Shape
	boost := 1.0
	if shape < 1 {
		boost = math.Pow(rng.Float64(), 1/shape)
		shape++
	}
	dd := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*dd)
	for {
		var x, v float64
		for {
			x = rng.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return boost * dd * v / d.Rate
		}
		if math.Log(u) < 0.5*x*x+dd*(1-v+math.Log(v)) {
			return boost * dd * v / d.Rate
		}
	}
}

// PartialMean returns ∫₀ᵀ x f(x) dx, the contribution of [0, T] to the
// mean, via the identity ∫₀ᵀ x f_{s,λ}(x) dx = (s/λ)·P(s+1, λT).
func (d Gamma) PartialMean(t float64) float64 {
	if t <= 0 {
		return 0
	}
	return d.Shape / d.Rate * specfn.GammaP(d.Shape+1, d.Rate*t)
}

// PartialSecondMoment returns ∫₀ᵀ x² f(x) dx via
// ∫₀ᵀ x² f_{s,λ}(x) dx = s(s+1)/λ² · P(s+2, λT).
func (d Gamma) PartialSecondMoment(t float64) float64 {
	if t <= 0 {
		return 0
	}
	return d.Shape * (d.Shape + 1) / (d.Rate * d.Rate) * specfn.GammaP(d.Shape+2, d.Rate*t)
}
