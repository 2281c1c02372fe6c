// Package specfn implements the special functions needed by the
// distribution and estimation code: the gamma function and its logarithm,
// the regularized incomplete gamma functions P and Q with their inverse,
// the error function pair, and the inverse of the standard normal CDF.
//
// Everything is implemented from scratch on top of package math so that the
// module has no dependencies outside the Go standard library. Accuracy is
// roughly 1e-10 relative over the ranges exercised by the VBR video model,
// which is far below the statistical noise of any experiment in the paper.
package specfn

import "math"

// Gamma returns the gamma function Γ(x). It delegates to math.Gamma, which
// implements the Lanczos approximation; it exists so callers inside this
// module depend only on specfn.
func Gamma(x float64) float64 { return math.Gamma(x) }

// LnGamma returns ln|Γ(x)|. The sign is discarded because every caller in
// this module uses x > 0.
func LnGamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

const (
	gammaEps    = 1e-14
	gammaItMax  = 500
	gammaFPBig  = 1e300
	gammaFPTiny = 1e-300
	// gammaPInvTail bounds GammaPInv's deep tails: p below it, or
	// above 1 − gammaPInvTail.
	gammaPInvTail = 1e-9
	// smallestNormal is the smallest normal float64, 2^−1022.
	smallestNormal = 0x1p-1022
)

// GammaP returns the regularized lower incomplete gamma function
// P(a, x) = γ(a, x) / Γ(a) for a > 0, x ≥ 0.
func GammaP(a, x float64) float64 {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case x <= 0:
		return 0
	case x < a+1:
		return gammaSeriesP(a, x)
	default:
		return 1 - gammaContFracQ(a, x)
	}
}

// GammaQ returns the regularized upper incomplete gamma function
// Q(a, x) = 1 - P(a, x).
func GammaQ(a, x float64) float64 {
	switch {
	case a <= 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case x <= 0:
		return 1
	case x < a+1:
		return 1 - gammaSeriesP(a, x)
	default:
		return gammaContFracQ(a, x)
	}
}

// gammaSeriesP evaluates P(a,x) by the power series, accurate for x < a+1.
func gammaSeriesP(a, x float64) float64 {
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < gammaItMax; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*gammaEps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-LnGamma(a))
}

// gammaContFracQ evaluates Q(a,x) by the modified Lentz continued fraction,
// accurate for x ≥ a+1.
func gammaContFracQ(a, x float64) float64 {
	b := x + 1 - a
	c := gammaFPBig
	d := 1 / b
	h := d
	for i := 1; i <= gammaItMax; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < gammaFPTiny {
			d = gammaFPTiny
		}
		c = b + an/c
		if math.Abs(c) < gammaFPTiny {
			c = gammaFPTiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < gammaEps {
			break
		}
	}
	return h * math.Exp(-x+a*math.Log(x)-LnGamma(a))
}

// GammaPInv returns x such that P(a, x) = p, for a > 0 and p in [0, 1).
// It uses the initial guess of Abramowitz & Stegun 26.2.22/26.4.17 followed
// by Halley iterations on P, as in Numerical Recipes §6.2.1, except in
// the deep tails, where those lose the root (below). A p or a result
// below the smallest normal float64 reads 0.
func GammaPInv(a, p float64) float64 {
	if a <= 0 || p < 0 || p >= 1 || math.IsNaN(a) || math.IsNaN(p) {
		//vbrlint:ignore floateq p is compared against the exact unit-interval boundary, a representable constant
		if p == 1 {
			return math.Inf(1)
		}
		return math.NaN()
	}
	// A p, or a quantile, below the smallest normal float64 reads 0: the
	// density there underflows, and so does the iteration.
	if p < smallestNormal {
		return 0
	}
	// In the deep tails the guess for a > 1 lands far from the root, on
	// the mirrored side of the median, too far for the Halley steps. The
	// lower tail has its own iteration. In the upper one P − p cancels to
	// nothing, so the steps solve Q(a, x) = 1 − p instead, from the
	// Wilson–Hilferty guess, with the density in one exponent.
	if a > 1 && p < gammaPInvTail {
		return gammaPInvLower(a, p)
	}
	upper := p > 1-gammaPInvTail

	gln := LnGamma(a)
	a1 := a - 1
	var lna1, afac float64
	if a > 1 {
		lna1 = math.Log(a1)
		afac = math.Exp(a1*(lna1-1) - gln)
	}

	var x float64
	if a > 1 {
		// Initial guess via the Wilson–Hilferty transformation.
		pp := p
		if p >= 0.5 {
			pp = 1 - p
		}
		t := math.Sqrt(-2 * math.Log(pp))
		x = (2.30753 + t*0.27061) / (1 + t*(0.99229+t*0.04481))
		x = t - x
		if p < 0.5 {
			x = -x
		}
		if upper {
			wh := 1 - 1/(9*a) + x/(3*math.Sqrt(a))
			x = a * wh * wh * wh
		} else {
			x = math.Max(1e-3, a*math.Pow(1-1/(9*a)-x/(3*math.Sqrt(a)), 3))
		}
	} else {
		t := 1 - a*(0.253+a*0.12)
		if p < t {
			x = math.Pow(p/t, 1/a)
		} else {
			x = 1 - math.Log(1-(p-t)/(1-t))
		}
	}

	for j := 0; j < 32; j++ {
		if x <= 0 {
			return 0
		}
		var err float64
		if upper {
			err = 1 - p - GammaQ(a, x)
		} else {
			err = GammaP(a, x) - p
		}
		var t float64
		if a > 1 && !upper {
			t = afac * math.Exp(-(x-a1)+a1*(math.Log(x)-lna1))
		} else {
			t = math.Exp(-x + a1*math.Log(x) - gln)
		}
		u := err / t
		// Halley step.
		t = u / (1 - 0.5*math.Min(1, u*(a1/x-1)))
		x -= t
		if x <= 0 {
			x = 0.5 * (x + t)
		}
		if math.Abs(t) < gammaEps*x {
			break
		}
	}
	if x < smallestNormal {
		return 0
	}
	return x
}

// gammaPInvLower solves P(a, x) = p deep in the lower tail (a > 1,
// p < gammaPInvTail) by Newton's method on ln P as a function of
// u = ln x, which neither underflows nor cancels there. With
// P = x^a·e^(−x)·S(x)/Γ(a+1) and S(x) = Σ_k x^k/((a+1)…(a+k)), the slope
// is d ln P/du = a/S. ln P is concave in u, and the start
// (p·Γ(a+1))^(1/a) lies below the root because e^(−x)·S(x) ≤ 1, so the
// iterates rise to the root without overshooting it.
func gammaPInvLower(a, p float64) float64 {
	lp, lg := math.Log(p), LnGamma(a+1)
	u := (lp + lg) / a
	for j := 0; j < 64; j++ {
		x := math.Exp(u)
		sum, term := 1.0, 1.0
		for k := 1; k <= gammaItMax && term >= sum*gammaEps; k++ {
			term *= x / (a + float64(k))
			sum += term
		}
		step := (a*u - x - lg + math.Log(sum) - lp) * sum / a
		u -= step
		if math.Abs(step) < gammaEps {
			break
		}
	}
	return math.Exp(u)
}

// Erf returns the error function erf(x); Erfc its complement. Delegation
// keeps specfn the single in-module authority for special functions.
func Erf(x float64) float64  { return math.Erf(x) }
func Erfc(x float64) float64 { return math.Erfc(x) }

// NormCDF returns Φ(x), the standard normal cumulative distribution
// function, computed from erfc for full accuracy in both tails.
func NormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormPDF returns φ(x), the standard normal density.
func NormPDF(x float64) float64 {
	return math.Exp(-0.5*x*x) / math.Sqrt(2*math.Pi)
}

// NormCDFInv returns Φ⁻¹(p) for p in (0, 1) using the rational
// approximation of Peter Acklam refined with one Halley step, giving
// roughly full double precision everywhere.
func NormCDFInv(p float64) float64 {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		switch {
		//vbrlint:ignore floateq p is compared against the exact unit-interval boundary, a representable constant
		case p == 0:
			return math.Inf(-1)
		//vbrlint:ignore floateq p is compared against the exact unit-interval boundary, a representable constant
		case p == 1:
			return math.Inf(1)
		}
		return math.NaN()
	}

	// Coefficients for the central and tail rational approximations.
	a := [6]float64{
		-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00,
	}
	b := [5]float64{
		-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01,
	}
	c := [6]float64{
		-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00,
	}
	d := [4]float64{
		7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00,
	}

	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}

	// One Halley refinement step.
	e := NormCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x
}

// Digamma returns ψ(x) = d/dx ln Γ(x) for x > 0, by upward recurrence into
// the asymptotic series. Used by the Whittle estimator's information term
// and by maximum-likelihood Gamma fitting.
func Digamma(x float64) float64 {
	if math.IsNaN(x) || x <= 0 {
		return math.NaN()
	}
	var result float64
	for x < 6 {
		result -= 1 / x
		x++
	}
	inv := 1 / x
	inv2 := inv * inv
	// Asymptotic expansion: ln x - 1/2x - Σ B_{2n}/(2n x^{2n}).
	result += math.Log(x) - 0.5*inv
	result -= inv2 * (1.0/12 - inv2*(1.0/120-inv2*(1.0/252-inv2*(1.0/240-inv2/132*0.5))))
	return result
}
