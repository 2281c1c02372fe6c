package specfn

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	return diff <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func TestGammaKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{1, 1},
		{2, 1},
		{3, 2},
		{4, 6},
		{5, 24},
		{0.5, math.Sqrt(math.Pi)},
		{1.5, 0.5 * math.Sqrt(math.Pi)},
	}
	for _, c := range cases {
		if got := Gamma(c.x); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Gamma(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestLnGammaMatchesGamma(t *testing.T) {
	for x := 0.1; x < 30; x += 0.37 {
		want := math.Log(Gamma(x))
		if x > 20 {
			// Gamma overflows precision sooner than Lgamma.
			want = math.Log(math.Gamma(x))
		}
		if got := LnGamma(x); !almostEqual(got, want, 1e-10) {
			t.Errorf("LnGamma(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestGammaPBoundaries(t *testing.T) {
	if got := GammaP(2.5, 0); got != 0 {
		t.Errorf("GammaP(2.5, 0) = %v, want 0", got)
	}
	if got := GammaP(2.5, 1e10); !almostEqual(got, 1, 1e-12) {
		t.Errorf("GammaP(2.5, 1e10) = %v, want 1", got)
	}
	if !math.IsNaN(GammaP(-1, 1)) {
		t.Error("GammaP with a <= 0 should be NaN")
	}
}

func TestGammaPKnownValues(t *testing.T) {
	// P(1, x) = 1 - e^{-x} (exponential distribution CDF).
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		want := 1 - math.Exp(-x)
		if got := GammaP(1, x); !almostEqual(got, want, 1e-12) {
			t.Errorf("GammaP(1, %v) = %v, want %v", x, got, want)
		}
	}
	// P(1/2, x) = erf(sqrt(x)).
	for _, x := range []float64{0.1, 0.5, 1, 2, 5} {
		want := math.Erf(math.Sqrt(x))
		if got := GammaP(0.5, x); !almostEqual(got, want, 1e-12) {
			t.Errorf("GammaP(0.5, %v) = %v, want %v", x, got, want)
		}
	}
	// P(n, x) for integer n equals the Poisson tail identity:
	// P(3, x) = 1 - e^{-x}(1 + x + x²/2).
	for _, x := range []float64{0.5, 1, 3, 7} {
		want := 1 - math.Exp(-x)*(1+x+x*x/2)
		if got := GammaP(3, x); !almostEqual(got, want, 1e-12) {
			t.Errorf("GammaP(3, %v) = %v, want %v", x, got, want)
		}
	}
}

func TestGammaPQComplementary(t *testing.T) {
	for a := 0.2; a < 50; a *= 1.7 {
		for x := 0.01; x < 100; x *= 2.1 {
			p, q := GammaP(a, x), GammaQ(a, x)
			if !almostEqual(p+q, 1, 1e-10) {
				t.Errorf("P+Q != 1 at a=%v x=%v: %v", a, x, p+q)
			}
		}
	}
}

func TestGammaPMonotone(t *testing.T) {
	for _, a := range []float64{0.3, 1, 2.5, 10, 40} {
		prev := -1.0
		for x := 0.0; x < 200; x += 0.5 {
			p := GammaP(a, x)
			if p < prev-1e-14 {
				t.Fatalf("GammaP(%v, ·) not monotone at x=%v: %v < %v", a, x, p, prev)
			}
			prev = p
		}
	}
}

func TestGammaPInvRoundTrip(t *testing.T) {
	for _, a := range []float64{0.3, 0.9, 1, 2.5, 10, 19.7, 100} {
		for _, p := range []float64{1e-8, 1e-4, 0.01, 0.1, 0.5, 0.9, 0.99, 0.9999, 1 - 1e-9} {
			x := GammaPInv(a, p)
			got := GammaP(a, x)
			if !almostEqual(got, p, 1e-8) {
				t.Errorf("GammaP(%v, GammaPInv(%v, %v)=%v) = %v", a, a, p, x, got)
			}
		}
	}
}

// TestGammaPInvDeepTails: within 1e-9 of 0 or 1 the quantile still
// inverts P (Q near 1) and rises with p, from a shape just above 1 to
// 10⁴. Before the tails had their own starts, p = 1e-15 at a = 1.169
// inverted to a point with P ≈ 3e-14, p = 1e-20 to one above the
// median, p = 1e-300 to NaN, and p = 1 − 1.5e-14 at a = 7.1 to a point
// below the quantile of p = 1 − 1e-4.
func TestGammaPInvDeepTails(t *testing.T) {
	for _, a := range []float64{0.5, 1.0000001, 1.169, 7.1, 19.7, 711, 1e4} {
		prev := 0.0
		for e := -307.0; e <= -9.25; e += 0.25 {
			p := math.Pow(10, e)
			x := GammaPInv(a, p)
			if !(x >= prev) {
				t.Fatalf("a=%v: GammaPInv(%v) = %v, below %v at a smaller p", a, p, x, prev)
			}
			prev = x
			if x > 0 && !almostEqual(GammaP(a, x), p, 1e-10) {
				t.Errorf("a=%v: GammaP(GammaPInv(%v) = %v) = %v", a, p, x, GammaP(a, x))
			}
		}
		prev = GammaPInv(a, 1-1e-4)
		for e := -9.25; e >= -16; e -= 0.25 {
			q := math.Pow(10, e)
			x := GammaPInv(a, 1-q)
			if !(x >= prev) {
				t.Fatalf("a=%v: GammaPInv(1 − %v) = %v, below %v at a smaller p", a, q, x, prev)
			}
			prev = x
			if want := 1 - (1 - q); !almostEqual(GammaQ(a, x), want, 1e-9) {
				t.Errorf("a=%v: GammaQ(GammaPInv(1 − %v) = %v) = %v, want %v", a, q, x, GammaQ(a, x), want)
			}
		}
	}
	if got := GammaPInv(2, 1e-320); got != 0 {
		t.Errorf("GammaPInv(2, 1e-320) = %v, want 0 (p below the smallest normal)", got)
	}
}

func TestGammaPInvEdges(t *testing.T) {
	if got := GammaPInv(2, 0); got != 0 {
		t.Errorf("GammaPInv(2, 0) = %v, want 0", got)
	}
	if got := GammaPInv(2, 1); !math.IsInf(got, 1) {
		t.Errorf("GammaPInv(2, 1) = %v, want +Inf", got)
	}
	if !math.IsNaN(GammaPInv(-1, 0.5)) {
		t.Error("GammaPInv with a <= 0 should be NaN")
	}
	if !math.IsNaN(GammaPInv(2, -0.1)) {
		t.Error("GammaPInv with p < 0 should be NaN")
	}
}

func TestNormCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{1, 0.8413447460685429},
		{-3, 0.0013498980316300933},
	}
	for _, c := range cases {
		if got := NormCDF(c.x); !almostEqual(got, c.want, 1e-10) {
			t.Errorf("NormCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNormCDFInvRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-12, 1e-6, 0.001, 0.025, 0.2, 0.5, 0.8, 0.975, 0.999, 1 - 1e-10} {
		x := NormCDFInv(p)
		if got := NormCDF(x); !almostEqual(got, p, 1e-9) {
			t.Errorf("NormCDF(NormCDFInv(%v)=%v) = %v", p, x, got)
		}
	}
}

func TestNormCDFInvProperty(t *testing.T) {
	f := func(u float64) bool {
		p := math.Abs(math.Mod(u, 1))
		if p == 0 || p == 1 || math.IsNaN(p) {
			return true
		}
		x := NormCDFInv(p)
		// Symmetry: Φ⁻¹(1-p) = -Φ⁻¹(p).
		y := NormCDFInv(1 - p)
		return almostEqual(x, -y, 1e-7) && almostEqual(NormCDF(x), p, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestNormCDFInvEdges(t *testing.T) {
	if !math.IsInf(NormCDFInv(0), -1) {
		t.Error("NormCDFInv(0) should be -Inf")
	}
	if !math.IsInf(NormCDFInv(1), 1) {
		t.Error("NormCDFInv(1) should be +Inf")
	}
	if !math.IsNaN(NormCDFInv(-0.5)) || !math.IsNaN(NormCDFInv(1.5)) {
		t.Error("NormCDFInv outside [0,1] should be NaN")
	}
}

func TestNormPDFIntegratesToOne(t *testing.T) {
	// Trapezoid over [-10, 10].
	const n = 200000
	h := 20.0 / n
	sum := 0.5 * (NormPDF(-10) + NormPDF(10))
	for i := 1; i < n; i++ {
		sum += NormPDF(-10 + float64(i)*h)
	}
	sum *= h
	if !almostEqual(sum, 1, 1e-8) {
		t.Errorf("∫φ = %v, want 1", sum)
	}
}

func TestDigammaKnownValues(t *testing.T) {
	const eulerGamma = 0.5772156649015329
	cases := []struct{ x, want float64 }{
		{1, -eulerGamma},
		{2, 1 - eulerGamma},
		{3, 1.5 - eulerGamma},
		{0.5, -eulerGamma - 2*math.Ln2},
	}
	for _, c := range cases {
		if got := Digamma(c.x); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Digamma(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestDigammaRecurrence(t *testing.T) {
	// ψ(x+1) = ψ(x) + 1/x.
	for x := 0.1; x < 20; x += 0.31 {
		lhs := Digamma(x + 1)
		rhs := Digamma(x) + 1/x
		if !almostEqual(lhs, rhs, 1e-9) {
			t.Errorf("recurrence fails at x=%v: %v vs %v", x, lhs, rhs)
		}
	}
}

func TestErfDelegation(t *testing.T) {
	for x := -3.0; x <= 3; x += 0.5 {
		if Erf(x) != math.Erf(x) || Erfc(x) != math.Erfc(x) {
			t.Fatalf("Erf/Erfc delegation mismatch at %v", x)
		}
	}
}
