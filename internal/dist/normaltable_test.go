package dist

import (
	"fmt"
	"math"
	"testing"

	"vbr/internal/specfn"
)

// TestNormalTableMatchesExact holds the Gaussian-axis Eq. 13 table to
// the exact map F⁻¹(Φ(x)) over a dense sweep of [−6, 6], for the paper's
// parameters, a heavier tail and a skewed small-mean body: the largest
// relative error is within bound at each size, Value never decreases,
// and beyond the nodes it is the exact expression bit for bit.
func TestNormalTableMatchesExact(t *testing.T) {
	points := 240_001 // a step of 5e-5, about 15 points per node gap at n = 10,000
	if testing.Short() {
		points = 48_001
	}
	for _, p := range []GammaParetoParams{
		{MuGamma: 27791, SigmaGamma: 6254, TailSlope: 12.42}, // the paper's
		{MuGamma: 27791, SigmaGamma: 6254, TailSlope: 6},
		{MuGamma: 1000, SigmaGamma: 900, TailSlope: 3},
	} {
		gp, err := NewGammaParetoFromParams(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			n   int
			tol float64
		}{{1000, 5e-4}, {10000, 1e-5}} {
			t.Run(fmt.Sprintf("%v/n=%d", p, c.n), func(t *testing.T) {
				t.Parallel()
				tab, err := gp.NormalTable(c.n)
				if err != nil {
					t.Fatal(err)
				}
				if tab.Len() != c.n || tab.Bytes() != 8*int64(c.n) {
					t.Fatalf("Len %d, Bytes %d for %d points", tab.Len(), tab.Bytes(), c.n)
				}
				if lo := specfn.NormCDFInv(0.5 / float64(c.n)); tab.lo != lo || math.Abs(tab.hi+lo) > 1e-12 {
					t.Fatalf("nodes span [%v, %v], want [%v, %v]", tab.lo, tab.hi, lo, -lo)
				}
				worst, worstX, prev := 0.0, 0.0, 0.0
				for k := 0; k < points; k++ {
					x := -6 + 12*float64(k)/float64(points-1)
					got, exact := tab.Value(x), gp.Quantile(specfn.NormCDF(x))
					if k > 0 && got < prev {
						t.Fatalf("Value decreases at x = %v: %v after %v", x, got, prev)
					}
					prev = got
					if x < tab.lo || x > tab.hi {
						if math.Float64bits(got) != math.Float64bits(exact) {
							t.Fatalf("beyond the nodes, Value(%v) = %v, want the exact %v", x, got, exact)
						}
						continue
					}
					if e := math.Abs(got-exact) / exact; e > worst {
						worst, worstX = e, x
					}
				}
				t.Logf("largest relative error %.3g at x = %.4f", worst, worstX)
				if worst > c.tol {
					t.Errorf("largest relative error %.3g at x = %.4f, want ≤ %g", worst, worstX, c.tol)
				}
			})
		}
	}
	gp, _ := NewGammaParetoFromParams(GammaParetoParams{MuGamma: 27791, SigmaGamma: 6254, TailSlope: 12})
	for _, n := range []int{1, 0, -3} {
		if _, err := gp.NormalTable(n); err == nil {
			t.Errorf("NormalTable(%d) should fail", n)
		}
	}
	tab, err := gp.NormalTable(10000)
	if err != nil {
		t.Fatal(err)
	}
	if v := tab.Value(-40); v != 0 {
		t.Errorf("Value(−40) = %v, want 0 (Φ underflows)", v)
	}
	if v := tab.Value(40); !math.IsInf(v, 1) {
		t.Errorf("Value(40) = %v, want +Inf (Φ rounds to 1)", v)
	}
	if v := tab.Value(math.NaN()); !math.IsNaN(v) {
		t.Errorf("Value(NaN) = %v, want NaN", v)
	}
}

// FuzzNormalTable: for any parameters the constructor accepts, any size
// in [2, 4096] and finite x ≤ x′, Value is a number, non-negative and
// non-decreasing.
func FuzzNormalTable(f *testing.F) {
	f.Add(27791.0, 6254.0, 12.42, 10000, -0.3, 2.43)
	f.Add(1000.0, 900.0, 3.0, 2, -5.0, 5.0)
	f.Add(27791.0, 6254.0, 0.5, 100, 3.7, 3.8)
	// Inputs the fuzzer found in the exact map beyond the nodes: a lower
	// tail at p ≈ 1e-55 (GammaPInv returned a value above the body's
	// median), an upper tail within 1e-13 of 1 (below the last node), and
	// p near 1e-319 and 1e-305 (NaN), for shapes 1.17, 7.1, 711 and 616.
	f.Add(904.0, 836.0, 3.0, 40, 3.0, -15.666666666666666)
	f.Add(27791.0, 10423.333333333334, 265.5, 21, 3.7, 7.6)
	f.Add(27791.0, 1042.3333333333333, 0.5, 100, 3.7, -38.2)
	f.Add(111164.0, 4479.857142857143, 265.5, 34, -37.3, 0.4222222222222222)
	f.Fuzz(func(t *testing.T, mu, sigma, slope float64, n int, x, x2 float64) {
		gp, err := NewGammaParetoFromParams(GammaParetoParams{MuGamma: mu, SigmaGamma: sigma, TailSlope: slope})
		if err != nil || n < 2 || n > 4096 || math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(x2) || math.IsInf(x2, 0) {
			t.Skip()
		}
		if x > x2 {
			x, x2 = x2, x
		}
		tab, err := gp.NormalTable(n)
		if err != nil {
			t.Fatal(err)
		}
		v, v2 := tab.Value(x), tab.Value(x2)
		if math.IsNaN(v) || math.IsNaN(v2) || v < 0 || v > v2 {
			t.Fatalf("Value(%v) = %v, Value(%v) = %v", x, v, x2, v2)
		}
	})
}
