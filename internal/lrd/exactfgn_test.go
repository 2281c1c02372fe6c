package lrd

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"testing"

	"vbr/internal/fft"
)

// fgnACF is the autocorrelation of fractional Gaussian noise with Hurst
// parameter h at lags 0..maxLag:
//
//	ρ_k = ½(|k+1|^{2H} − 2|k|^{2H} + |k−1|^{2H}).
//
// Every generator in the repository draws fARIMA(0, d, 0), so this
// formula and exactFGN exist only to give WhittleFGN, the one fGn model
// outside the tests, input from its own model.
func fgnACF(h float64, maxLag int) []float64 {
	rho := make([]float64, maxLag+1)
	h2 := 2 * h
	for k := range rho {
		kf := float64(k)
		rho[k] = 0.5 * (math.Pow(kf+1, h2) - 2*math.Pow(kf, h2) + math.Pow(math.Abs(kf-1), h2))
	}
	return rho
}

// fgnAmplitudes embeds fgnACF in a circulant of M = 2^⌈log₂ n⌉·2 points
// (Davies–Harte) and returns its amplitudes a_k = √(λ_k/M), λ_k the
// circulant's eigenvalues, clamped at zero.
func fgnAmplitudes(n int, h float64) []float64 {
	m := 2 << bits.Len(uint(n-1))
	rho := fgnACF(h, m/2)
	row := make([]complex128, m)
	for k := 0; k <= m/2; k++ {
		row[k] = complex(rho[k], 0)
		if k > 0 && k < m/2 {
			row[m-k] = row[k]
		}
	}
	fft.NewPlan(m, fft.DirForward).Transform(row)
	amp := make([]float64, m)
	for k := range amp {
		amp[k] = math.Sqrt(max(real(row[min(k, m-k)]), 0) / float64(m))
	}
	return amp
}

// exactFGN draws n points of unit-variance fractional Gaussian noise,
// exact in distribution: the real part of the transform of
// a_k·(N₁ + iN₂) over fgnAmplitudes.
func exactFGN(n int, h float64, rng *rand.Rand) []float64 {
	amp := fgnAmplitudes(n, h)
	w := make([]complex128, len(amp))
	for k, a := range amp {
		w[k] = complex(a*rng.NormFloat64(), a*rng.NormFloat64())
	}
	fft.NewPlan(len(w), fft.DirForward).Transform(w)
	x := make([]float64, n)
	for i := range x {
		x[i] = real(w[i])
	}
	return x
}

// TestFGNACFProperties holds the fGn autocorrelation formula to its
// closed-form landmarks: ρ_0 = 1, ρ_1 = 2^{2H−1} − 1, the hyperbolic
// tail H(2H−1)k^{2H−2}, and negative correlation when H < 1/2.
func TestFGNACFProperties(t *testing.T) {
	rho := fgnACF(0.8, 1000)
	if rho[0] != 1 {
		t.Errorf("rho0 = %v, want 1", rho[0])
	}
	if want := math.Pow(2, 0.6) - 1; math.Abs(rho[1]-want) > 1e-12 {
		t.Errorf("rho1 = %v, want %v", rho[1], want)
	}
	if want := 0.8 * 0.6 * math.Pow(999, -0.4); math.Abs(rho[999]-want) > 0.01*want {
		t.Errorf("rho999 = %v, want %v within 1%%", rho[999], want)
	}
	if r := fgnACF(0.3, 5); r[1] >= 0 {
		t.Errorf("H=0.3 should give negative lag-1 correlation, got %v", r[1])
	}
}

// TestExactFGNMatchesACF: the sampler's amplitudes imply fgnACF in each
// draw, Σ_k a_k²·cos(2πjk/M) = ρ_j at every lag j ≤ M/2, so exactFGN is
// fGn in distribution.
func TestExactFGNMatchesACF(t *testing.T) {
	for _, h := range []float64{0.6, 0.8, 0.9} {
		const n = 1000
		amp := fgnAmplitudes(n, h)
		m := len(amp)
		rho := fgnACF(h, m/2)
		for j := 0; j <= m/2; j++ {
			var cov float64
			for k, a := range amp {
				cov += a * a * math.Cos(2*math.Pi*float64(j*k%m)/float64(m))
			}
			if d := math.Abs(cov - rho[j]); d > 1e-10 {
				t.Fatalf("H=%v lag %d: implied covariance %v, fGn %v (|Δ| = %.3g)", h, j, cov, rho[j], d)
			}
		}
	}
}
