package fgn

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"vbr/internal/stats"
)

// acfMoments is the mean and standard error, across realizations, of
// the sample autocorrelation at lags 0..maxLag.
type acfMoments struct{ mean, se []float64 }

// sampleACFs draws reps series with draw, seeding realization r with
// PCG(r, stream), and summarizes their sample autocorrelations.
func sampleACFs(t *testing.T, reps, maxLag int, stream uint64, draw func(*rand.Rand) ([]float64, error)) acfMoments {
	t.Helper()
	sum, sq := make([]float64, maxLag+1), make([]float64, maxLag+1)
	for r := range reps {
		x, err := draw(rand.New(rand.NewPCG(uint64(r), stream)))
		if err != nil {
			t.Fatal(err)
		}
		acf, err := stats.Autocorrelation(x, maxLag)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range acf {
			sum[k] += v
			sq[k] += v * v
		}
	}
	m := acfMoments{mean: make([]float64, maxLag+1), se: make([]float64, maxLag+1)}
	n := float64(reps)
	for k := range sum {
		m.mean[k] = sum[k] / n
		m.se[k] = math.Sqrt((sq[k] - sum[k]*sum[k]/n) / (n - 1) / n)
	}
	return m
}

// TestEnginesDrawOneProcess: batch Davies–Harte and Hosking draw the
// same process. Over 200 realizations of 8,192 points each, their mean
// sample autocorrelations agree at every lag 1–100 within five standard
// errors of the difference, at H ∈ {0.6, 0.8, 0.9}. Comparing sample
// ACFs with each other, not with FarimaACF, cancels the sample ACF's
// own downward bias under long-range dependence, which is the same for
// both when the process is. An embedding of the fGn ACF at the same H
// differs by 32 to 49 standard errors at lag 1. -short is the
// race-detector tier and skips it.
func TestEnginesDrawOneProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("1,200 draws of 8,192 points")
	}
	ctx := context.Background()
	const n, reps, maxLag = 8192, 200, 100
	for _, h := range []float64{0.6, 0.8, 0.9} {
		coeffs, err := NewHoskingCoeffs(h)
		if err != nil {
			t.Fatal(err)
		}
		eig, err := DaviesHarteEigenCtx(ctx, n, h)
		if err != nil {
			t.Fatal(err)
		}
		hk := sampleACFs(t, reps, maxLag, 1, func(rng *rand.Rand) ([]float64, error) {
			return HoskingFromCoeffs(ctx, n, coeffs, rng)
		})
		dh := sampleACFs(t, reps, maxLag, 2, func(rng *rand.Rand) ([]float64, error) {
			return DaviesHarteFromEigenCtx(ctx, n, eig, rng)
		})
		var worst float64
		for k := 1; k <= maxLag; k++ {
			d := dh.mean[k] - hk.mean[k]
			se := math.Hypot(dh.se[k], hk.se[k])
			worst = max(worst, math.Abs(d)/se)
			if math.Abs(d) > 5*se {
				t.Errorf("H=%v lag %d: Davies–Harte %.4f, Hosking %.4f, |Δ| = %.4f > 5 SE = %.4f",
					h, k, dh.mean[k], hk.mean[k], math.Abs(d), 5*se)
			}
		}
		t.Logf("H=%v: lag 1 Davies–Harte %.4f ± %.4f, Hosking %.4f ± %.4f; largest |Δ|/SE over lags 1–%d: %.2f",
			h, dh.mean[1], dh.se[1], hk.mean[1], hk.se[1], maxLag, worst)
	}
}

// TestPaxsonImpliedACF: the autocorrelation a Paxson draw implies, the
// plain DFT (1/M²)·Σ_k a_k²·cos(2πjk/M) of its amplitudes, stays within
// a documented gap of FarimaACF at lags 1–100 for 8,192 points. The
// sampler drops the zero frequency (a_0 = 0), which lowers every lag by
// about the variance of the M-point mean, ≈ M^(2H−2) up to a constant,
// so the gap grows with H: largest gaps 0.0007, 0.0044, 0.026 and 0.14
// at H = 0.6, 0.7, 0.8 and 0.9.
func TestPaxsonImpliedACF(t *testing.T) {
	ctx := context.Background()
	const n, maxLag = 8192, 100
	cs, sn := trig(n)
	for _, c := range []struct{ h, gap float64 }{{0.6, 0.001}, {0.7, 0.005}, {0.8, 0.03}, {0.9, 0.15}} {
		spec, err := PaxsonSpectrumCtx(ctx, n, c.h)
		if err != nil {
			t.Fatal(err)
		}
		rho, err := FarimaACF(c.h, maxLag)
		if err != nil {
			t.Fatal(err)
		}
		var worst float64
		for j := 1; j <= maxLag; j++ {
			cov, _ := pairCov(spec.amp, cs, sn, 1/float64(n)/float64(n), j)
			worst = max(worst, math.Abs(cov-rho[j]))
		}
		t.Logf("H=%v: largest |ρ_Paxson − ρ_fARIMA| over lags 1–%d: %.4f", c.h, maxLag, worst)
		if worst > c.gap {
			t.Errorf("H=%v: Paxson's implied ACF is %.4f from FarimaACF, documented gap %v", c.h, worst, c.gap)
		}
	}
}
