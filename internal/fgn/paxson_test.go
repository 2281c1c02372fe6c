package fgn

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"vbr/internal/dist"
	"vbr/internal/errs"
	"vbr/internal/lrd"
)

// TestPaxsonFidelity is the gate battery that admits the approximate
// Paxson sampler as a generation backend: at H ∈ {0.6, 0.8, 0.9} a
// 32k-point synthesis must look Gaussian in the marginal (KS), and
// self-similar with the right Hurst parameter to every estimator the
// repository trusts — variance–time and MAVAR inside their calibrated
// error bars, Whittle inside its asymptotic 95% CI. The sample
// variance and the KS distance of one series spread too widely at
// H = 0.9 for one seed to gate them (a standard deviation near
// 0.05 in the variance), so their bounds apply to the means over
// fidelitySeeds series (PCG(s, 9), s = 1..fidelitySeeds); the
// estimators are gated on the fixed seed PCG(7, 9). The seeds are
// fixed, so the gates are deterministic: a regression in the spectrum
// or the randomization moves a statistic and fails a hard bound, not a
// flaky one.
func TestPaxsonFidelity(t *testing.T) {
	ctx := context.Background()
	const n, fidelitySeeds = 1 << 15, 16
	std, err := dist.NewNormal(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cal := lrd.DefaultCalibration()
	for _, h := range []float64{0.6, 0.8, 0.9} {
		// Unit variance by construction (the spectrum is normalized
		// discretely, not via a continuum constant), and a Gaussian
		// marginal: KS against the standard normal on the standardized
		// series (the marginal-transform step consumes standardized
		// input).
		var variance, ks float64
		for s := uint64(1); s <= fidelitySeeds; s++ {
			x, err := PaxsonCtx(ctx, n, h, rand.New(rand.NewPCG(s, 9)))
			if err != nil {
				t.Fatalf("PaxsonCtx(H=%v): %v", h, err)
			}
			var mean, ss float64
			for _, v := range x {
				mean += v
			}
			mean /= float64(n)
			for _, v := range x {
				ss += (v - mean) * (v - mean)
			}
			d, err := dist.KolmogorovDistance(Standardize(x), std)
			if err != nil {
				t.Fatal(err)
			}
			variance += ss / float64(n) / fidelitySeeds
			ks += d / fidelitySeeds
		}
		t.Logf("H=%v: mean sample variance %.4f, mean KS %.5f over %d series", h, variance, ks, fidelitySeeds)
		if math.Abs(variance-1) > 0.05 {
			t.Errorf("H=%v: mean sample variance %.4f, want ≈ 1", h, variance)
		}
		if ks > 0.01 {
			t.Errorf("H=%v: mean KS distance to N(0,1) = %.5f, want ≤ 0.01", h, ks)
		}

		x, err := PaxsonCtx(ctx, n, h, rand.New(rand.NewPCG(7, 9)))
		if err != nil {
			t.Fatalf("PaxsonCtx(H=%v): %v", h, err)
		}

		// Variance–time Ĥ, bias-corrected through the calibration
		// table; the true H must sit inside the calibrated bar.
		vt, err := lrd.VarianceTime(x, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if bar := cal.Bar(lrd.EstVarianceTime, vt.H, n); math.Abs(bar.H-h) > bar.CI95 {
			t.Errorf("H=%v: variance–time bar %.4f ± %.4f (raw %.4f) excludes true H",
				h, bar.H, bar.CI95, vt.H)
		}

		// Whittle under the fARIMA(0, d, 0) spectral model, the process
		// the sampler draws: true H inside the asymptotic 95% CI.
		wh, err := lrd.Whittle(x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(wh.H-h) > wh.CI95 {
			t.Errorf("H=%v: Whittle %.4f ± %.4f excludes true H", h, wh.H, wh.CI95)
		}

		// MAVAR with the PR 8 calibrated bias/σ bars.
		mv, err := lrd.MAVAR(x, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if bar := cal.Bar(lrd.EstMAVAR, mv.H, n); math.Abs(bar.H-h) > bar.CI95 {
			t.Errorf("H=%v: MAVAR bar %.4f ± %.4f (raw %.4f) excludes true H",
				h, bar.H, bar.CI95, mv.H)
		}
	}
}

// TestPaxsonGolden pins the sampler's bitwise determinism: a fixed seed
// must reproduce this exact series forever. The rng consumption order
// (per spectrum entry: N₁ then N₂, Pair.DrawCtx's contract) is part of
// it — reordering draws changes every output bit. The series is first
// held against paxsonOracle, so the pinned bits are a Paxson pair draw
// and not merely what the code returned when they were pinned.
func TestPaxsonGolden(t *testing.T) {
	ctx := context.Background()
	const n, h = 4096, 0.8
	x, err := PaxsonCtx(ctx, n, h, rand.New(rand.NewPCG(7, 9)))
	if err != nil {
		t.Fatal(err)
	}
	want := paxsonOracle(n, h, rand.New(rand.NewPCG(7, 9)))
	for i := range x {
		if d := math.Abs(x[i] - want[i]); d > 1e-12 {
			t.Fatalf("x[%d] = %v, oracle %v (|Δ| = %.3g)", i, x[i], want[i], d)
		}
	}
	if got, want := math.Float64bits(x[0]), uint64(0x3ffe24bcd1c36b89); got != want {
		t.Errorf("x[0] bits = %#x, want %#x", got, want)
	}
	if got, want := math.Float64bits(x[n-1]), uint64(0x3ff71c7c9806080c); got != want {
		t.Errorf("x[%d] bits = %#x, want %#x", n-1, got, want)
	}
	if got, want := fnvHash(x), uint64(0xac58342881e10f91); got != want {
		t.Errorf("series hash = %#x, want golden %#x", got, want)
	}
}

// paxsonOracle is the tolerance oracle for a Paxson batch draw of n
// points, n a power of two: the fARIMA spectral density
// (farimaDensity) sampled at the n Fourier frequencies, normalized to unit variance, drawn as
// a_k·(N₁ + iN₂) from rng in entry order, and synthesized by the plain
// inverse DFT x_t = (1/n)·Σ_k a_k·(N₁·cos(2πtk/n) − N₂·sin(2πtk/n)).
func paxsonOracle(n int, h float64, rng *rand.Rand) []float64 {
	half := n / 2
	p := make([]float64, half+1)
	var total neumaier
	for i := 1; i <= half; i++ {
		p[i] = farimaDensity(2*math.Pi*float64(i)/float64(n), h)
		if i < half {
			total.add(2 * p[i])
		} else {
			total.add(p[i])
		}
	}
	amp := make([]float64, n)
	for k := 1; k < n; k++ {
		amp[k] = math.Sqrt(p[min(k, n-k)]/total.value()) * float64(n)
	}
	re, im := make([]float64, n), make([]float64, n)
	for k := range amp {
		re[k], im[k] = amp[k]*rng.NormFloat64(), amp[k]*rng.NormFloat64()
	}
	cs, sn := trig(n)
	x := make([]float64, n)
	for t := range x {
		var sum neumaier
		for k := range amp {
			r := t * k % n
			sum.add(re[k]*cs[r] - im[k]*sn[r])
		}
		x[t] = sum.value() / float64(n)
	}
	return x
}

// TestPaxsonSplitMatchesComposed pins the cache contract: synthesis
// from a precomputed spectrum must be bitwise identical to the
// composed call, at powers of two and at lengths padded to one.
func TestPaxsonSplitMatchesComposed(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{2, 3, 17, 256, 1001} {
		p, err := PaxsonSpectrumCtx(ctx, n, 0.75)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		a, err := PaxsonFromSpectrumCtx(ctx, n, p, rand.New(rand.NewPCG(1, 2)))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		b, err := PaxsonCtx(ctx, n, 0.75, rand.New(rand.NewPCG(1, 2)))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(a) != n || len(b) != n {
			t.Fatalf("n=%d: lengths %d, %d", n, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("n=%d: split and composed diverge at %d: %v vs %v", n, i, a[i], b[i])
			}
		}
	}
}

// TestPaxsonErrors pins the argument validation and the cancellation
// path.
func TestPaxsonErrors(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(1, 1))
	if _, err := PaxsonCtx(ctx, 0, 0.8, rng); err == nil {
		t.Error("n=0: want error")
	}
	for _, h := range []float64{0, 1, -0.5, math.NaN()} {
		if _, err := PaxsonCtx(ctx, 16, h, rng); err == nil {
			t.Errorf("H=%v: want error", h)
		}
	}
	if _, err := PaxsonFromSpectrumCtx(ctx, 16, nil, nil); err == nil {
		t.Error("nil rng: want error")
	}
	short, err := PaxsonSpectrumCtx(ctx, 4, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PaxsonFromSpectrumCtx(ctx, 16, short, rng); err == nil {
		t.Error("short spectrum: want error")
	}
	if _, err := PaxsonFromSpectrumCtx(ctx, 16, nil, rng); err == nil {
		t.Error("nil spectrum: want error")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := PaxsonCtx(cancelled, 1024, 0.8, rng); !errors.Is(err, errs.ErrCancelled) {
		t.Errorf("cancelled ctx: got %v, want ErrCancelled", err)
	}
}

// TestPaxsonSingleton pins the n=1 case: a 2-point synthesis with
// a_0 = 0 and a_1 = 2 (unit variance), whose first point is
// Re(a_1·(N₁ + iN₂))/2, the N₁ of entry 1: the third normal the source
// yields.
func TestPaxsonSingleton(t *testing.T) {
	ctx := context.Background()
	x, err := PaxsonCtx(ctx, 1, 0.8, rand.New(rand.NewPCG(5, 5)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 5))
	rng.NormFloat64()
	rng.NormFloat64()
	want := rng.NormFloat64()
	if len(x) != 1 || math.Abs(x[0]-want) > 1e-15*math.Abs(want) {
		t.Errorf("PaxsonCtx(1) = %v, want [%v]", x, want)
	}
}

// FuzzPaxson exercises the sampler across arbitrary (n, h, seed)
// inputs: every valid combination must synthesize without error,
// produce exactly n finite values, and stay deterministic per seed.
func FuzzPaxson(f *testing.F) {
	ctx := context.Background()
	f.Add(16, 0.8, uint64(1))
	f.Add(1, 0.5, uint64(2))
	f.Add(255, 0.99, uint64(3))
	f.Add(256, 0.01, uint64(4))
	f.Fuzz(func(t *testing.T, n int, h float64, seed uint64) {
		if n < 1 || n > 1<<12 || !(h > 0 && h < 1) {
			t.Skip()
		}
		x, err := PaxsonCtx(ctx, n, h, rand.New(rand.NewPCG(seed, 0)))
		if err != nil {
			t.Fatalf("PaxsonCtx(%d, %v): %v", n, h, err)
		}
		if len(x) != n {
			t.Fatalf("got %d points, want %d", len(x), n)
		}
		for i, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite value %v at %d (n=%d h=%v)", v, i, n, h)
			}
		}
		y, err := PaxsonCtx(ctx, n, h, rand.New(rand.NewPCG(seed, 0)))
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				t.Fatalf("same seed diverges at %d", i)
			}
		}
	})
}

// FuzzDaviesHarte exercises the exact sampler across arbitrary
// (n, h, seed) inputs: every valid combination must embed without
// error (the circulant stays non-negative definite), produce exactly n
// finite values, and stay deterministic per seed.
func FuzzDaviesHarte(f *testing.F) {
	ctx := context.Background()
	f.Add(16, 0.8, uint64(1))
	f.Add(1, 0.5, uint64(2))
	f.Add(255, 0.99, uint64(3))
	f.Add(4096, 0.01, uint64(4))
	f.Add(3000, 0.3, uint64(5))
	f.Fuzz(func(t *testing.T, n int, h float64, seed uint64) {
		if n < 1 || n > 1<<12 || !(h > 0 && h < 1) {
			t.Skip()
		}
		x, err := DaviesHarteCtx(ctx, n, h, rand.New(rand.NewPCG(seed, 0)))
		if err != nil {
			t.Fatalf("DaviesHarteCtx(%d, %v): %v", n, h, err)
		}
		if len(x) != n {
			t.Fatalf("got %d points, want %d", len(x), n)
		}
		for i, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite value %v at %d (n=%d h=%v)", v, i, n, h)
			}
		}
		y, err := DaviesHarteCtx(ctx, n, h, rand.New(rand.NewPCG(seed, 0)))
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				t.Fatalf("same seed diverges at %d", i)
			}
		}
	})
}
