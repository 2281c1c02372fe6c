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
// seeded 32k-point synthesis must look Gaussian in the marginal (KS),
// and self-similar with the right Hurst parameter to every estimator
// the repository trusts — variance–time and MAVAR inside their
// calibrated error bars (PR 8 battery), Whittle inside its asymptotic
// 95% CI. The seeds are fixed, so the gates are deterministic: a
// regression in the spectrum or the randomization moves a statistic
// and fails a hard bound, not a flaky one.
func TestPaxsonFidelity(t *testing.T) {
	ctx := context.Background()
	const n = 1 << 15
	std, err := dist.NewNormal(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	cal := lrd.DefaultCalibration()
	for _, h := range []float64{0.6, 0.8, 0.9} {
		rng := rand.New(rand.NewPCG(7, 9))
		x, err := PaxsonCtx(ctx, n, h, rng)
		if err != nil {
			t.Fatalf("PaxsonCtx(H=%v): %v", h, err)
		}

		// Unit variance by construction (the spectrum is normalized
		// discretely, not via a continuum constant).
		var mean, ss float64
		for _, v := range x {
			mean += v
		}
		mean /= float64(n)
		for _, v := range x {
			ss += (v - mean) * (v - mean)
		}
		if variance := ss / float64(n); math.Abs(variance-1) > 0.05 {
			t.Errorf("H=%v: sample variance %.4f, want ≈ 1", h, variance)
		}

		// KS against the standard normal on the standardized series
		// (the marginal-transform step consumes standardized input).
		xs := Standardize(append([]float64(nil), x...))
		ks, err := dist.KolmogorovDistance(xs, std)
		if err != nil {
			t.Fatal(err)
		}
		if ks > 0.01 {
			t.Errorf("H=%v: KS distance to N(0,1) = %.5f, want ≤ 0.01", h, ks)
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

		// Whittle under the exact FGN spectral model: true H inside the
		// asymptotic 95% CI.
		wh, err := lrd.WhittleFGN(x)
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
// (per frequency: power then phase; Nyquist: power then sign) is part
// of the contract — reordering draws changes every output bit.
func TestPaxsonGolden(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(7, 9))
	x, err := PaxsonCtx(ctx, 4096, 0.8, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := math.Float64bits(x[0]), uint64(0x3ff4e8e8aa871c52); got != want {
		t.Errorf("x[0] bits = %#x, want %#x", got, want)
	}
	if got, want := math.Float64bits(x[4095]), uint64(0x3feb163c8be32d70); got != want {
		t.Errorf("x[4095] bits = %#x, want %#x", got, want)
	}
	if got, want := fnvHash(x), uint64(0x237363e9b48fea43); got != want {
		t.Errorf("series hash = %#x, want golden %#x", got, want)
	}
}

// TestPaxsonSplitMatchesComposed pins the cache contract: synthesis
// from a precomputed spectrum must be bitwise identical to the
// composed call, for even and odd lengths (odd lengths share the even
// FFT plan one larger).
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

// TestPaxsonSingleton pins the n=1 degenerate case: one plain Gaussian
// draw, no FFT.
func TestPaxsonSingleton(t *testing.T) {
	ctx := context.Background()
	x, err := PaxsonCtx(ctx, 1, 0.8, rand.New(rand.NewPCG(5, 5)))
	if err != nil {
		t.Fatal(err)
	}
	want := rand.New(rand.NewPCG(5, 5)).NormFloat64()
	if len(x) != 1 || math.Float64bits(x[0]) != math.Float64bits(want) {
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
