package fgn

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"
)

// goldenOracleTol bounds how far a golden series may sit from the
// Levinson–Durbin oracle drawing the same innovations: the goldens pin
// bits, the oracle pins that those bits are Hosking's method.
const goldenOracleTol = 1e-12

// TestHoskingGolden pins the exact-Hosking output bit for bit, and ties
// each pinned series to the scalar Levinson–Durbin oracle of Eqs. 7–12.
// The closed-form generator sums in a different order from the
// recursion, so its bits are its own; any change to them — however
// statistically harmless — fails here and must re-pin deliberately.
func TestHoskingGolden(t *testing.T) {
	ctx := context.Background()
	const n = 1024
	cases := []struct {
		h        float64
		want     uint64
		wantLast uint64 // Float64bits of x[n-1], for a readable failure
	}{
		{0.6, 0x2c3a61b26e7ec27a, 0xbfe8babd3340bd4f},
		{0.8, 0xdfbced937f855b59, 0xbfefb119e1db1828},
		{0.9, 0x72c4f659ef726bce, 0xbfe52f2862d90b64},
	}
	for _, c := range cases {
		x, err := HoskingCtx(ctx, n, c.h, rand.New(rand.NewPCG(7, 9)))
		if err != nil {
			t.Fatalf("HoskingCtx(H=%v): %v", c.h, err)
		}
		if dev := maxAbsDev(x, levinsonHosking(n, c.h, rand.New(rand.NewPCG(7, 9)))); dev > goldenOracleTol {
			t.Errorf("H=%v: golden series sits %.3g from the Levinson oracle", c.h, dev)
		}
		if got := math.Float64bits(x[n-1]); got != c.wantLast {
			t.Errorf("H=%v: x[%d] bits = %#x, want %#x", c.h, n-1, got, c.wantLast)
		}
		if got := fnvHash(x); got != c.want {
			t.Errorf("H=%v: series hash = %#x, want golden %#x", c.h, got, c.want)
		}
	}
}

// TestHoskingWarmGolden pins the coefficient-driven path against the
// same golden: HoskingFromCoeffs on coefficients grown for a longer run
// reproduces HoskingCtx's bits.
func TestHoskingWarmGolden(t *testing.T) {
	const n = 1024
	coeffs, err := NewHoskingCoeffs(0.8)
	if err != nil {
		t.Fatal(err)
	}
	if err := coeffs.EnsureCtx(context.Background(), 3*n); err != nil {
		t.Fatal(err)
	}
	x, err := HoskingFromCoeffs(context.Background(), n, coeffs, rand.New(rand.NewPCG(7, 9)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fnvHash(x), uint64(0xdfbced937f855b59); got != want {
		t.Errorf("warm H=0.8 series hash = %#x, want golden %#x", got, want)
	}
}

// TestHoskingStreamGolden pins the streaming path against the same
// golden across block sizes: one-point blocks, 37-point blocks, which
// straddle every base-block and tree boundary at a different offset,
// and a single whole-series block.
func TestHoskingStreamGolden(t *testing.T) {
	const n = 1024
	const want = uint64(0xdfbced937f855b59)
	coeffs, err := NewHoskingCoeffs(0.8)
	if err != nil {
		t.Fatal(err)
	}
	if err := coeffs.EnsureCtx(context.Background(), n); err != nil {
		t.Fatal(err)
	}
	for _, block := range []int{1, 37, n} {
		s, err := NewHoskingStreamWithCoeffs(n, coeffs, rand.New(rand.NewPCG(7, 9)))
		if err != nil {
			t.Fatal(err)
		}
		if got := fnvHash(drain(t, s, block)); got != want {
			t.Errorf("block %d: stream hash = %#x, want %#x", block, got, want)
		}
	}
}

// drain collects a stream read in blocks of the given size.
func drain(t *testing.T, s *HoskingStream, block int) []float64 {
	t.Helper()
	out := make([]float64, 0, s.n)
	buf := make([]float64, block)
	for {
		got, err := s.Next(context.Background(), buf)
		out = append(out, buf[:got]...)
		if err != nil {
			break
		}
	}
	if len(out) != s.n {
		t.Fatalf("stream produced %d points, want %d", len(out), s.n)
	}
	return out
}

// TestHoskingMatchesLevinsonOracle is the tolerance oracle: across the
// Hurst range, the closed-form generator and the O(n²) recursion draw
// the same innovations and agree to 1e-9 in absolute terms at
// n = 20,000. Relative deviation is the wrong yardstick: it blows up on
// outputs near zero.
func TestHoskingMatchesLevinsonOracle(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 3000
	}
	for _, h := range []float64{0.1, 0.3, 0.5, 0.55, 0.8, 0.95} {
		got, err := HoskingCtx(context.Background(), n, h, rand.New(rand.NewPCG(11, uint64(1000*h))))
		if err != nil {
			t.Fatal(err)
		}
		want := levinsonHosking(n, h, rand.New(rand.NewPCG(11, uint64(1000*h))))
		if dev := maxAbsDev(got, want); dev > 1e-9 {
			t.Errorf("H=%v: max |Δ| = %.3g from the Levinson oracle at n=%d, want ≤ 1e-9", h, dev, n)
		}
	}
}

// TestHoskingIndependentOfLength pins that the tree is aligned at
// absolute positions: a run of n points is bitwise the prefix of a
// longer run with the same seed, whatever the two lengths.
func TestHoskingIndependentOfLength(t *testing.T) {
	ctx := context.Background()
	long, err := HoskingCtx(ctx, 5000, 0.7, rand.New(rand.NewPCG(3, 4)))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 64, 65, 128, 1000, 4096, 4097} {
		short, err := HoskingCtx(ctx, n, 0.7, rand.New(rand.NewPCG(3, 4)))
		if err != nil {
			t.Fatal(err)
		}
		for i := range short {
			if math.Float64bits(short[i]) != math.Float64bits(long[i]) {
				t.Fatalf("n=%d: x[%d] differs from the 5000-point run", n, i)
			}
		}
	}
}

// TestConvolveMatchesDirect checks one tree step of every level up to
// 1024 against the direct sums it replaces, including targets cut
// short at the end of a run.
func TestConvolveMatchesDirect(t *testing.T) {
	const d = 0.3
	rng := rand.New(rand.NewPCG(5, 6))
	lags := make([]float64, 2048)
	fillLags(lags[1:], d)
	for s := baseBlock; s <= 1024; s *= 2 {
		lv := newLevel(s, d)
		z := make([]float64, s)
		for i := range z {
			z[i] = rng.NormFloat64()
		}
		for _, m := range []int{s, s - 1, 1} {
			dst := make([]float64, m)
			lv.convolve(make([]complex128, s), z, dst)
			for t0 := range dst {
				var want float64
				for i, zi := range z {
					want += lags[s+t0-i] * zi
				}
				if math.Abs(dst[t0]-want) > 1e-12 {
					t.Fatalf("s=%d m=%d: dst[%d] = %v, direct %v", s, m, t0, dst[t0], want)
				}
			}
		}
	}
}

// maxAbsDev is the largest |a_i − b_i|.
func maxAbsDev(a, b []float64) float64 {
	var dev float64
	for i := range a {
		dev = math.Max(dev, math.Abs(a[i]-b[i]))
	}
	return dev
}
