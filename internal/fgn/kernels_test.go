package fgn

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"
)

// fnvHash folds a float64 series into an FNV-1a hash over the
// little-endian bit patterns of each value, so a single-bit divergence
// anywhere in the series changes the digest.
func fnvHash(xs []float64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, v := range xs {
		b := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (b >> s) & 0xff
			h *= prime
		}
	}
	return h
}

// TestHoskingPreTilingGolden pins the exact-Hosking output bit for bit
// against hashes captured at commit 0fdac9e, before the inner dot
// products were blocked into the kernels of kernels.go. Exact Hosking
// is the repository's bitwise reference; any reassociation of its
// floating-point sums — however statistically harmless — fails here.
func TestHoskingPreTilingGolden(t *testing.T) {
	ctx := context.Background()
	const n = 1024
	cases := []struct {
		h        float64
		want     uint64
		wantLast uint64 // Float64bits of x[n-1], for a readable failure
	}{
		{0.6, 0xa1fe5c1dbf3618a6, 0xbfe8babd3340bd90},
		{0.8, 0xa34e1597d93029f3, 0xbfefb119e1db1943},
		{0.9, 0xdb49ce28287eb4d8, 0xbfe52f2862d90e19},
	}
	for _, c := range cases {
		rng := rand.New(rand.NewPCG(7, 9))
		x, err := HoskingCtx(ctx, n, c.h, rng)
		if err != nil {
			t.Fatalf("HoskingCtx(H=%v): %v", c.h, err)
		}
		if got := math.Float64bits(x[n-1]); got != c.wantLast {
			t.Errorf("H=%v: x[%d] bits = %#x, want %#x", c.h, n-1, got, c.wantLast)
		}
		if got := fnvHash(x); got != c.want {
			t.Errorf("H=%v: series hash = %#x, want pre-tiling golden %#x", c.h, got, c.want)
		}
	}
}

// TestHoskingWarmPreTilingGolden pins the coefficient-schedule (warm)
// path against the same pre-tiling capture: HoskingFromCoeffs must
// reproduce the cold recursion's bits, through the blocked kernels.
func TestHoskingWarmPreTilingGolden(t *testing.T) {
	const n = 1024
	coeffs, err := NewHoskingCoeffs(0.8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(7, 9))
	x, err := HoskingFromCoeffs(context.Background(), n, coeffs, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fnvHash(x), uint64(0xa34e1597d93029f3); got != want {
		t.Errorf("warm H=0.8 series hash = %#x, want pre-tiling golden %#x", got, want)
	}
}

// TestHoskingStreamPreTilingGolden pins the streaming path — cold and
// warm, across uneven block boundaries that exercise the kernels' tail
// loops, one-point blocks and a single whole-series block — against the
// same golden.
func TestHoskingStreamPreTilingGolden(t *testing.T) {
	const n = 1024
	const want = uint64(0xa34e1597d93029f3)
	collect := func(s *HoskingStream, block int) []float64 {
		t.Helper()
		out := make([]float64, 0, n)
		buf := make([]float64, block)
		for {
			got, err := s.Next(context.Background(), buf)
			out = append(out, buf[:got]...)
			if err != nil {
				break
			}
		}
		if len(out) != n {
			t.Fatalf("stream produced %d points, want %d", len(out), n)
		}
		return out
	}

	coeffs, err := NewHoskingCoeffs(0.8)
	if err != nil {
		t.Fatal(err)
	}
	if err := coeffs.EnsureCtx(context.Background(), n); err != nil {
		t.Fatal(err)
	}
	// 37 is deliberately not a multiple of 4.
	for _, block := range []int{37, 1, n} {
		s, err := NewHoskingStream(n, 0.8, rand.New(rand.NewPCG(7, 9)))
		if err != nil {
			t.Fatal(err)
		}
		if got := fnvHash(collect(s, block)); got != want {
			t.Errorf("block %d: cold stream hash = %#x, want %#x", block, got, want)
		}

		ws, err := NewHoskingStreamWithCoeffs(n, coeffs, rand.New(rand.NewPCG(7, 9)))
		if err != nil {
			t.Fatal(err)
		}
		if got := fnvHash(collect(ws, block)); got != want {
			t.Errorf("block %d: warm stream hash = %#x, want %#x", block, got, want)
		}
	}
}

// TestDotKernelsMatchScalar cross-checks the unrolled kernels against
// the plain scalar loops bit for bit, across lengths that hit every
// unroll remainder (0–3) and both the empty and singleton edges.
func TestDotKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 11))
	for n := 0; n <= 67; n++ {
		a := make([]float64, n)
		b := make([]float64, n+3) // b longer than a, as at the call sites
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		acc := rng.NormFloat64()

		wantAdd, wantSub := acc, acc
		for i, j := 0, len(b)-1; i < n; i, j = i+1, j-1 {
			wantAdd += a[i] * b[j]
			wantSub -= a[i] * b[j]
		}
		if got := dotRevAdd(acc, a, b); math.Float64bits(got) != math.Float64bits(wantAdd) {
			t.Fatalf("dotRevAdd n=%d: %v, scalar %v", n, got, wantAdd)
		}
		if got := dotRevSub(acc, a, b); math.Float64bits(got) != math.Float64bits(wantSub) {
			t.Fatalf("dotRevSub n=%d: %v, scalar %v", n, got, wantSub)
		}
	}
}
