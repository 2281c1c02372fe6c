package fgn

import (
	"context"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
)

// TestHoskingFromCoeffsBitwise pins that the coefficient-driven batch
// generator reproduces HoskingCtx bit for bit for the same seed.
func TestHoskingFromCoeffsBitwise(t *testing.T) {
	ctx := context.Background()
	for _, h := range []float64{0.55, 0.8, 0.95} {
		cold, err := HoskingCtx(ctx, 3000, h, rand.New(rand.NewPCG(7, 9)))
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewHoskingCoeffs(h)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := HoskingFromCoeffs(context.Background(), 3000, c, rand.New(rand.NewPCG(7, 9)))
		if err != nil {
			t.Fatal(err)
		}
		for i := range cold {
			if math.Float64bits(cold[i]) != math.Float64bits(warm[i]) {
				t.Fatalf("H=%v: warm[%d]=%x cold[%d]=%x", h, i, math.Float64bits(warm[i]), i, math.Float64bits(cold[i]))
			}
		}
	}
}

// sameCoeffs fails unless a and b hold bitwise-identical factors over
// their first n points and identical spectra at every level n uses.
func sameCoeffs(t *testing.T, a, b *HoskingCoeffs, n int) {
	t.Helper()
	if a.Len() < n || b.Len() < n {
		t.Fatalf("coefficients cover %d and %d points, want %d", a.Len(), b.Len(), n)
	}
	bits := math.Float64bits
	for k := range n {
		fa, fb := a.fac[k], b.fac[k]
		if bits(fa.gain) != bits(fb.gain) || bits(fa.sd) != bits(fb.sd) || bits(fa.weight) != bits(fb.weight) {
			t.Fatalf("factors diverge at k=%d", k)
		}
	}
	for i := range levelsFor(n) {
		for k, p := range a.levels[i].coef {
			if p != b.levels[i].coef[k] {
				t.Fatalf("level %d spectrum diverges at bin %d", i, k)
			}
		}
	}
}

// TestHoskingCoeffsPrefixExtension checks the prefix-reuse rule:
// coefficients extended in stages carry exactly the entries of a
// one-shot extension, so any cached long run serves shorter ones.
func TestHoskingCoeffsPrefixExtension(t *testing.T) {
	ctx := context.Background()
	inc, err := NewHoskingCoeffs(0.8)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{10, 500, 501, 2048} {
		if err := inc.EnsureCtx(ctx, n); err != nil {
			t.Fatal(err)
		}
	}
	one, err := NewHoskingCoeffs(0.8)
	if err != nil {
		t.Fatal(err)
	}
	if err := one.EnsureCtx(ctx, 2048); err != nil {
		t.Fatal(err)
	}
	sameCoeffs(t, inc, one, 2048)
}

// cancelAfterCtx reports Canceled from Err after limit calls, so a
// coefficient extension can be interrupted a deterministic number of
// points in — mimicking a client dropping a request mid-build.
type cancelAfterCtx struct {
	context.Context
	calls, limit int
}

func (c *cancelAfterCtx) Err() error {
	c.calls++
	if c.calls > c.limit {
		return context.Canceled
	}
	return nil
}

// TestHoskingCoeffsCancelledThenRetry is the regression test for the
// cancelled-extension panic: an extension interrupted part way must
// leave coefficients that survive cancel → shorter retry → longer retry
// with bitwise-identical entries.
func TestHoskingCoeffsCancelledThenRetry(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		ctx  context.Context
	}{
		{"before-first-step", cancelled},
		// EnsureCtx checks every 1024 new points and before each level:
		// the second check falls at point 1025, and the fourth after the
		// first of the five levels 2000 points use.
		{"mid-extension", &cancelAfterCtx{Context: context.Background(), limit: 1}},
		{"mid-levels", &cancelAfterCtx{Context: context.Background(), limit: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewHoskingCoeffs(0.8)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.EnsureCtx(tc.ctx, 2000); err == nil {
				t.Fatal("expected a cancellation error")
			}
			// Shorter retry: panicked before the fix.
			if err := c.EnsureCtx(context.Background(), 500); err != nil {
				t.Fatalf("shorter retry after cancellation: %v", err)
			}
			// Longer retry resumes and completes.
			if err := c.EnsureCtx(context.Background(), 2000); err != nil {
				t.Fatalf("longer retry after cancellation: %v", err)
			}
			fresh, err := NewHoskingCoeffs(0.8)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.EnsureCtx(context.Background(), 2000); err != nil {
				t.Fatal(err)
			}
			sameCoeffs(t, c, fresh, 2000)
		})
	}
}

// TestHoskingStreamWithCoeffsBitwise: the stream's concatenated blocks
// equal the batch output bit for bit.
func TestHoskingStreamWithCoeffsBitwise(t *testing.T) {
	ctx := context.Background()
	const n = 2000
	cold, err := HoskingCtx(ctx, n, 0.8, rand.New(rand.NewPCG(3, 5)))
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewHoskingCoeffs(0.8)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnsureCtx(context.Background(), n); err != nil {
		t.Fatal(err)
	}
	s, err := NewHoskingStreamWithCoeffs(n, c, rand.New(rand.NewPCG(3, 5)))
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	buf := make([]float64, 129) // deliberately unaligned block size
	for len(got) < n {
		k, err := s.Next(context.Background(), buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:k]...)
	}
	for i := range cold {
		if math.Float64bits(cold[i]) != math.Float64bits(got[i]) {
			t.Fatalf("stream warm[%d] != cold[%d]", i, i)
		}
	}
}

// TestDaviesHarteFromEigenBitwise: eigen-split synthesis equals the
// one-shot sampler bit for bit.
func TestDaviesHarteFromEigenBitwise(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{1, 2, 777, 4096} {
		cold, err := DaviesHarteCtx(ctx, n, 0.8, rand.New(rand.NewPCG(11, 13)))
		if err != nil {
			t.Fatal(err)
		}
		lam, err := DaviesHarteEigenCtx(ctx, n, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := DaviesHarteFromEigenCtx(ctx, n, lam, rand.New(rand.NewPCG(11, 13)))
		if err != nil {
			t.Fatal(err)
		}
		for i := range cold {
			if math.Float64bits(cold[i]) != math.Float64bits(warm[i]) {
				t.Fatalf("n=%d: warm[%d] != cold[%d]", n, i, i)
			}
		}
	}
}

// TestHoskingStreamBytesPerPoint bounds a stream's own memory on shared
// coefficients: drawing a paper-scale trace allocates one float64 per
// point plus the transform buffer of its largest tree block, at most 24
// bytes per point.
func TestHoskingStreamBytesPerPoint(t *testing.T) {
	const n = 171000
	c, err := NewHoskingCoeffs(0.8)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnsureCtx(context.Background(), n); err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 4096)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := NewHoskingStreamWithCoeffs(n, c, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := s.Next(context.Background(), buf); err != nil {
			break
		}
	}
	runtime.ReadMemStats(&after)
	if perPoint := float64(after.TotalAlloc-before.TotalAlloc) / n; perPoint > 24 {
		t.Errorf("stream allocated %.2f bytes per point, want ≤ 24", perPoint)
	}
}

// TestHoskingStreamZeroAlloc pins that the per-point loop allocates
// nothing once the stream's transform buffer exists.
func TestHoskingStreamZeroAlloc(t *testing.T) {
	const n = 1 << 16
	c, err := NewHoskingCoeffs(0.8)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnsureCtx(context.Background(), n); err != nil {
		t.Fatal(err)
	}
	s, err := NewHoskingStreamWithCoeffs(n, c, rand.New(rand.NewPCG(1, 2)))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 256)
	if _, err := s.Next(context.Background(), buf[:baseBlock+1]); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.Next(context.Background(), buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Next allocated %v times per call, want 0", allocs)
	}
}
