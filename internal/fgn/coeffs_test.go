package fgn

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"
)

// TestHoskingFromCoeffsBitwise pins the tentpole invariant: the warm
// (schedule-driven) batch generator reproduces the cold recursion bit
// for bit for the same seed.
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

// TestHoskingCoeffsPrefixExtension checks the prefix-reuse rule: a
// schedule extended in stages carries exactly the entries a one-shot
// schedule computes, so any cached long schedule serves shorter runs.
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
	ik, iv, err := inc.Schedule(2048)
	if err != nil {
		t.Fatal(err)
	}
	ok, ov, err := one.Schedule(2048)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < 2048; k++ {
		if math.Float64bits(ik[k]) != math.Float64bits(ok[k]) || math.Float64bits(iv[k]) != math.Float64bits(ov[k]) {
			t.Fatalf("staged extension diverges at k=%d", k)
		}
	}
}

// cancelAfterCtx reports Canceled from Err after limit calls, so a
// schedule extension can be interrupted a deterministic number of
// iterations in — mimicking a client dropping a request mid-build.
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
// cancelled-extension panic: EnsureCtx used to pre-grow rho/phi to the
// target length before the loop, so a cancellation left them longer
// than kk/v and a later shorter request computed a negative make()
// length. A cached schedule must survive cancel → shorter retry →
// longer retry with bitwise-identical entries.
func TestHoskingCoeffsCancelledThenRetry(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		ctx  context.Context
	}{
		{"before-first-step", cancelled},
		{"mid-extension", &cancelAfterCtx{Context: context.Background(), limit: 300}},
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
			ck, cv, err := c.Schedule(2000)
			if err != nil {
				t.Fatal(err)
			}
			fk, fv, err := fresh.Schedule(2000)
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k < 2000; k++ {
				if math.Float64bits(ck[k]) != math.Float64bits(fk[k]) || math.Float64bits(cv[k]) != math.Float64bits(fv[k]) {
					t.Fatalf("retried schedule diverges from fresh at k=%d", k)
				}
			}
		})
	}
}

// TestHoskingStreamWithCoeffsBitwise: the warm stream's concatenated
// blocks equal the cold batch output bit for bit.
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
