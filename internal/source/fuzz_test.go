package source

import (
	"context"
	"math"
	"testing"
)

// FuzzCascade drives the conservative-cascade generator across its
// parameter space and checks the generator invariants: every frame is
// finite and non-negative, and each macro-block conserves its mass
// (sum of the 2^depth leaves = mean·2^depth) within float tolerance.
func FuzzCascade(f *testing.F) {
	f.Add(uint64(1), 8, 25000.0, 1.5)
	f.Add(uint64(1994), 1, 1.0, 0.1)
	f.Add(uint64(7), 12, 1e9, 30.0)
	f.Add(uint64(0), 16, 1e-3, 0.5)
	f.Add(uint64(211), 1, 50.00025, 1.2538580246913578e-4) // both Gamma draws underflow
	f.Fuzz(func(t *testing.T, seed uint64, depth int, mean, beta float64) {
		b, err := Lookup("cascade")
		if err != nil {
			t.Fatal(err)
		}
		src, err := b.New(Params{
			"depth": float64(depth),
			"mean":  mean,
			"beta":  beta,
		}, seed)
		if err != nil {
			// Out-of-range parameters must be rejected, not produce
			// garbage frames.
			return
		}
		if depth < 1 || depth > 24 || !(mean > 0) || !(beta > 0) ||
			math.IsInf(mean, 0) || math.IsInf(beta, 0) {
			t.Fatalf("builder accepted invalid params depth=%d mean=%v beta=%v", depth, mean, beta)
		}
		block := 1 << depth
		frames := 2 * block
		if frames > 1<<14 {
			frames = block // keep deep cascades to one block per run
		}
		want := mean * float64(block)
		var sum float64
		for i := 0; i < frames; i++ {
			v, err := src.Next(context.Background())
			if err != nil {
				t.Fatalf("Next(%d): %v", i, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("frame %d not finite: %v", i, v)
			}
			if v < 0 {
				t.Fatalf("frame %d negative: %v", i, v)
			}
			sum += v
			if (i+1)%block == 0 {
				if math.Abs(sum-want) > 1e-6*want {
					t.Fatalf("block ending at frame %d has mass %v, want %v", i, sum, want)
				}
				sum = 0
			}
		}
	})
}
