package stream

import (
	"context"
	"fmt"
	"math"
	"testing"

	"vbr/internal/backend"
	"vbr/internal/dist"
	"vbr/internal/genpool"
)

// TestDaviesHarteStreamMarginal and TestPaxsonStreamMarginal: stitching
// keeps every Gaussian-stage frame N(0,1), seams included, and the
// Eq. 13 transform of the result has the model marginal. Both run the
// one table of geometries in checkStitchedMarginal.
//
// One seed's KS distance cannot tell a correct stream from a broken
// seam: long-range dependence makes a single 2¹⁶-frame path wander, so
// even exact batch Davies–Harte exceeds KS 0.02 on most seeds. The
// gate therefore reads the Gaussian stage directly. For every offset o
// of the chunk stride S−L it averages x² over the frames c·(S−L)+o of
// one stream, then over 256 seeds, and requires that mean, and the
// mean over all offsets, to lie within five standard errors (taken
// across seeds, so within-stream dependence is accounted for) of 1. A
// mis-weighted crossfade moves the seam offsets; a mis-scaled
// amplitude moves every offset; Re and Im halves that are not
// independent inflate the variance where one pair's halves meet. The
// dense geometry puts a seam every 24 frames, where the Davies–Harte
// halves of one pair correlate most. The KS check pools seeds so that
// the Eq. 13 path stays exercised at the old 0.02 bound.
func TestDaviesHarteStreamMarginal(t *testing.T) { checkStitchedMarginal(t, backend.DaviesHarte) }

func TestPaxsonStreamMarginal(t *testing.T) { checkStitchedMarginal(t, backend.Paxson) }

func checkStitchedMarginal(t *testing.T, b backend.Backend) {
	const seeds, ksSeeds = 256, 16
	m := paperModel()
	pool := genpool.New(0)
	gp, err := m.Marginal()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct{ n, block, overlap int }{
		{1 << 16, 4096, 1024}, // the default: S = 8,192, stride 7,168
		{1 << 14, 24, 8},      // dense seams: S = 32, stride 24
	} {
		stride := synthLen(g.block, g.overlap) - g.overlap
		t.Run(fmt.Sprintf("stride=%d", stride), func(t *testing.T) {
			if testing.Short() && stride > 24 {
				// -short is the race-detector tier; this single-goroutine
				// arithmetic takes tens of seconds there and races nothing.
				t.Skip("default stride runs in the full tier only")
			}
			ctx := context.Background()
			cfg := Config{Model: m, N: g.n, BlockSize: g.block, Overlap: g.overlap, Backend: b, Pool: pool}
			var off, offSq []float64 // per offset: Σ and Σ² over seeds of the seed's mean x²
			var all, allSq float64   // the same for the seed's mean x² over every frame
			sum, cnt := make([]float64, stride), make([]float64, stride)
			buf := make([]float64, g.block)
			off, offSq = make([]float64, stride), make([]float64, stride)
			var pooled []float64
			for seed := uint64(1); seed <= seeds; seed++ {
				cfg.Seed = seed
				s, err := OpenCtx(ctx, cfg)
				if err != nil {
					t.Fatal(err)
				}
				clear(sum)
				clear(cnt)
				var tot float64
				for f := 0; f < g.n; {
					k, err := s.gauss.Next(ctx, buf)
					if err != nil {
						t.Fatalf("seed %d frame %d: %v", seed, f, err)
					}
					for _, x := range buf[:k] {
						sum[f%stride] += x * x
						cnt[f%stride]++
						tot += x * x
						f++
					}
				}
				for o := range sum {
					v := sum[o] / cnt[o]
					off[o] += v
					offSq[o] += v * v
				}
				v := tot / float64(g.n)
				all += v
				allSq += v * v
				if seed <= ksSeeds {
					pooled = append(pooled, collect(t, cfg)...)
				}
			}
			worst := 0.0 // the largest |variance − 1| in standard errors
			within5SE := func(what string, s1, s2 float64) {
				mean := s1 / seeds
				se := math.Sqrt((s2 - seeds*mean*mean) / (seeds - 1) / seeds)
				worst = max(worst, math.Abs(mean-1)/se)
				if math.Abs(mean-1) > 5*se {
					t.Errorf("%s: Gaussian-stage variance %.4f, want 1 ± 5·%.4f", what, mean, se)
				}
			}
			for o := range off {
				within5SE(fmt.Sprintf("offset %d of %d", o, stride), off[o], offSq[o])
			}
			within5SE("all offsets", all, allSq)
			d, err := dist.KolmogorovDistance(pooled, gp)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("worst offset %.2f SE from 1; pooled KS %.4f", worst, d)
			if d > 0.02 {
				t.Errorf("KS distance of %d pooled frames to the model marginal = %v, want ≤ 0.02", len(pooled), d)
			}
		})
	}
}
