package stream

import (
	"context"
	"errors"
	"io"
	"math"
	"testing"

	"vbr/internal/backend"
)

// seqAggLevel is the variance–time level Monitor used before the
// cascade, kept verbatim as the oracle for Monitor.Add: every level adds
// every frame, so each block sum is a sequential sum of m frames.
type seqAggLevel struct {
	m    int
	acc  float64
	fill int

	n    int64
	mean float64
	m2   float64
}

func (l *seqAggLevel) add(v float64) {
	l.acc += v
	l.fill++
	if l.fill < l.m {
		return
	}
	s := l.acc / float64(l.m)
	l.acc, l.fill = 0, 0
	l.n++
	d := s - l.mean
	l.mean += d / float64(l.n)
	l.m2 += d * (s - l.mean)
}

// TestMonitorMatchesOracle holds the cascaded variance–time ladder to
// the sequential one it replaced, on paper-scale streams of both
// chunked engines: after every block, N, Mean and Std (level 1, whose
// update is unchanged) are bit-identical, the same levels enter the fit,
// and Ĥ moves only by the rounding of the reordered block sums.
func TestMonitorMatchesOracle(t *testing.T) {
	const hTol = 1e-12
	ctx := context.Background()
	var worst float64
	for _, b := range []backend.Backend{backend.DaviesHarte, backend.Paxson} {
		for _, n := range []int{171_000, 400_000} {
			s, err := OpenCtx(ctx, Config{Model: paperModel(), N: n, Seed: 19, Backend: b})
			if err != nil {
				t.Fatal(err)
			}
			var seq []seqAggLevel
			for m := 1; m <= maxAggLevel(n); m *= 4 {
				seq = append(seq, seqAggLevel{m: m})
			}
			// The oracle's moments read through the same Probe.
			ref := &Monitor{levels: make([]aggLevel, len(seq)), mavar: s.mon.mavar}
			for {
				blk, err := s.Next(ctx)
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range blk {
					for i := range seq {
						seq[i].add(v)
					}
				}
				for i, l := range seq {
					ref.levels[i] = aggLevel{m: l.m, n: l.n, mean: l.mean, m2: l.m2}
				}
				got, want := s.Probe(), ref.Probe()
				if got.N != want.N || math.Float64bits(got.Mean) != math.Float64bits(want.Mean) ||
					math.Float64bits(got.Std) != math.Float64bits(want.Std) || got.Levels != want.Levels {
					t.Fatalf("%v n=%d at frame %d: N/Mean/Std/Levels = %d/%v/%v/%d, oracle %d/%v/%v/%d",
						b, n, s.Pos(), got.N, got.Mean, got.Std, got.Levels, want.N, want.Mean, want.Std, want.Levels)
				}
				if d := math.Abs(got.H - want.H); d > hTol || math.IsNaN(got.H) != math.IsNaN(want.H) {
					t.Fatalf("%v n=%d at frame %d: Ĥ %v, oracle %v (|Δ| %.2e > %g)", b, n, s.Pos(), got.H, want.H, d, hTol)
				} else if d > worst {
					worst = d
				}
			}
		}
	}
	t.Logf("worst variance–time |ΔĤ| %.2e", worst)
}
