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
// and Ĥ moves only by the rounding of the reordered block sums. It then
// holds the block fold to the per-frame fold under several partitions.
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

	// Block partitions: the same streams fed to a Monitor in blocks of 1,
	// 5 (its first boundaries fall inside the first 12 frames, before
	// any τ ≤ 4 window counts), 4,096 and n frames match the per-frame
	// fold, after every block and in every Probe field, bit for bit.
	for _, b := range []backend.Backend{backend.DaviesHarte, backend.Paxson} {
		for _, n := range []int{171_000, 400_000} {
			ys := collect(t, Config{Model: paperModel(), N: n, Seed: 19, Backend: b})
			for _, block := range []int{1, 5, 4096, n} {
				mo, ref := NewMonitor(n), NewMonitor(n)
				for lo := 0; lo < n; lo += block {
					blk := ys[lo:min(lo+block, n)]
					mo.Add(blk...)
					for _, v := range blk {
						addFrame(ref, v)
					}
					if got, want := mo.Probe(), ref.Probe(); !sameProbe(got, want) {
						t.Fatalf("%v n=%d blocks of %d, at frame %d: %+v, per-frame fold %+v", b, n, block, lo+len(blk), got, want)
					}
				}
			}
		}
	}
}

// addFrame is the per-frame Monitor.Add the block fold replaced, kept
// as its oracle: the MAVAR octaves take one value per call, level 1
// takes the frame, and each level above takes the block sum of the level
// below once that completes.
func addFrame(mo *Monitor, v float64) {
	add := func(l *aggLevel, s float64) {
		l.n++
		d := s - l.mean
		l.mean += d / float64(l.n)
		l.m2 += d * (s - l.mean)
	}
	mo.mavar.Add(v)
	add(&mo.levels[0], v)
	for i := 1; i < len(mo.levels); i++ {
		l := &mo.levels[i]
		l.acc += v
		if l.fill++; l.fill < 4 {
			return
		}
		v, l.acc, l.fill = l.acc, 0, 0
		add(l, v/float64(l.m))
	}
}

// sameProbe reports whether two probes agree in every field, bit for bit.
func sameProbe(a, b Probe) bool {
	bits := math.Float64bits
	return a.N == b.N && bits(a.Mean) == bits(b.Mean) && bits(a.Std) == bits(b.Std) &&
		bits(a.H) == bits(b.H) && a.Levels == b.Levels &&
		bits(a.HMavar) == bits(b.HMavar) && bits(a.HMavarErr) == bits(b.HMavarErr) &&
		a.MavarOctaves == b.MavarOctaves
}
