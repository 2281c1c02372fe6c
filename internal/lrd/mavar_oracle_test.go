package lrd

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"

	"vbr/internal/fgn"
)

// seqMAVAR is the octave accumulator OnlineMAVAR used before the
// cascade, kept verbatim as the oracle for OnlineMAVAR.Add: every
// octave adds every phase into a sub-block of max(1, τ/4) frames and
// re-sums a ring of the last 3f sub-block sums into B₀, B₁ and B₂ at
// each window, so each block sum is a sequential sum of τ phases.
type seqMAVAR struct {
	phase  float64
	n      int64
	levels []seqMAVARLevel
}

type seqMAVARLevel struct {
	tau int
	sub int // sub-block length: max(1, τ/mavarSubs)
	f   int // sub-blocks per window block: τ/sub

	acc  float64 // phase sum of the current, partially filled sub-block
	fill int
	ring [3 * mavarSubs]float64 // last 3f completed sub-block sums
	head int                    // next ring write position (mod 3f)
	subs int64                  // completed sub-blocks

	sumSq float64 // Σ (B₂ − 2B₁ + B₀)² over strided windows
	count int64   // second-difference windows folded into sumSq
}

func newSeqMAVAR(maxTau int) *seqMAVAR {
	o := &seqMAVAR{}
	for tau := 1; tau <= maxTau && len(o.levels) < maxMavarOctaves; tau *= 2 {
		sub := tau / mavarSubs
		if sub < 1 {
			sub = 1
		}
		o.levels = append(o.levels, seqMAVARLevel{tau: tau, sub: sub, f: tau / sub})
	}
	return o
}

func (o *seqMAVAR) Add(v float64) {
	o.phase += v
	o.n++
	for i := range o.levels {
		l := &o.levels[i]
		l.acc += o.phase
		l.fill++
		if l.fill < l.sub {
			continue
		}
		size := 3 * l.f
		l.ring[l.head] = l.acc
		l.head++
		if l.head == size {
			l.head = 0
		}
		l.subs++
		l.acc, l.fill = 0, 0
		if l.subs < int64(size) {
			continue
		}
		// The ring now holds the last 3f sub-block sums, oldest at the
		// next write position; the three window blocks B₀, B₁, B₂ are f
		// consecutive sub-blocks each.
		var b0, b1, b2 float64
		idx := l.head
		for j := 0; j < l.f; j++ {
			b0 += l.ring[idx]
			if idx++; idx == size {
				idx = 0
			}
		}
		for j := 0; j < l.f; j++ {
			b1 += l.ring[idx]
			if idx++; idx == size {
				idx = 0
			}
		}
		for j := 0; j < l.f; j++ {
			b2 += l.ring[idx]
			if idx++; idx == size {
				idx = 0
			}
		}
		d := b2 - 2*b1 + b0
		l.sumSq += d * d
		l.count++
	}
}

// online carries the oracle's per-octave sums into an OnlineMAVAR, so
// its ModVar and Ĥ are read through the same modVar and fit.
func (o *seqMAVAR) online() *OnlineMAVAR {
	on := &OnlineMAVAR{phase: o.phase, n: o.n}
	for _, l := range o.levels {
		on.levels = append(on.levels, mavarLevel{tau: l.tau, sumSq: l.sumSq, count: l.count})
	}
	return on
}

// TestOnlineMAVARMatchesOracle holds the cascaded accumulator to the
// sequential one it replaced: building each octave's block sums from
// the octave below changes only the summation order, so every octave
// completes the same windows (exactly mavarWindows), τ = 1 and τ = 2
// sum in the same order and stay bit-identical, and the other octaves'
// ModVar and the fitted Ĥ move only by rounding. The inputs are unit
// fARIMA(0, d, 0) noise and its video-scale map, whose large phase
// values make rounding in the block sums largest.
func TestOnlineMAVARMatchesOracle(t *testing.T) {
	const (
		modVarTol = 1e-11 // relative
		hTol      = 1e-13 // absolute
	)
	ctx := context.Background()
	var worstMV, worstH float64
	for _, h := range []float64{0.55, 0.7, 0.8, 0.9, 0.95} {
		x, err := fgn.DaviesHarteCtx(ctx, 171_000, h, rand.New(rand.NewPCG(uint64(h*1e6), 19)))
		if err != nil {
			t.Fatal(err)
		}
		video := make([]float64, len(x))
		for i, v := range x {
			video[i] = 27791 + 6254*v
		}
		for _, xs := range [][]float64{x, video} {
			for _, n := range []int{256, 300, 4096, 10_000, 65_536, 171_000} {
				maxTau := MaxMavarTau(n)
				got, want := NewOnlineMAVAR(maxTau), newSeqMAVAR(maxTau)
				for _, v := range xs[:n] {
					got.Add(v)
					want.Add(v)
				}
				ref := want.online()
				if len(got.levels) != len(ref.levels) {
					t.Fatalf("H=%g n=%d: %d octaves, oracle %d", h, n, len(got.levels), len(ref.levels))
				}
				for i := range got.levels {
					g, w := &got.levels[i], &ref.levels[i]
					if g.count != w.count || g.count != mavarWindows(n, g.tau) {
						t.Errorf("H=%g n=%d τ=%d: %d windows, oracle %d, mavarWindows %d",
							h, n, g.tau, g.count, w.count, mavarWindows(n, g.tau))
					}
					mg, mw := g.modVar(), w.modVar()
					if g.tau <= 2 {
						if math.Float64bits(mg) != math.Float64bits(mw) {
							t.Errorf("H=%g n=%d τ=%d: ModVar %v, oracle %v — not bit-identical", h, n, g.tau, mg, mw)
						}
						continue
					}
					rel := math.Abs(mg-mw) / math.Abs(mw)
					if !(rel <= modVarTol) {
						t.Errorf("H=%g n=%d τ=%d: ModVar %v, oracle %v (rel %.2e > %g)", h, n, g.tau, mg, mw, rel, modVarTol)
					}
					worstMV = max(worstMV, rel)
				}
				hg, og := got.Estimate()
				hw, ow := ref.Estimate()
				if og != ow || !(math.Abs(hg-hw) <= hTol) {
					t.Errorf("H=%g n=%d: Estimate (%v, %d), oracle (%v, %d), |ΔĤ| = %.2e > %g",
						h, n, hg, og, hw, ow, math.Abs(hg-hw), hTol)
				}
				worstH = max(worstH, math.Abs(hg-hw))
			}
		}
	}
	t.Logf("worst ModVar relative deviation %.2e, worst |ΔĤ| %.2e", worstMV, worstH)
}
