package fgn

import (
	"context"
	"fmt"
	"math/rand/v2"

	"vbr/internal/errs"
	"vbr/internal/fft"
	"vbr/internal/obs"
)

// Pair is a chunk engine's pair draw: two independent series of the
// engine's length from one transform (Dietrich & Newsam 1997). It
// fills the whole spectrum buffer with w_k = a_k·(N₁ + iN₂), N₁ and N₂
// independent N(0,1), and runs the engine's plan, so Re(w) and Im(w)
// are the two draws. Each engine builds its amplitudes a_k once, at
// power-of-two lengths only, with a_k = a_{len−k}, which makes the
// Re×Im cross-covariance Σ_k a_k²·sin(2πjk/len) exactly zero, and
// Σ_k a_k²·cos(2πjk/len) the engine's own covariance (over len² for
// Paxson's normalized inverse transform). For Paxson the Hermitian
// part of a_k·(N₁ + iN₂) is the single draw's Exp(1)-power,
// uniform-phase coefficient, a complex normal in law; only the Nyquist
// coefficient's law changes, from ±√(p·Exp) to a real Gaussian of the
// same variance.
// A Pair shares its engine's plan and is safe for concurrent use.
type Pair struct {
	amp    []float64 // a_k, one per spectrum entry
	plan   *fft.Plan
	n      int    // points per draw
	points string // obs counter of points drawn
}

// pairLen reports whether an engine of n points builds its pair draw.
// Only the stitched streams draw pairs, always at a power-of-two chunk
// length; at any other length, such as a 171,000-frame batch trace, the
// amplitude vector would be cached memory that nothing reads.
func pairLen(n int) bool { return n&(n-1) == 0 }

// newPair builds the pair draw of an n-point engine whose n ≤ 1
// degenerate case needs no transform: the pair is then two plain
// N(0,1) draws.
func newPair(n int, amp []float64, plan *fft.Plan, points string) Pair {
	if n == 1 {
		amp, plan = []float64{1}, fft.NewPlan(1, fft.DirForward)
	}
	return Pair{amp: amp, plan: plan, n: n, points: points}
}

// Len is the length of the spectrum buffer DrawCtx fills: 2n for
// Davies–Harte, m for Paxson, 1 for n == 1.
func (p Pair) Len() int { return len(p.amp) }

// bytes is the resident size of the amplitude vector.
func (p Pair) bytes() int64 { return 8 * int64(len(p.amp)) }

// DrawCtx draws two independent series into work, which must hold Len
// entries: on return Re(work[j]) and Im(work[j]), j < n, are the two
// draws. It consumes two NormFloat64 per entry, N₁ then N₂, in entry
// order, and allocates nothing.
//
//vbrlint:hotpath
func (p Pair) DrawCtx(ctx context.Context, work []complex128, rng *rand.Rand) error {
	if rng == nil {
		return fmt.Errorf("fgn: generation needs a random source")
	}
	if p.plan == nil {
		return fmt.Errorf("fgn: no pair draw: engines build one only at power-of-two lengths")
	}
	if len(work) != len(p.amp) {
		return fmt.Errorf("fgn: pair spectrum buffer holds %d entries, want %d", len(work), len(p.amp))
	}
	if ctx.Err() != nil {
		return errs.Cancelled(ctx)
	}
	for k, a := range p.amp {
		re := rng.NormFloat64()
		im := rng.NormFloat64()
		work[k] = complex(a*re, a*im)
	}
	p.plan.Transform(work)
	obs.From(ctx).Count(p.points, int64(2*p.n))
	return nil
}
