package fgn

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand/v2"

	"vbr/internal/errs"
	"vbr/internal/fft"
	"vbr/internal/obs"
)

// Pair is the one seeded draw of both spectral engines: two
// independent series from one transform (Dietrich & Newsam 1997). It
// fills the whole spectrum buffer with w_k = a_k·(N₁ + iN₂), N₁ and N₂
// independent N(0,1), and runs the engine's plan, so Re(w) and Im(w)
// are the two draws. Each engine builds its amplitudes a_k once, at a
// power-of-two length M, with a_k = a_{M−k}, which makes the Re×Im
// cross-covariance Σ_k a_k²·sin(2πjk/M) exactly zero, and
// Σ_k a_k²·cos(2πjk/M) the engine's own covariance (over M² for
// Paxson's normalized inverse transform). For Paxson the Hermitian
// part of a_k·(N₁ + iN₂) is an Exp(1)-power, uniform-phase
// coefficient, Paxson's randomization, a complex normal in law; only
// the Nyquist coefficient is a real Gaussian rather than ±√(p·Exp).
//
// A batch trace of n points is the first n points of the real half
// (DaviesHarteFromEigenCtx, PaxsonFromSpectrumCtx); the stitched
// streams use both halves as consecutive chunks. A Pair is immutable
// after its engine builds it and safe for concurrent use.
type Pair struct {
	amp    []float64 // a_k, one per spectrum entry
	plan   *fft.Plan
	n      int    // points per half that follow the engine's law
	points string // obs counter of points drawn
}

// padLen is the power of two an n-point draw is synthesized at: the
// smallest one ≥ n.
func padLen(n int) int { return 1 << bits.Len(uint(n-1)) }

// DaviesHarteLen is the transform length M of an n-point Davies–Harte
// draw, a circulant of twice the padded length. The setup
// DaviesHarteEigenCtx builds for (n, H) depends on n only through it,
// and it is that setup's Len.
func DaviesHarteLen(n int) int { return 2 * padLen(n) }

// PaxsonLen is the transform length M of an n-point Paxson draw, the
// padded length and at least 2. The setup PaxsonSpectrumCtx builds for
// (n, H) depends on n only through it, and it is that setup's Len.
func PaxsonLen(n int) int { return max(2, padLen(n)) }

// Len is the length M of the spectrum buffer DrawCtx fills: twice the
// padded length for Davies–Harte, the padded length for Paxson.
func (p Pair) Len() int { return len(p.amp) }

// Bytes is the resident size of the amplitudes and the plan.
func (p Pair) Bytes() int64 { return 8*int64(len(p.amp)) + p.plan.Bytes() }

// DrawCtx draws two independent series into work, which must hold Len
// entries: on return Re(work[j]) and Im(work[j]), j < n, are the two
// draws. It consumes two NormFloat64 per entry, N₁ then N₂, in entry
// order, and allocates nothing.
//
//vbrlint:hotpath
func (p Pair) DrawCtx(ctx context.Context, work []complex128, rng *rand.Rand) error {
	if err := p.fill(ctx, work, rng); err != nil {
		return err
	}
	obs.From(ctx).Count(p.points, int64(2*p.n))
	return nil
}

// fill is DrawCtx without the point count.
//
//vbrlint:hotpath
func (p Pair) fill(ctx context.Context, work []complex128, rng *rand.Rand) error {
	if rng == nil {
		return fmt.Errorf("fgn: generation needs a random source")
	}
	if p.plan == nil {
		return fmt.Errorf("fgn: pair draw has no engine setup")
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
	return nil
}

// firstHalf is the batch draw of every spectral engine: the first n
// points of the real half of one pair draw from p, which must have
// been built for at least n points.
func firstHalf(ctx context.Context, n int, p *Pair, rng *rand.Rand) ([]float64, error) {
	if n < 1 {
		return nil, fmt.Errorf("fgn: length must be ≥ 1, got %d", n)
	}
	if p == nil || n > p.n {
		return nil, fmt.Errorf("fgn: no engine setup for n=%d", n)
	}
	work := make([]complex128, p.Len())
	if err := p.fill(ctx, work, rng); err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = real(work[i])
	}
	obs.From(ctx).Count(p.points, int64(n))
	return out, nil
}
