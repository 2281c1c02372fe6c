package fgn

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand/v2"

	"vbr/internal/obs"
)

// HoskingStream is the pull-based form of the Hosking recursion: instead
// of materializing all n points in one call, callers draw the series
// block by block with Next. Every Hosking generator in the package —
// batch, checkpointed, schedule-driven — is a HoskingStream advanced to
// n, so the concatenation of all blocks is bitwise-identical to the
// output of Hosking(n, h, rng) with an equally seeded generator.
//
// The recursion state (generated prefix, partial linear-prediction
// coefficients, ρ sequence) grows with the position k; that O(n) state
// is inherent to the exact algorithm, which conditions every point on
// the entire past. What streaming removes is any *additional* O(n)
// buffering between generator and consumer: each Next hands out only the
// block just produced.
type HoskingStream struct {
	n   int
	h   float64
	rng *rand.Rand

	x   []float64
	lev levinson // lev.phi holds φ_{k-1,·}; cold mode runs the whole step
	k   int      // next point to generate

	// Warm mode (NewHoskingStreamWithCoeffs): precomputed φ_kk and v_k
	// schedules replace the rest of the Levinson step. nil in cold mode.
	kk []float64
	vs []float64
}

// NewHoskingStream prepares an incremental Hosking generation of n
// points with Hurst parameter h drawing innovations from rng. The
// stream owns rng from this call on; drawing from it elsewhere desyncs
// the output from the equivalent batch run.
func NewHoskingStream(n int, h float64, rng *rand.Rand) (*HoskingStream, error) {
	if n < 1 {
		return nil, fmt.Errorf("fgn: length must be ≥ 1, got %d", n)
	}
	if !validHurst(h) {
		return nil, fmt.Errorf("fgn: Hurst parameter must be in (0,1), got %v", h)
	}
	if rng == nil {
		return nil, fmt.Errorf("fgn: stream needs a random source")
	}
	rho, err := FarimaACF(h, n)
	if err != nil {
		return nil, err
	}
	return &HoskingStream{
		n: n, h: h, rng: rng,
		x:   make([]float64, n),
		lev: newLevinson(rho, make([]float64, n)),
	}, nil
}

// Pos returns how many points have been generated so far.
func (s *HoskingStream) Pos() int { return s.k }

// Len returns the total length of the stream.
func (s *HoskingStream) Len() int { return s.n }

// Next advances the recursion by up to len(dst) points, filling dst from
// the front, and returns how many points were produced. After the last
// point it returns (0, io.EOF). Cancellation is checked once per
// generated point (the late-recursion iterations are O(n) each) and
// surfaces as an error matching errs.ErrCancelled.
//
//vbrlint:hotpath
func (s *HoskingStream) Next(ctx context.Context, dst []float64) (int, error) {
	if s.k >= s.n {
		return 0, io.EOF
	}
	if len(dst) == 0 {
		return 0, fmt.Errorf("fgn: stream block must be non-empty")
	}
	from := s.k
	err := s.advance(ctx, from+min(len(dst), s.n-from))
	produced := copy(dst, s.x[from:s.k])
	if err != nil {
		return produced, err
	}
	obs.From(ctx).Count("fgn.hosking.stream.points", int64(produced))
	return produced, nil
}

// advance draws X_k ~ N(m_k, v_k) for k = Pos()..to-1 (Eqs. 11–12),
// with X_0 ~ N(0, 1) drawn unconditionally when the stream is fresh.
// φ_kk and v_k come from the Levinson step (cold) or the schedule
// (warm); either way φ_{k,·} is updated in place before the conditional
// mean is summed. Cancellation is checked before each conditioned point
// and leaves the stream at the interrupted point, so a later call (or a
// snapshot) continues exactly there.
//
//vbrlint:hotpath
func (s *HoskingStream) advance(ctx context.Context, to int) error {
	x, phi, rng := s.x, s.lev.phi, s.rng
	k := s.k
	if k == 0 {
		x[0] = rng.NormFloat64()
		k = 1
	}
	for ; k < to; k++ {
		if ctx.Err() != nil {
			s.k = k
			return interruptedErr(ctx, "Hosking generation", k, s.n)
		}
		var v float64
		if s.kk != nil {
			updatePhiInPlace(phi, k, s.kk[k])
			v = s.vs[k]
		} else {
			_, v = s.lev.step(k)
		}
		m := dotRevAdd(0, phi[1:k+1], x[:k])
		x[k] = m + math.Sqrt(v)*rng.NormFloat64()
	}
	s.k = k
	return nil
}
