package fgn

import (
	"context"
	"fmt"
	"io"
	"math/bits"
	"math/rand/v2"

	"vbr/internal/obs"
)

// HoskingStream is the pull-based form of Hosking's method: callers
// draw the series block by block with Next. Every Hosking generator in
// the package is a HoskingStream advanced to n, so the blocks
// concatenate to HoskingCtx's output bit for bit, whatever their sizes.
//
// The stream keeps one float64 per point — z_i = b_i·X_i for the points
// drawn, the partial convolution sums for the points to come — and the
// transform buffer of its largest tree block: at most 24 bytes per
// point. Output is not kept.
type HoskingStream struct {
	n      int
	rng    *rand.Rand
	fac    []factor
	lag    *[baseBlock]float64
	levels []*level

	zc   []float64 // z_i for i < k; partial Σ a_{t−i}·z_i for t ≥ k
	work []complex128
	k    int // next point to generate
}

// Next draws up to len(dst) points into dst and returns how many it
// produced; after the last point it returns (0, io.EOF). Cancellation
// is checked once per point and surfaces as an error matching
// errs.ErrCancelled, with the points drawn before it in dst.
func (s *HoskingStream) Next(ctx context.Context, dst []float64) (int, error) {
	if s.k >= s.n {
		return 0, io.EOF
	}
	if len(dst) == 0 {
		return 0, fmt.Errorf("fgn: stream block must be non-empty")
	}
	from := s.k
	err := s.advance(ctx, dst[:min(len(dst), s.n-from)])
	if err == nil {
		obs.From(ctx).Count("fgn.hosking.stream.points", int64(s.k-from))
	}
	return s.k - from, err
}

// advance draws X_k ~ N(m_k, v_k) (Eqs. 11–12) for the next len(out)
// points into out; X_0 ~ N(0, 1) needs no conditioning. m_k is A_k times
// what finished tree blocks added to zc[k] plus the direct sum over the
// current base block. Cancellation is checked before each conditioned
// point and leaves the stream there, so a later call continues exactly
// at that point.
//
//vbrlint:hotpath
func (s *HoskingStream) advance(ctx context.Context, out []float64) error {
	zc, fac, lag, rng := s.zc, s.fac, s.lag, s.rng
	from := s.k
	k, to := from, from+len(out)
	if k == 0 && to > 0 {
		out[0] = rng.NormFloat64()
		zc[0] = out[0]
		k = 1
	}
	for ; k < to; k++ {
		if ctx.Err() != nil {
			s.k = k
			return interruptedErr(ctx, "Hosking generation", k, s.n)
		}
		base := k &^ (baseBlock - 1)
		if k == base {
			s.relax(k)
		}
		acc := zc[k]
		for i, z := range zc[base:k] {
			acc += lag[k-base-i] * z
		}
		f := fac[k]
		x := f.gain*acc + f.sd*rng.NormFloat64()
		out[k-from] = x
		zc[k] = f.weight * x
	}
	s.k = k
	return nil
}

// relax runs the tree step due before point e, a multiple of the base
// block. The aligned block [e−s, e), s the largest power of two
// dividing e, is a left child, so it adds Σ_{i∈[e−s,e)} a_{t−i}·z_i to
// every t ∈ [e, e+s) by one FFT convolution. Each pair i < t is covered
// once, by the block in which i and t part or inside a base block, and
// each zc[t] receives its additions in an order fixed by absolute
// positions, so output bits depend neither on block sizes nor on n.
func (s *HoskingStream) relax(e int) {
	sz := e & -e
	if s.work == nil {
		s.work = make([]complex128, baseBlock<<(len(s.levels)-1))
	}
	lv := s.levels[bits.TrailingZeros(uint(sz))-bits.TrailingZeros(baseBlock)]
	lv.convolve(s.work[:sz], s.zc[e-sz:e], s.zc[e:min(e+sz, s.n)])
}
