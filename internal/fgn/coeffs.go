package fgn

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand/v2"
	"slices"
	"sync"

	"vbr/internal/errs"
	"vbr/internal/fft"
	"vbr/internal/obs"
)

// This file holds the seed-independent half of Hosking's method. For
// fARIMA(0, d, 0) the Levinson–Durbin solution of Eqs. 7–10 has a
// closed form (Hosking 1981), φ_{k,j} = A_k·a_j·b_{k−j} with
//
//	A_0 = d,  A_k = A_{k−1}·k/(k−d)
//	a_1 = 1,  a_j = a_{j−1}·(j−1−d)/j
//	b_0 = 1,  b_i = b_{i−1}·(i−d)/i
//
// and φ_kk = d/(k−d), so Eq. 11's conditional mean is the causal
// convolution m_k = A_k·Σ_{i<k} a_{k−i}·z_i with z_i = b_i·X_i, which
// HoskingStream evaluates online (see relax).

// baseBlock is the width of the convolution tree's leaves, inside which
// the sums are taken directly.
const baseBlock = 64

// factor holds point k's A_k, √v_k and b_k. √v_k keeps its own
// recurrence, √v_k = √v_{k−1}·√(1 − φ_kk²).
type factor struct{ gain, sd, weight float64 }

// HoskingCoeffs holds the seed-independent part of Hosking's method for
// one Hurst parameter: the factors of every point it covers, and for
// every tree level a run of that length uses, the FFT plan and the
// spectrum of a. Each entry depends on H and its own index alone, so
// coefficients grown for n = 171,000 serve every shorter run with the
// same H, and growing in stages gives the bits of growing at once.
//
// All methods are safe for concurrent use. Extension only appends:
// nothing a running generator holds is ever rewritten.
type HoskingCoeffs struct {
	h, d float64
	lag  [baseBlock]float64 // a_j for 0 < j < baseBlock

	mu     sync.Mutex
	fac    []factor
	levels []*level
}

// NewHoskingCoeffs prepares coefficients for Hurst parameter h covering
// a single point; EnsureCtx grows them on demand.
func NewHoskingCoeffs(h float64) (*HoskingCoeffs, error) {
	if !validHurst(h) {
		return nil, fmt.Errorf("fgn: Hurst parameter must be in (0,1), got %v", h)
	}
	d := h - 0.5
	c := &HoskingCoeffs{h: h, d: d, fac: []factor{{gain: d, sd: 1, weight: 1}}}
	fillLags(c.lag[1:], d)
	return c, nil
}

// fillLags writes a_1, a_2, … into dst.
func fillLags(dst []float64, d float64) {
	a := 1.0
	for j := range dst {
		if j > 0 {
			jf := float64(j + 1)
			a *= (jf - 1 - d) / jf
		}
		dst[j] = a
	}
}

// Len returns how many points the coefficients currently cover.
func (c *HoskingCoeffs) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.covered()
}

func (c *HoskingCoeffs) covered() int { return min(len(c.fac), baseBlock<<len(c.levels)) }

// Bytes returns the resident size of the factors, spectra and plans,
// for cache byte accounting.
func (c *HoskingCoeffs) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := 24 * int64(cap(c.fac))
	for _, l := range c.levels {
		b += l.plan.Bytes() + 48*int64(len(l.coef))
	}
	return b
}

// levelsFor is the number of tree levels an n-point run uses: one per
// block size 64 ≤ s < n.
func levelsFor(n int) int { return max(0, bits.Len(uint(n-1))-bits.TrailingZeros(baseBlock)) }

// ensureCheckEvery is EnsureCtx's cancellation stride in new points.
const ensureCheckEvery = 1024

// EnsureCtx extends the coefficients to cover at least n points.
// Cancellation is checked every ensureCheckEvery points and before
// every level; an interrupted extension keeps what it completed, which
// a retry of any length continues.
func (c *HoskingCoeffs) EnsureCtx(ctx context.Context, n int) error {
	if n < 1 {
		return fmt.Errorf("fgn: length must be ≥ 1, got %d", n)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := len(c.fac)
	if c.covered() >= n {
		return nil
	}
	scope := obs.From(ctx)
	defer scope.Span("fgn.hosking.coeffs")()
	d := c.d
	c.fac = slices.Grow(c.fac, max(0, n-cur))
	for k := cur; k < n; k++ {
		if (k-cur)%ensureCheckEvery == 0 && ctx.Err() != nil {
			return interruptedErr(ctx, "coefficient schedule", k, n)
		}
		p, kf := c.fac[k-1], float64(k)
		phikk := d / (kf - d)
		c.fac = append(c.fac, factor{
			gain:   p.gain * (kf / (kf - d)),
			sd:     p.sd * math.Sqrt(1-phikk*phikk),
			weight: p.weight * ((kf - d) / kf),
		})
	}
	for len(c.levels) < levelsFor(n) {
		if ctx.Err() != nil {
			return interruptedErr(ctx, "coefficient schedule", n, n)
		}
		c.levels = append(c.levels, newLevel(baseBlock<<len(c.levels), d))
	}
	scope.Count("fgn.hosking.coeffs.points", int64(max(0, n-cur)))
	return nil
}

// interruptedErr builds the cancellation error for a Hosking loop,
// outside the loops so their bodies stay allocation-free.
func interruptedErr(ctx context.Context, what string, k, n int) error {
	return fmt.Errorf("fgn: %s interrupted at point %d of %d: %w", what, k, n, errs.Cancelled(ctx))
}

// HoskingFromCoeffs generates n points like HoskingCtx on precomputed
// coefficients, extending them first when they are too short. For the
// same rng state the output is bitwise identical to HoskingCtx.
func HoskingFromCoeffs(ctx context.Context, n int, c *HoskingCoeffs, rng *rand.Rand) ([]float64, error) {
	if c == nil || rng == nil {
		return nil, fmt.Errorf("fgn: generation needs coefficients and a random source")
	}
	x, _, err := hoskingRun(ctx, n, c, rng, nil, nil, 0, nil)
	return x, err
}

// NewHoskingStreamWithCoeffs prepares an incremental generation of n
// points drawing innovations from rng, which the stream owns from this
// call on. c must already cover n points.
func NewHoskingStreamWithCoeffs(n int, c *HoskingCoeffs, rng *rand.Rand) (*HoskingStream, error) {
	if n < 1 || c == nil || rng == nil {
		return nil, fmt.Errorf("fgn: stream needs n ≥ 1 (got %d), coefficients and a random source", n)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.covered() < n {
		return nil, fmt.Errorf("fgn: coefficients cover %d points, need %d", c.covered(), n)
	}
	return &HoskingStream{
		n: n, rng: rng, fac: c.fac[:n], lag: &c.lag, levels: c.levels[:levelsFor(n)],
		zc: make([]float64, n),
	}, nil
}

// level is the tree rung of block size s: each block adds its share to
// the next s points by a 2s-point real convolution with
// â = (0, a_1, …, a_{2s−1}), run as an s-point complex transform of the
// reals packed two per value. coef holds, for k = 0..s/2, Â at k and
// s−k and the twiddle ω^k = e^{−iπk/s} that unpacks the bin pair; Â is
// pre-scaled by 1/(8s), for the two halvings of unpack and the inverse.
type level struct {
	plan *fft.Plan // forward, s points
	coef []binPair
}

type binPair struct{ ak, aj, w complex128 }

func newLevel(s int, d float64) *level {
	l := &level{plan: fft.NewPlan(s, fft.DirForward), coef: make([]binPair, s/2+1)}
	ahat := make([]float64, 2*s)
	fillLags(ahat[1:], d)
	w := make([]complex128, s)
	for m := range w {
		w[m] = complex(ahat[2*m], ahat[2*m+1])
	}
	l.plan.Transform(w)
	scale := complex(1/float64(8*s), 0)
	for k := range l.coef {
		sn, cs := math.Sincos(math.Pi * float64(k) / float64(s))
		tw := complex(cs, -sn)
		xk, xj := unpack(w[k], w[(s-k)%s], tw)
		l.coef[k] = binPair{ak: xk * scale, aj: xj * scale, w: tw}
	}
	return l
}

// unpack maps bins k and s−k of the s-point transform of packed reals
// to twice bins k and s−k of the 2s-point real transform: with
// P = W_k + conj W_{s−k} and R = ω^k·(W_k − conj W_{s−k}), they are
// P − iR and conj(P + iR). Fed conjugated spectrum bins, the same map
// repacks them for the inverse.
func unpack(wk, wj, tw complex128) (complex128, complex128) {
	p := wk + cmplx.Conj(wj)
	r := tw * (wk - cmplx.Conj(wj))
	ir := complex(-imag(r), real(r))
	return p - ir, cmplx.Conj(p + ir)
}

// convolve adds Σ_i a_{s+t−i}·z_i to dst[t] for the s values z and
// t < len(dst) ≤ s, with w (s entries) as the buffer: pack, transform,
// multiply by Â while unpacking and repacking each bin pair, and
// transform again — the inverse as the forward transform of the
// conjugate, its conjugations folded into the repack and the read.
//
//vbrlint:hotpath
func (l *level) convolve(w []complex128, z, dst []float64) {
	s := len(w)
	for m := range s / 2 {
		w[m] = complex(z[2*m], z[2*m+1])
	}
	clear(w[s/2:])
	l.plan.Transform(w)
	for k, c := range l.coef {
		j := (s - k) % s
		xk, xj := unpack(w[k], w[j], c.w)
		uk, uj := unpack(cmplx.Conj(c.ak*xk), cmplx.Conj(c.aj*xj), c.w)
		w[j] = uj // bins 0 and s/2 pair with themselves: w[k] must win
		w[k] = uk
	}
	l.plan.Transform(w)
	y := w[s/2:]
	for i := 0; 2*i+1 < len(dst); i++ {
		dst[2*i] += real(y[i])
		dst[2*i+1] -= imag(y[i])
	}
	if len(dst)%2 == 1 {
		dst[len(dst)-1] += real(y[len(dst)/2])
	}
}
