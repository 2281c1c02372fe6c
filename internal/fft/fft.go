// Package fft implements a radix-2 decimation-in-time fast Fourier
// transform over complex128 together with the real-input helpers used
// throughout the repository: the periodogram of a time series (Fig. 8 of the
// paper and the Whittle estimator's input) and circular autocorrelation
// (the O(n log n) path for Fig. 7).
//
// Inputs whose length is not a power of two are handled by Bluestein's
// chirp-z algorithm so that exact-length transforms of arbitrary series
// (the periodogram and autocorrelation of the paper's 171,000 frames)
// are available without padding artifacts. The generators' spectral
// engines synthesize at power-of-two lengths and never take that path.
//
// Every transform runs through a Plan: the length- and direction-only
// work (twiddles, the Bluestein chirp and the FFT of its filter) is done
// once at NewPlan, so callers that transform many vectors of one length
// — the spectral engines run one per pair draw, and genpool caches
// their plans — pay for it once. The one-shot functions (Forward,
// Inverse, ForwardReal, Periodogram, Autocorrelation) build a plan per
// call.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// Direction is the sign of a transform's exponent.
type Direction uint8

const (
	// DirForward is the forward DFT X_k = Σ_t x_t e^{−2πikt/n}.
	DirForward Direction = iota
	// DirInverse is the inverse DFT, including the 1/n normalization.
	DirInverse
)

// Plan is a precomputed DFT of one length and direction. For a power of
// two it holds the per-stage radix-2 twiddles; for any other length it
// holds Bluestein's chirp, the FFT of the chirp filter, and the
// twiddles of the power-of-two inner transforms, so a transform runs
// two inner FFTs, calls no complex exponential and allocates nothing
// (the inner work buffer comes from a pool the plan owns).
//
// Every table is built with the same floating-point operations, in the
// same order, that a transform computed on the fly before plans
// existed, and a transform only reorders work that does not interact
// (see butterflies and bluestein), so planned output is bit-identical
// to it; the reference implementation kept in fft_test.go pins that
// for every length class.
//
// A Plan is immutable after NewPlan and safe for concurrent use.
type Plan struct {
	n       int
	inverse bool
	// Power-of-two n: the twiddles of the plan's direction. Bluestein:
	// the forward twiddles of the inner length m, which serve both
	// inner transforms (see bluestein).
	tw []complex128

	// Bluestein lengths only; chirp is nil for powers of two.
	chirp   []complex128 // w_k = exp(±iπk²/n), k < n
	filter  []complex128 // forward FFT of the conjugate-chirp filter, length m
	rev     []int32      // bit reversal of k < n within m
	pairs   []int32      // (i, rev i) for every i ≤ rev i, flattened
	scratch sync.Pool    // *[]complex128 of length m
}

// NewPlan precomputes the DFT of length n in direction dir. n ≤ 1 is
// the identity transform.
func NewPlan(n int, dir Direction) *Plan {
	p := &Plan{n: n, inverse: dir == DirInverse}
	if n <= 1 {
		return p
	}
	if n&(n-1) == 0 {
		p.tw = twiddles(n, p.inverse)
		return p
	}
	sign := -1.0
	if p.inverse {
		sign = 1.0
	}
	// Chirp factors w[k] = exp(sign * iπ k² / n). k² mod 2n avoids overflow
	// and precision loss for large k.
	p.chirp = make([]complex128, n)
	for k := range p.chirp {
		kk := int64(k) * int64(k) % int64(2*n)
		p.chirp[k] = cmplx.Exp(complex(0, sign*math.Pi*float64(kk)/float64(n)))
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	p.tw = twiddles(m, false)
	p.rev = make([]int32, n)
	// One pair per swap and per fixed point: m entries plus the fixed
	// points, of which a k-bit reversal has 2^⌈k/2⌉ ≤ 2√m.
	p.pairs = make([]int32, 0, m+2*int(math.Sqrt(float64(m))))
	shift := 32 - (bits.Len(uint(m)) - 1)
	for i := 0; i < m; i++ {
		j := int(bits.Reverse32(uint32(i)) >> shift)
		if i < n {
			p.rev[i] = int32(j)
		}
		if i <= j {
			p.pairs = append(p.pairs, int32(i), int32(j))
		}
	}
	// The filter is the conjugate chirp wrapped circularly; its FFT
	// depends on nothing but n and the direction.
	p.filter = make([]complex128, m)
	for k := 0; k < n; k++ {
		p.filter[k] = cmplx.Conj(p.chirp[k])
	}
	for k := 1; k < n; k++ {
		p.filter[m-k] = cmplx.Conj(p.chirp[k])
	}
	bitReverse(p.filter)
	butterflies(p.filter, p.tw)
	p.scratch.New = func() any {
		buf := make([]complex128, m)
		return &buf
	}
	return p
}

// twiddles returns the per-stage factors of a length-n radix-2
// transform: stage half = 1, 2, 4, …, n/2 occupies entries
// [half−1, 2·half−1) and holds w_k = wl^k built by the recurrence
// w *= wl, exactly as the butterfly loop once computed them in place.
func twiddles(n int, inverse bool) []complex128 {
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	tw := make([]complex128, n-1)
	for half := 1; half < n; half <<= 1 {
		ang := sign * 2 * math.Pi / float64(2*half)
		wl := cmplx.Exp(complex(0, ang))
		stage := tw[half-1 : 2*half-1]
		w := complex(1, 0)
		for k := range stage {
			stage[k] = w
			w *= wl
		}
	}
	return tw
}

// Bytes returns the resident size of the plan's tables. The pooled
// Bluestein work buffer is transient and not counted.
func (p *Plan) Bytes() int64 {
	return 16*int64(len(p.tw)+len(p.chirp)+len(p.filter)) + 4*int64(len(p.rev)+len(p.pairs))
}

// Transform computes the DFT of x in place; len(x) must equal the
// plan's length. It allocates nothing once the plan's work buffer pool
// is warm.
func (p *Plan) Transform(x []complex128) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: %d-point plan applied to %d points", p.n, len(x)))
	}
	if p.n <= 1 {
		return
	}
	if p.chirp == nil {
		bitReverse(x)
		butterflies(x, p.tw)
	} else {
		p.bluestein(x)
	}
	if p.inverse {
		inv := complex(1/float64(p.n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
}

// bluestein evaluates the length-n DFT as a circular convolution of the
// chirped input with the precomputed filter spectrum, through two
// power-of-two inner transforms in one m-point work buffer. Two
// rearrangements save passes without changing a bit:
//
//   - The chirp pass scatters straight into bit-reversed order, and
//     the filter product swaps each point into it, so neither inner
//     transform runs its own permutation.
//   - The inverse inner transform runs as conj(FFT(conj(·))) on the
//     forward twiddles. The inverse twiddles are exactly the conjugates
//     of the forward ones (sin is odd, and w *= wl commutes with
//     conjugation in floating point), and negating inputs only flips
//     the sign of every rounded result, so this equals the inverse
//     transform bit for bit.
//
//vbrlint:hotpath
func (p *Plan) bluestein(x []complex128) {
	bufp := p.scratch.Get().(*[]complex128)
	a := *bufp
	clear(a)
	rev := p.rev[:len(p.chirp)]
	for k, w := range p.chirp {
		a[rev[k]] = x[k] * w
	}
	butterflies(a, p.tw)
	f := p.filter[:len(a)]
	pairs := p.pairs
	for q := 0; q+1 < len(pairs); q += 2 {
		i, j := pairs[q], pairs[q+1]
		a[i], a[j] = cmplx.Conj(a[j]*f[j]), cmplx.Conj(a[i]*f[i])
	}
	butterflies(a, p.tw)
	invm := complex(1/float64(len(a)), 0)
	for k, w := range p.chirp {
		x[k] = cmplx.Conj(a[k]) * invm * w
	}
	p.scratch.Put(bufp)
}

// bitReverse applies the bit-reversal permutation of the power-of-two
// length len(x) in place.
//
//vbrlint:hotpath
func bitReverse(x []complex128) {
	n := len(x)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
}

// butterflies runs the stages of the iterative Cooley–Tukey FFT of the
// power-of-two length len(x), in place, on input already in
// bit-reversed order, with the direction carried by tw (from
// twiddles). Normalization is the caller's.
//
// Stages run two per pass over the data: within each group of 4·half
// points, the two radix-2 butterflies of stage half feed the two of
// stage 2·half. Every butterfly sees the same operands and twiddle as
// in a one-stage-at-a-time loop, so the result is bitwise the same;
// only the memory traffic halves.
//
//vbrlint:hotpath
func butterflies(x, tw []complex128) {
	n := len(x)
	half := 1
	if n >= 4 {
		// The first pass, unrolled: its groups are 4 points long.
		w, wa, wb := tw[0], tw[1], tw[2]
		for start := 0; start+4 <= n; start += 4 {
			g := x[start : start+4 : start+4]
			a0, a1, a2, a3 := g[0], g[1], g[2], g[3]
			v := a1 * w
			a0, a1 = a0+v, a0-v
			v = a3 * w
			a2, a3 = a2+v, a2-v
			v = a2 * wa
			g[0], g[2] = a0+v, a0-v
			v = a3 * wb
			g[1], g[3] = a1+v, a1-v
		}
		half = 4
	}
	for ; 4*half <= n; half *= 4 {
		// Reslicing everything to len(t1) lets the compiler drop the
		// bounds checks in the inner loop.
		t1 := tw[half-1 : 2*half-1]
		t2a := tw[2*half-1 : 3*half-1][:len(t1)]
		t2b := tw[3*half-1 : 4*half-1][:len(t1)]
		for start := 0; start < n; start += 4 * half {
			g := x[start : start+4*half]
			q0 := g[:half][:len(t1)]
			q1 := g[half : 2*half][:len(t1)]
			q2 := g[2*half : 3*half][:len(t1)]
			q3 := g[3*half : 4*half][:len(t1)]
			for k, w := range t1 {
				a0, a1, a2, a3 := q0[k], q1[k], q2[k], q3[k]
				v := a1 * w
				a0, a1 = a0+v, a0-v
				v = a3 * w
				a2, a3 = a2+v, a2-v
				v = a2 * t2a[k]
				q0[k], q2[k] = a0+v, a0-v
				v = a3 * t2b[k]
				q1[k], q3[k] = a1+v, a1-v
			}
		}
	}
	if half < n { // odd log2(n): one radix-2 stage left
		t := tw[half-1 : 2*half-1]
		lo, hi := x[:len(t)], x[half:][:len(t)]
		for k, w := range t {
			u := lo[k]
			v := hi[k] * w
			lo[k] = u + v
			hi[k] = u - v
		}
	}
}

// Forward computes the in-order forward DFT of x and returns a new slice.
// Any length is accepted: powers of two take the radix-2 path, everything
// else takes Bluestein.
func Forward(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	NewPlan(len(x), DirForward).Transform(out)
	return out
}

// Inverse computes the inverse DFT (including the 1/n normalization).
func Inverse(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	NewPlan(len(x), DirInverse).Transform(out)
	return out
}

// ForwardReal computes the DFT of a real-valued series, returning the full
// complex spectrum of length len(x).
func ForwardReal(x []float64) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	NewPlan(len(c), DirForward).Transform(c)
	return c
}

// Periodogram returns the ordinates I(λ_j) of the periodogram of x at the
// Fourier frequencies λ_j = 2πj/n for j = 1 .. ⌊(n-1)/2⌋, with the
// conventional normalization
//
//	I(λ_j) = |Σ_t x_t e^{-i t λ_j}|² / (2π n).
//
// The mean of x is removed first (the j = 0 ordinate is excluded), matching
// the definition used by the Whittle estimator and Fig. 8.
func Periodogram(x []float64) (freqs, ords []float64) {
	n := len(x)
	if n < 2 {
		return nil, nil
	}
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	c := make([]complex128, n)
	for i, v := range x {
		c[i] = complex(v-mean, 0)
	}
	NewPlan(n, DirForward).Transform(c)

	half := (n - 1) / 2
	freqs = make([]float64, half)
	ords = make([]float64, half)
	norm := 1 / (2 * math.Pi * float64(n))
	for j := 1; j <= half; j++ {
		freqs[j-1] = 2 * math.Pi * float64(j) / float64(n)
		re, im := real(c[j]), imag(c[j])
		ords[j-1] = (re*re + im*im) * norm
	}
	return freqs, ords
}

// Autocorrelation returns the biased sample autocorrelation r(0..maxLag) of
// x via FFT (zero-padded linear correlation), so r[0] == 1. The biased
// estimator (divide by n) is the one whose erratic large-lag behaviour the
// paper discusses under Fig. 7.
func Autocorrelation(x []float64, maxLag int) ([]float64, error) {
	n := len(x)
	if n == 0 {
		return nil, fmt.Errorf("fft: autocorrelation of empty series")
	}
	if maxLag < 0 || maxLag >= n {
		return nil, fmt.Errorf("fft: maxLag %d out of range for n=%d", maxLag, n)
	}
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)

	m := 1
	for m < 2*n {
		m <<= 1
	}
	c := make([]complex128, m)
	for i, v := range x {
		c[i] = complex(v-mean, 0)
	}
	NewPlan(m, DirForward).Transform(c)
	for i := range c {
		re, im := real(c[i]), imag(c[i])
		c[i] = complex(re*re+im*im, 0)
	}
	NewPlan(m, DirInverse).Transform(c)

	r := make([]float64, maxLag+1)
	c0 := real(c[0])
	//vbrlint:ignore floateq exact-zero guard: only a literally constant series has zero energy c0 (stats would be an import cycle)
	if c0 == 0 {
		// Constant series: define r(0)=1, r(k)=0 to keep callers total.
		r[0] = 1
		return r, nil
	}
	for k := 0; k <= maxLag; k++ {
		r[k] = real(c[k]) / c0
	}
	return r, nil
}
