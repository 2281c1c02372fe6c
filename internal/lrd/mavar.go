package lrd

import (
	"fmt"
	"math"

	"vbr/internal/errs"
	"vbr/internal/stats"
)

// This file implements the Modified Allan Variance (MAVAR) Hurst
// estimator of Bregni & Primerano (arxiv cs/0510006), the repository's
// fifth Ĥ estimator. The traffic rate series y_i (bytes per frame) is
// integrated into "phase" data x_i = Σ_{k≤i} y_k — the byte count —
// and the modified Allan variance at observation interval τ = n·τ0 is
// the averaged squared second difference of n-averaged phase:
//
//	Mod σ²_y(n) = ⟨ ( x̄_{j+2n} − 2 x̄_{j+n} + x̄_j )² ⟩ / (2 τ²),
//	x̄_j = (1/n) Σ_{i=j}^{j+n−1} x_i.
//
// For a rate process with the power-law spectrum S(f) ~ f^{1−2H} of
// long-range dependence, Mod σ²_y(τ) ~ τ^μ with μ = 2H − 2, so H is
// read off a log–log regression over octave-spaced τ — the same slope
// convention as the variance–time plot, but with second differencing
// (robust to level shifts and linear trends) and strictly better
// convergence per the paper.
//
// The implementation is the *decimated* form: instead of averaging
// windows at every phase offset j (which needs an O(τ) sliding buffer
// per octave), windows advance with stride τ/4 (1 below τ = 4). Each
// octave keeps a fixed 16-entry ring of the window-block sums
// W_τ(n) = x_{n−τ+1} + … + x_n it produced and builds each new one
// from the octave below: octave 1's block is the phase x_n itself, and
// W_2τ(n) = W_τ(n) + W_τ(n−τ) — formed every frame while 2τ ≤ 4, and
// on every other octave-τ block above that. A window's B₂ is the block
// just formed; B₁ and B₀ are the blocks the octave produced τ and 2τ
// frames earlier, read from the ring rather than kept as sliding sums,
// which would accumulate rounding over the whole stream. A window
// counts once n ≥ 3τ. Octaves 1, 2 and 4 work every frame and octave
// 2^k once per 2^{k−2} frames, so an observation costs O(1) amortised
// time and the state is O(1) per octave. The cascade only reorders the
// additions of summing each block's τ phases in sequence: τ ≤ 2 is
// bit-identical to that, and the sequential accumulator it replaced
// (and re-pinned the goldens and the calibration table against, once)
// is kept in mavar_oracle_test.go as the oracle. Stationarity of the
// increments makes the strided average an unbiased estimate of the
// same modified Allan variance; the 75%-overlapped windows keep most of
// the fully-overlapped estimator's averaging, and the calibration
// battery (calibration_table.go) quantifies what variance remains. That
// bounded accumulator is what makes the streaming OnlineMAVAR form
// possible; the batch MAVAR entry point simply feeds the whole series
// through the same accumulators, so batch and online results are
// bitwise identical by construction. Add folds a block at a time (see
// fold), and every block partition leaves the same bits; FuzzMAVAR
// checks that.

const (
	// maxMavarOctaves bounds the per-snapshot regression scratch: octave
	// τ = 2^39 would need a 1.6-trillion-frame stream, so fixed arrays of
	// this size always suffice and keep Estimate allocation-free.
	maxMavarOctaves = 40
	// minMavarWindows is the minimum number of second-difference windows
	// an octave must hold before its variance enters the fit; below that
	// the χ²-noisy point would destabilize the regression.
	minMavarWindows = 8
	// defaultMavarFitLo is the default smallest fitted τ. τ = 1 is
	// excluded because the MAVAR transfer constant has not settled there
	// (the phase-averaging window is a single sample, making the point an
	// AVAR value, not a MAVAR one), and τ = 2 because its transition
	// bias pulls Ĥ down by about 0.02: on fARIMA(0, d, 0) input at
	// n = 65,536 the bias reads −0.032 to −0.034 with τ ≥ 2 and about
	// −0.01 with τ ≥ 4. τ = 4 stays in the fit: its thousands of windows
	// keep MAVAR's sample std below variance–time's even on 4k-frame
	// series, which fitting from τ = 8 loses at H = 0.7, n = 4,096 —
	// see calibration_table.go.
	defaultMavarFitLo = 4
)

// mavarSubs is the number of strides per window block: windows
// advance with stride τ/mavarSubs (1 below τ = mavarSubs).
const mavarSubs = 4

// mavarRing is the number of window-block sums an octave keeps: a power
// of two above 2·mavarSubs, so B₀, read 2f blocks back, never wraps onto
// the block being written.
const mavarRing = 16

// mavarLevel is one octave's accumulator: a ring of the last window-block
// sums W_τ it produced, one per stride τ/f (f = min(τ, mavarSubs)), and
// the running second-difference statistics.
type mavarLevel struct {
	tau int
	f   uint64 // blocks per window length τ: min(τ, mavarSubs)

	ring   [mavarRing]float64 // W_τ of the last blocks, block k at k mod mavarRing
	blocks uint64             // blocks produced

	sumSq float64 // Σ (B₂ − 2B₁ + B₀)² over strided windows
	count int64   // second-difference windows folded into sumSq
}

// window writes block b2, the octave's k-th, into ring and returns B₁,
// the block f strides back, with Σ D² updated. A window counts once the
// octave holds 3f blocks, when B₀ is a full block: octave τ forms its
// k-th block at frame k·τ/f, so that is the n ≥ 3τ rule.
func window(ring *[mavarRing]float64, k, f uint64, b2, sumSq float64) (b1, sum float64) {
	ring[k%mavarRing] = b2
	b1 = ring[(k-f)%mavarRing]
	if k >= 3*f {
		d := b2 - 2*b1 + ring[(k-2*f)%mavarRing]
		sumSq += d * d
	}
	return b1, sumSq
}

// settle records that the octave has formed k blocks with Σ D² = sum,
// and counts its windows: one per block from the 3f-th on.
func (l *mavarLevel) settle(k uint64, sum float64) {
	l.blocks, l.sumSq, l.count = k, sum, 0
	if k >= 3*l.f {
		l.count = int64(k - 3*l.f + 1)
	}
}

// mavarWindows returns how many second-difference windows the octave τ
// completes on a series of n observations.
func mavarWindows(n, tau int) int64 {
	sub := tau / mavarSubs
	if sub < 1 {
		sub = 1
	}
	w := int64(n/sub) - int64(3*(tau/sub)) + 1
	if w < 0 {
		return 0
	}
	return w
}

// modVar returns the level's modified Allan variance estimate
// Σ D² / (2 n⁴ τ0² M) with τ0 = 1 frame, and NaN before any window
// completed.
func (l *mavarLevel) modVar() float64 {
	if l.count == 0 {
		return math.NaN()
	}
	n := float64(l.tau)
	return l.sumSq / (2 * n * n * n * n * float64(l.count))
}

// mavarPass is the most observations one pass of the block fold takes:
// its first step leaves at most mavarPass/2 octave-8 blocks for the
// second.
const mavarPass = 512

// OnlineMAVAR is the streaming MAVAR estimator: one decimating
// accumulator per octave τ = 1, 2, 4, …, maxTau, fed observations in
// blocks of any size in O(1) memory and O(1) amortised time per
// observation. Feeding it a series in any block partitioning yields
// bitwise-identical state, and the batch MAVAR function is defined as
// feeding the whole series.
type OnlineMAVAR struct {
	phase  float64
	n      int64
	levels []mavarLevel
	blocks [mavarPass / 2]float64 // one pass's octave-8 blocks, cascaded in place
}

// MaxMavarTau returns the largest octave-spaced observation interval τ
// worth tracking for a series of n frames: the level must be able to
// complete at least minMavarWindows second-difference windows.
func MaxMavarTau(n int) int {
	tau := 1
	for mavarWindows(n, 2*tau) >= minMavarWindows {
		tau *= 2
	}
	return tau
}

// NewOnlineMAVAR builds a streaming estimator with octaves
// 1, 2, 4, …, maxTau (rounded down to a power of two). Octave 1 is
// always kept, so a maxTau below 1 tracks τ = 1 alone.
func NewOnlineMAVAR(maxTau int) *OnlineMAVAR {
	o := &OnlineMAVAR{}
	for tau := 1; tau <= max(maxTau, 1) && len(o.levels) < maxMavarOctaves; tau *= 2 {
		o.levels = append(o.levels, mavarLevel{tau: tau, f: uint64(min(tau, mavarSubs))})
	}
	return o
}

// N reports how many observations have been folded in.
func (o *OnlineMAVAR) N() int64 { return o.n }

// MaxTau reports the largest tracked octave.
func (o *OnlineMAVAR) MaxTau() int { return o.levels[len(o.levels)-1].tau }

// Add folds a block of rate observations into the octave accumulators;
// Add(v) folds one. It allocates nothing and runs in O(1) amortised
// time per observation.
func (o *OnlineMAVAR) Add(vs ...float64) {
	if len(vs) == 1 {
		o.cascade(vs[0])
		return
	}
	o.fold(vs, false, 0, 0, 0)
}

// AddWithMoments is o.Add(vs...) that also carries Welford's running
// moments of the observations (count n, mean, and m2, the sum of
// squared deviations from the mean) through the same loop and returns
// them updated. The moments stay in registers and their division chain
// overlaps the octave sums, so a caller that wants both pays for
// little more than the longer of the two.
func AddWithMoments(o *OnlineMAVAR, n int64, mean, m2 float64, vs []float64) (int64, float64, float64) {
	return o.fold(vs, true, n, mean, m2)
}

// fold is Add, and with moments set also Welford's update of (n, mean,
// m2). A lone observation, or a series too short for octave 4, takes
// the frame-at-a-time cascade. Longer blocks run in passes of at most
// mavarPass observations, each in two steps:
//
//   - The first walks the observations once. Octaves 1, 2 and 4 form a
//     block every frame, so they share one block counter, the frame
//     count, and keep Σ D² in registers beside the phase and the
//     moments. Every other octave-4 block completes an octave-8 block
//     W_8(n) = W_4(n) + W_4(n−4), which is kept.
//   - The second runs each decimated octave τ ≥ 8 over the blocks the
//     one below kept, keeping every other W_2τ for the next, in place.
//
// Either way every octave sees the same blocks in the same order, and
// each block is the same sum of the same operands, so the state is
// bit-identical under any block partition.
//
//vbrlint:hotpath
func (o *OnlineMAVAR) fold(vs []float64, moments bool, n int64, mean, m2 float64) (int64, float64, float64) {
	if len(vs) == 1 || len(o.levels) < 3 {
		for _, v := range vs {
			o.cascade(v)
			if moments {
				n, mean, m2 = stats.Welford(v, n, mean, m2)
			}
		}
		return n, mean, m2
	}
	o1, o2, o4 := &o.levels[0], &o.levels[1], &o.levels[2]
	for len(vs) > 0 {
		pass := vs[:min(len(vs), mavarPass)]
		vs = vs[len(pass):]
		kept := 0 // octave-8 blocks in o.blocks
		k, phase := o1.blocks, o.phase
		s1, s2, s4 := o1.sumSq, o2.sumSq, o4.sumSq
		for _, v := range pass {
			phase += v
			k++
			var b1 float64
			b2 := phase
			b1, s1 = window(&o1.ring, k, 1, b2, s1)
			b2 += b1
			b1, s2 = window(&o2.ring, k, 2, b2, s2)
			b2 += b1
			b1, s4 = window(&o4.ring, k, mavarSubs, b2, s4)
			if k%2 == 0 { // every other octave-4 block forms one of octave 8
				o.blocks[kept] = b2 + b1
				kept++
			}
			if moments {
				n, mean, m2 = stats.Welford(v, n, mean, m2)
			}
		}
		o.phase = phase
		o.n += int64(len(pass))
		o1.settle(k, s1)
		o2.settle(k, s2)
		o4.settle(k, s4)
		for i := 3; i < len(o.levels) && kept > 0; i++ {
			kept = o.levels[i].decimate(o.blocks[:kept])
		}
	}
	return n, mean, m2
}

// decimate folds the blocks bs of a decimated octave (τ ≥ 8) in order,
// writes every other W_2τ it completes to the front of bs, and returns
// how many it wrote.
//
//vbrlint:hotpath
func (l *mavarLevel) decimate(bs []float64) int {
	k, sum, next := l.blocks, l.sumSq, 0
	for _, b2 := range bs {
		k++
		var b1 float64
		b1, sum = window(&l.ring, k, mavarSubs, b2, sum)
		if k%2 == 0 {
			bs[next] = b2 + b1 // W_2τ(n) = W_τ(n) + W_τ(n−τ)
			next++
		}
	}
	l.settle(k, sum)
	return next
}

// cascade folds one observation frame-at-a-time, from τ = 1 up to the
// first octave that forms no block at this frame.
//
//vbrlint:hotpath
func (o *OnlineMAVAR) cascade(v float64) {
	o.phase += v
	o.n++
	b2 := o.phase
	for i := range o.levels {
		l := &o.levels[i]
		l.blocks++
		l.ring[l.blocks%mavarRing] = b2
		b1 := l.ring[(l.blocks-l.f)%mavarRing]
		if l.blocks >= 3*l.f {
			d := b2 - 2*b1 + l.ring[(l.blocks-2*l.f)%mavarRing]
			l.sumSq += d * d
			l.count++
		}
		// From τ = mavarSubs up, octave 2τ strides twice as far as τ,
		// so only every other block of τ forms one of 2τ.
		if l.f == mavarSubs && l.blocks%2 == 1 {
			return
		}
		b2 += b1 // W_2τ(n) = W_τ(n) + W_τ(n−τ)
	}
}

// Estimate returns the current Ĥ from the weighted log–log fit over the
// default τ range, plus the number of octave points behind it. It is
// allocation-free (fixed scratch; safe inside hot monitor probes) and
// returns (NaN, 0) until at least two octaves hold minMavarWindows
// windows.
//
//vbrlint:hotpath
func (o *OnlineMAVAR) Estimate() (h float64, octaves int) {
	mu, _, _, n := o.fit(defaultMavarFitLo, 0)
	if n < 2 {
		return math.NaN(), 0
	}
	return 1 + mu/2, n
}

// fit runs the weighted least-squares regression of log Mod σ²(τ)
// against log τ over octaves with τ ∈ [fitLo, fitHi] (fitHi ≤ 0 means
// unbounded) and at least minMavarWindows windows. Points are weighted
// by their window count — the variance of log Mod σ̂² scales as
// 2/count, so this is the usual inverse-variance weighting and keeps
// the sparse top octaves from dominating the noise budget. It reports
// the slope, the τ range actually used, and the point count; slope is
// NaN when fewer than two usable octaves exist.
func (o *OnlineMAVAR) fit(fitLo, fitHi int) (mu float64, usedLo, usedHi, n int) {
	var sw, sx, sy, sxx, sxy float64
	for i := range o.levels {
		l := &o.levels[i]
		if l.count < minMavarWindows || l.tau < fitLo || (fitHi > 0 && l.tau > fitHi) {
			continue
		}
		mv := l.modVar()
		if !(mv > 0) || math.IsInf(mv, 0) {
			continue
		}
		x := math.Log(float64(l.tau))
		y := math.Log(mv)
		w := float64(l.count)
		sw += w
		sx += w * x
		sy += w * y
		sxx += w * x * x
		sxy += w * x * y
		if n == 0 {
			usedLo = l.tau
		}
		usedHi = l.tau
		n++
	}
	den := sw*sxx - sx*sx
	//vbrlint:ignore floateq exact-zero guard: the weighted denominator vanishes only with < 2 distinct octaves
	if n < 2 || den == 0 {
		return math.NaN(), usedLo, usedHi, n
	}
	return (sw*sxy - sx*sy) / den, usedLo, usedHi, n
}

// MAVARPoint is one octave of the MAVAR plot: observation interval τ
// (in frames), the modified Allan variance, and the number of
// second-difference windows averaged into it.
type MAVARPoint struct {
	Tau     int
	ModVar  float64
	Windows int64
}

// MAVARResult carries the log–log plot points, the fitted τ range, and
// the estimate.
type MAVARResult struct {
	Points       []MAVARPoint
	FitLo, FitHi int     // τ range the regression actually used
	Octaves      int     // number of octave points in the fit
	Mu           float64 // fitted slope: Mod σ²(τ) ~ τ^μ
	H            float64 // H = 1 + μ/2
}

// Result snapshots the accumulated state into a MAVARResult, fitting
// over τ ∈ [fitLo, fitHi] (0, 0 selects the default range: τ ≥ 4,
// unbounded above). It fails with an error matching
// errs.ErrInvalidSeries while fewer than two octaves are usable.
func (o *OnlineMAVAR) Result(fitLo, fitHi int) (*MAVARResult, error) {
	if fitLo <= 0 {
		fitLo = defaultMavarFitLo
	}
	res := &MAVARResult{Points: make([]MAVARPoint, 0, len(o.levels))}
	for i := range o.levels {
		l := &o.levels[i]
		if l.count == 0 {
			continue
		}
		res.Points = append(res.Points, MAVARPoint{Tau: l.tau, ModVar: l.modVar(), Windows: l.count})
	}
	mu, usedLo, usedHi, n := o.fit(fitLo, fitHi)
	if n < 2 || math.IsNaN(mu) {
		return nil, fmt.Errorf("lrd: MAVAR fit needs ≥ 2 usable octaves in τ ∈ [%d, %d], got %d: %w",
			fitLo, fitHi, n, errs.ErrInvalidSeries)
	}
	res.FitLo, res.FitHi = usedLo, usedHi
	res.Octaves = n
	res.Mu = mu
	res.H = 1 + mu/2
	return res, nil
}

// MAVAR estimates the Hurst parameter of xs by modified Allan variance
// over octave-spaced observation intervals, fitting the log–log slope
// over τ ∈ [fitLo, fitHi] (pass 0, 0 for the default range). It is the
// batch entry point of the streaming estimator: the series is fed
// through OnlineMAVAR, so batch and block-by-block results are bitwise
// identical.
func MAVAR(xs []float64, fitLo, fitHi int) (*MAVARResult, error) {
	if len(xs) < 256 {
		return nil, fmt.Errorf("lrd: MAVAR needs ≥ 256 points, got %d: %w", len(xs), errs.ErrInvalidSeries)
	}
	if err := checkFinite(xs); err != nil {
		return nil, fmt.Errorf("lrd: MAVAR: %w", err)
	}
	o := NewOnlineMAVAR(MaxMavarTau(len(xs)))
	o.Add(xs...)
	return o.Result(fitLo, fitHi)
}
