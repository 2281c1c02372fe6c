package stream

import (
	"math"

	"vbr/internal/lrd"
	"vbr/internal/stats"
)

// minAggSamples is the minimum number of aggregated points a level must
// hold before its variance enters the Ĥ fit; below that the sample
// variance is too noisy to regress on.
const minAggSamples = 8

// aggLevel accumulates the variance of the m-aggregated series
// X^(m)_i = (X_{im+1}+…+X_{(i+1)m})/m with Welford's update, the
// streaming half of the §4.1 variance–time plot. Above m = 1 a level
// builds each block sum from four block sums of the level below.
type aggLevel struct {
	m    int
	acc  float64 // sum of the level-below block sums folded in so far
	fill int

	n    int64
	mean float64
	m2   float64
}

func (l *aggLevel) variance() float64 {
	if l.n < 2 {
		return math.NaN()
	}
	return l.m2 / float64(l.n)
}

// Monitor validates a stream online with two independent Ĥ probes plus
// running moments, all in O(log n) state regardless of how many frames
// pass through:
//
//   - Welford moments at geometrically spaced aggregation levels
//     m = 1, 4, 16, … feed the variance–time relation
//     Var(X^(m)) ∝ m^(2H−2), i.e. H = 1 + slope/2 of log Var against
//     log m — the cheap, classical drift alarm.
//   - An lrd.OnlineMAVAR tracks the modified Allan variance across
//     octave-spaced τ; its Ĥ gets a bias correction and a calibrated
//     ±1.96σ half-width from the committed battery table, so snapshots
//     report honest uncertainty, not a bare point value.
type Monitor struct {
	levels []aggLevel
	mavar  *lrd.OnlineMAVAR
	sums   [monitorPass / 4]float64 // one pass's block sums, cascaded up the ladder in place
}

// monitorPass is the most frames one pass of Add runs up the ladder:
// level 4 leaves at most monitorPass/4 block sums for level 16.
const monitorPass = 512

// maxAggLevel picks the largest aggregation level worth tracking for a
// stream of n frames: the level must be able to accumulate at least
// minAggSamples aggregated points.
func maxAggLevel(n int) int {
	m := 1
	for m*4*minAggSamples <= n {
		m *= 4
	}
	return m
}

// NewMonitor builds a monitor sized for a stream of n frames:
// aggregation levels 1, 4, 16, … up to maxAggLevel(n), and MAVAR
// octaves 1, 2, 4, … up to lrd.MaxMavarTau(n).
func NewMonitor(n int) *Monitor {
	mo := &Monitor{mavar: lrd.NewOnlineMAVAR(lrd.MaxMavarTau(n))}
	for m := 1; m <= maxAggLevel(n); m *= 4 {
		mo.levels = append(mo.levels, aggLevel{m: m})
	}
	return mo
}

// Add folds a block of frames into the MAVAR accumulators and the
// aggregation levels; Add(v) folds one. Level 1's Welford update runs
// in the MAVAR octaves' loop. Each level above then runs over the block
// sums of the level below, a pass at a time: level 4 over the frames,
// level 16 over level 4's sums, and so on. Each block sum adds the same
// four operands in the same order as a frame-at-a-time cascade, so the
// state does not depend on how frames are grouped into calls, and the
// ladder does O(1) amortised work per frame.
//
//vbrlint:hotpath
func (mo *Monitor) Add(vs ...float64) {
	base := &mo.levels[0]
	base.n, base.mean, base.m2 = lrd.AddWithMoments(mo.mavar, base.n, base.mean, base.m2, vs)
	for len(vs) > 0 {
		in := vs[:min(len(vs), monitorPass)]
		vs = vs[len(in):]
		for i := 1; i < len(mo.levels) && len(in) > 0; i++ {
			l := &mo.levels[i]
			acc, fill, sums := l.acc, l.fill, 0
			n, mean, m2 := l.n, l.mean, l.m2
			for _, v := range in {
				acc += v
				if fill++; fill < 4 {
					continue
				}
				mo.sums[sums] = acc
				sums++
				n, mean, m2 = stats.Welford(acc/float64(l.m), n, mean, m2)
				acc, fill = 0, 0
			}
			l.acc, l.fill, l.n, l.mean, l.m2 = acc, fill, n, mean, m2
			in = mo.sums[:sums]
		}
	}
}

// Probe is a point-in-time validation snapshot of a stream.
type Probe struct {
	// N is the number of frames observed.
	N int64
	// Mean and Std are the running sample moments of the raw series.
	Mean, Std float64
	// H is the streaming variance–time estimate of the Hurst parameter,
	// NaN until at least two aggregation levels hold minAggSamples
	// points. The estimator trades precision for O(1) state — treat it
	// as a drift alarm, not a substitute for the Whittle estimator.
	H float64
	// Levels is the number of aggregation levels behind H.
	Levels int
	// HMavar is the streaming modified-Allan-variance estimate of the
	// Hurst parameter, bias-corrected against the committed calibration
	// battery; NaN until at least two octaves hold enough windows.
	HMavar float64
	// HMavarErr is the calibrated 1.96σ (95%) half-width around HMavar,
	// NaN when the battery has no applicable cell.
	HMavarErr float64
	// MavarOctaves is the number of τ octaves behind HMavar.
	MavarOctaves int
}

// maxProbeLevels bounds the log-log regression scratch in Probe.
// Levels are geometrically spaced (m = 1, 4, 16, …), so 32 levels
// would need a stream of 4³¹ frames — the fixed arrays always suffice
// and keep the per-block probe allocation-free.
const maxProbeLevels = 32

// Probe summarizes the monitor's current state.
//
//vbrlint:hotpath
func (mo *Monitor) Probe() Probe {
	base := mo.levels[0]
	p := Probe{N: base.n, Mean: base.mean, H: math.NaN(), HMavar: math.NaN(), HMavarErr: math.NaN()}
	if v := base.variance(); !math.IsNaN(v) {
		p.Std = math.Sqrt(v)
	}
	if raw, oct := mo.mavar.Estimate(); !math.IsNaN(raw) {
		bar := lrd.DefaultCalibration().Bar(lrd.EstMAVAR, raw, int(base.n))
		p.HMavar = bar.H
		p.HMavarErr = bar.CI95
		p.MavarOctaves = oct
	}
	var lxa, lya [maxProbeLevels]float64
	lx, ly := lxa[:0], lya[:0]
	for _, l := range mo.levels {
		if l.n < minAggSamples {
			continue
		}
		v := l.variance()
		if math.IsNaN(v) || v <= 0 {
			continue
		}
		lx = append(lx, math.Log(float64(l.m)))
		ly = append(ly, math.Log(v))
	}
	if len(lx) >= 2 {
		p.H = 1 + slope(lx, ly)/2
		p.Levels = len(lx)
	}
	return p
}

// slope is the least-squares slope of y against x.
func slope(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}
