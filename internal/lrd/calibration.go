package lrd

import (
	"math"
	"sort"
	"sync"
)

// This file turns the committed bias/variance table produced by the
// calibration battery (internal/experiments.Calibrate, run via
// `vbranalyze -calibrate` / `make calibrate`) into error bars: every Ĥ
// the toolkit reports can be bias-corrected and given a ±1.96σ
// half-width read off the table, instead of being a bare point value.
//
// The table is a grid over true H × series length n, one cell per
// estimator, each cell holding the mean bias (E[Ĥ] − H) and the sample
// standard deviation of Ĥ across the battery's seeds. Lookups
// bilinearly interpolate in (H, log₂ n) and clamp outside the grid —
// an honest extrapolation policy: beyond the calibrated range the
// nearest characterized cell is the best available statement.

// CalibrationCell is one (estimator, H, n) cell of the battery output.
type CalibrationCell struct {
	Estimator string  // canonical estimator name (EstimatorNames)
	H         float64 // true Hurst parameter of the synthesized series
	N         int     // series length
	Bias      float64 // mean(Ĥ) − H across seeds
	Std       float64 // sample standard deviation of Ĥ across seeds
	Seeds     int     // seeds behind the cell
}

// calGrid is one estimator's dense bias/std grid over hs × ns.
type calGrid struct {
	bias []float64
	std  []float64
}

// Calibration answers bias/σ queries from a battery table. Lookups are
// allocation-free, so monitor probes may call them per block.
type Calibration struct {
	hs  []float64 // sorted unique true-H grid values
	lns []float64 // sorted unique log₂(n) grid values
	est map[string]*calGrid
}

// NewCalibration indexes a cell list into an interpolating lookup
// table. Cells with duplicate (estimator, H, n) keep the last value.
func NewCalibration(cells []CalibrationCell) *Calibration {
	c := &Calibration{est: map[string]*calGrid{}}
	seenH := map[float64]bool{}
	seenN := map[float64]bool{}
	for _, cell := range cells {
		if !seenH[cell.H] {
			seenH[cell.H] = true
			c.hs = append(c.hs, cell.H)
		}
		ln := math.Log2(float64(cell.N))
		if !seenN[ln] {
			seenN[ln] = true
			c.lns = append(c.lns, ln)
		}
	}
	sort.Float64s(c.hs)
	sort.Float64s(c.lns)
	for _, cell := range cells {
		g := c.est[cell.Estimator]
		if g == nil {
			size := len(c.hs) * len(c.lns)
			g = &calGrid{bias: make([]float64, size), std: make([]float64, size)}
			for i := range g.bias {
				g.bias[i] = math.NaN()
				g.std[i] = math.NaN()
			}
			c.est[cell.Estimator] = g
		}
		hi := sort.SearchFloat64s(c.hs, cell.H)
		ni := sort.SearchFloat64s(c.lns, math.Log2(float64(cell.N)))
		g.bias[hi*len(c.lns)+ni] = cell.Bias
		g.std[hi*len(c.lns)+ni] = cell.Std
	}
	return c
}

// bracket returns the grid indices lo ≤ hi and the interpolation weight
// t ∈ [0, 1] for value v over the sorted grid g, clamping outside it.
func bracket(g []float64, v float64) (lo, hi int, t float64) {
	if v <= g[0] {
		return 0, 0, 0
	}
	last := len(g) - 1
	if v >= g[last] {
		return last, last, 0
	}
	hi = sort.SearchFloat64s(g, v)
	lo = hi - 1
	return lo, hi, (v - g[lo]) / (g[hi] - g[lo])
}

// Lookup returns the interpolated (bias, std) for one estimator at true
// parameter ≈ h and series length n. ok is false when the table has no
// grid for the estimator, the grid is empty, or any cell entering the
// interpolation is missing.
func (c *Calibration) Lookup(estimator string, h float64, n int) (bias, std float64, ok bool) {
	if c == nil || len(c.hs) == 0 || len(c.lns) == 0 || math.IsNaN(h) || n < 1 {
		return math.NaN(), math.NaN(), false
	}
	g := c.est[estimator]
	if g == nil {
		return math.NaN(), math.NaN(), false
	}
	h0, h1, th := bracket(c.hs, h)
	n0, n1, tn := bracket(c.lns, math.Log2(float64(n)))
	w := len(c.lns)
	lerp2 := func(vals []float64) float64 {
		v00 := vals[h0*w+n0]
		v01 := vals[h0*w+n1]
		v10 := vals[h1*w+n0]
		v11 := vals[h1*w+n1]
		return (1-th)*((1-tn)*v00+tn*v01) + th*((1-tn)*v10+tn*v11)
	}
	bias = lerp2(g.bias)
	std = lerp2(g.std)
	if math.IsNaN(bias) || math.IsNaN(std) {
		return math.NaN(), math.NaN(), false
	}
	return bias, std, true
}

// Bar assembles one estimator's calibrated report from its raw point
// estimate on a series of n observations. Without an applicable cell
// the raw value passes through uncorrected with a NaN error bar.
func (c *Calibration) Bar(estimator string, raw float64, n int) HBar {
	b := HBar{Estimator: estimator, Raw: raw, H: raw, CI95: math.NaN()}
	if math.IsNaN(raw) {
		b.H = math.NaN()
		return b
	}
	if bias, std, ok := c.Lookup(estimator, raw, n); ok {
		b.H = raw - bias
		b.CI95 = 1.96 * std
	}
	return b
}

var defaultCalibration = sync.OnceValue(func() *Calibration {
	return NewCalibration(builtinCalibrationCells)
})

// DefaultCalibration returns the calibration built from the committed
// battery table (calibration_table.go, regenerated by `make calibrate`).
func DefaultCalibration() *Calibration { return defaultCalibration() }
