// Package stats implements the descriptive statistics of §3 of the paper:
// summary statistics of the trace (Table 2), histograms and empirical
// distribution functions (Figs. 3–6), the autocorrelation function
// (Fig. 7), the periodogram (Fig. 8), mean-estimate confidence intervals
// under i.i.d. and LRD assumptions (Fig. 9), moving averages (Fig. 2) and
// the block-aggregated processes X^(m) used for self-similarity analysis
// (Fig. 10 and the estimators of §3.2.3).
package stats

import (
	"fmt"
	"math"
	"sort"

	"vbr/internal/fft"
)

// Summary holds the per-series statistics the paper reports in Table 2.
type Summary struct {
	N        int
	Mean     float64
	Std      float64 // population standard deviation (divide by n)
	CoV      float64 // coefficient of variation σ/μ
	Min      float64
	Max      float64
	PeakMean float64 // peak-to-mean ratio, the paper's burstiness measure
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, fmt.Errorf("stats: summary of empty series")
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	for _, v := range xs {
		s.Mean += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean /= float64(len(xs))
	var ss float64
	for _, v := range xs {
		d := v - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(len(xs)))
	if !AlmostEqual(s.Mean, 0, 0) {
		s.CoV = s.Std / s.Mean
		s.PeakMean = s.Max / s.Mean
	}
	return s, nil
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var m float64
	for _, v := range xs {
		m += v
	}
	return m / float64(len(xs))
}

// Variance returns the population variance of xs (divide by n).
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, v := range xs {
		d := v - m
		ss += d * d
	}
	return ss / float64(len(xs))
}

// Welford folds v into the running moments of a series under Welford's
// update: the count n, the mean, and m2, the sum of squared deviations
// from the mean (the population variance is m2/n). It takes and returns
// the moments by value so a loop can keep them in registers.
func Welford(v float64, n int64, mean, m2 float64) (int64, float64, float64) {
	n++
	d := v - mean
	mean += d / float64(n)
	return n, mean, m2 + d*(v-mean)
}

// MovingAverage returns the centered moving average of xs with the given
// window (Fig. 2 uses window 20,000 frames). Edges use the partial window
// actually available, so the output has the same length as the input.
func MovingAverage(xs []float64, window int) ([]float64, error) {
	n := len(xs)
	if window < 1 {
		return nil, fmt.Errorf("stats: moving average window must be ≥ 1, got %d", window)
	}
	if n == 0 {
		return nil, fmt.Errorf("stats: moving average of empty series")
	}
	// Prefix sums for O(n) evaluation.
	prefix := make([]float64, n+1)
	for i, v := range xs {
		prefix[i+1] = prefix[i] + v
	}
	half := window / 2
	out := make([]float64, n)
	for i := range out {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + (window - half - 1)
		if hi >= n {
			hi = n - 1
		}
		out[i] = (prefix[hi+1] - prefix[lo]) / float64(hi-lo+1)
	}
	return out, nil
}

// Aggregate returns the aggregated process X^(m): the series averaged over
// successive non-overlapping blocks of size m (§3.2.2). A trailing partial
// block is discarded.
func Aggregate(xs []float64, m int) ([]float64, error) {
	if m < 1 {
		return nil, fmt.Errorf("stats: aggregation block must be ≥ 1, got %d", m)
	}
	nb := len(xs) / m
	if nb == 0 {
		return nil, fmt.Errorf("stats: series of %d too short for block size %d", len(xs), m)
	}
	out := make([]float64, nb)
	for b := 0; b < nb; b++ {
		var sum float64
		for i := b * m; i < (b+1)*m; i++ {
			sum += xs[i]
		}
		out[b] = sum / float64(m)
	}
	return out, nil
}

// Autocorrelation returns the biased sample autocorrelation r(0..maxLag),
// delegating to the FFT implementation (O(n log n)); r[0] == 1.
func Autocorrelation(xs []float64, maxLag int) ([]float64, error) {
	return fft.Autocorrelation(xs, maxLag)
}

// AutocorrelationDirect is the O(n·maxLag) direct estimator, kept as an
// independently-coded cross-check and ablation baseline for the FFT path.
func AutocorrelationDirect(xs []float64, maxLag int) ([]float64, error) {
	n := len(xs)
	if n == 0 {
		return nil, fmt.Errorf("stats: autocorrelation of empty series")
	}
	if maxLag < 0 || maxLag >= n {
		return nil, fmt.Errorf("stats: maxLag %d out of range for n=%d", maxLag, n)
	}
	m := Mean(xs)
	var c0 float64
	for _, v := range xs {
		c0 += (v - m) * (v - m)
	}
	r := make([]float64, maxLag+1)
	if AlmostEqual(c0, 0, 0) {
		r[0] = 1
		return r, nil
	}
	for k := 0; k <= maxLag; k++ {
		var ck float64
		for t := 0; t+k < n; t++ {
			ck += (xs[t] - m) * (xs[t+k] - m)
		}
		r[k] = ck / c0
	}
	return r, nil
}

// Periodogram returns Fourier frequencies and periodogram ordinates
// (Fig. 8), delegating to the FFT package.
func Periodogram(xs []float64) (freqs, ords []float64) {
	return fft.Periodogram(xs)
}

// Histogram is a fixed-width binned density estimate.
type Histogram struct {
	Lo      float64
	Width   float64
	Counts  []int
	Total   int
	Density []float64 // counts normalized to integrate to 1
}

// NewHistogram bins xs into nbins equal-width bins over [lo, hi]. Values
// outside the range are clamped into the boundary bins so the histogram
// always accounts for every observation.
func NewHistogram(xs []float64, lo, hi float64, nbins int) (*Histogram, error) {
	if nbins < 1 {
		return nil, fmt.Errorf("stats: histogram needs ≥ 1 bins, got %d", nbins)
	}
	if !(hi > lo) {
		return nil, fmt.Errorf("stats: histogram needs hi > lo, got [%v, %v]", lo, hi)
	}
	if len(xs) == 0 {
		return nil, fmt.Errorf("stats: histogram of empty series")
	}
	h := &Histogram{Lo: lo, Width: (hi - lo) / float64(nbins), Counts: make([]int, nbins)}
	for _, v := range xs {
		i := int((v - lo) / h.Width)
		if i < 0 {
			i = 0
		}
		if i >= nbins {
			i = nbins - 1
		}
		h.Counts[i]++
		h.Total++
	}
	h.Density = make([]float64, nbins)
	norm := 1 / (float64(h.Total) * h.Width)
	for i, c := range h.Counts {
		h.Density[i] = float64(c) * norm
	}
	return h, nil
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.Width
}

// ECDF is an empirical cumulative distribution function over a sorted copy
// of the sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs.
func NewECDF(xs []float64) (*ECDF, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("stats: ECDF of empty sample")
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &ECDF{sorted: s}, nil
}

// CDF returns the fraction of observations ≤ x.
func (e *ECDF) CDF(x float64) float64 {
	i := sort.SearchFloat64s(e.sorted, x)
	for i < len(e.sorted) && AlmostEqual(e.sorted[i], x, 0) {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

// CCDF returns the fraction of observations > x.
func (e *ECDF) CCDF(x float64) float64 { return 1 - e.CDF(x) }

// Quantile returns the empirical p-quantile.
func (e *ECDF) Quantile(p float64) float64 {
	n := len(e.sorted)
	switch {
	case p <= 0:
		return e.sorted[0]
	case p >= 1:
		return e.sorted[n-1]
	}
	i := int(p * float64(n))
	if i >= n {
		i = n - 1
	}
	return e.sorted[i]
}

// TailPoints returns (x, CCDF(x)) pairs at the order statistics of the
// upper tail for log-log tail plots (Fig. 4): the j-th largest value is
// paired with probability j/n.
func (e *ECDF) TailPoints(count int) (xs, ccdf []float64) {
	n := len(e.sorted)
	if count > n {
		count = n
	}
	xs = make([]float64, count)
	ccdf = make([]float64, count)
	for j := 1; j <= count; j++ {
		xs[j-1] = e.sorted[n-j]
		ccdf[j-1] = float64(j) / float64(n)
	}
	return xs, ccdf
}

// MeanCI is a mean estimate from a prefix of the data with a 95%
// confidence interval (Fig. 9).
type MeanCI struct {
	N       int
	Mean    float64
	HalfIID float64 // half-width assuming i.i.d. observations
	HalfLRD float64 // half-width corrected for LRD with parameter H
}

// MeanConvergence computes mean estimates on growing prefixes of xs, with
// both the conventional i.i.d. 95% CI (±1.96·σ/√n) and the LRD-corrected
// CI whose variance scales as σ²·n^{2H-2} (Beran's correction) — the
// comparison that makes Fig. 9's point that i.i.d. CIs are badly
// optimistic under long-range dependence.
func MeanConvergence(xs []float64, prefixes []int, h float64) ([]MeanCI, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("stats: mean convergence of empty series")
	}
	if !(h > 0 && h < 1) {
		return nil, fmt.Errorf("stats: Hurst parameter must be in (0,1), got %v", h)
	}
	out := make([]MeanCI, 0, len(prefixes))
	for _, n := range prefixes {
		if n < 2 || n > len(xs) {
			return nil, fmt.Errorf("stats: prefix %d out of range (2..%d)", n, len(xs))
		}
		prefix := xs[:n]
		m := Mean(prefix)
		sd := math.Sqrt(Variance(prefix))
		iid := 1.96 * sd / math.Sqrt(float64(n))
		// Var(x̄) ≈ σ² c_H n^{2H-2}; the constant c_H = 1/(H(2H-1)) ·
		// Γ(2-2H)... for simplicity use the asymptotic c_H from
		// self-similar increments: Var(x̄_n) = σ² n^{2H-2}.
		lrd := 1.96 * sd * math.Pow(float64(n), h-1)
		out = append(out, MeanCI{N: n, Mean: m, HalfIID: iid, HalfLRD: lrd})
	}
	return out, nil
}

// LogSeries returns the element-wise natural log of xs. The Whittle
// estimation procedure of §3.2.3 is applied to {log X_i}, which has
// approximately Normal marginals and the same H as the original series.
func LogSeries(xs []float64) ([]float64, error) {
	out := make([]float64, len(xs))
	for i, v := range xs {
		if v <= 0 {
			return nil, fmt.Errorf("stats: log series requires positive data, got %v at %d", v, i)
		}
		out[i] = math.Log(v)
	}
	return out, nil
}
