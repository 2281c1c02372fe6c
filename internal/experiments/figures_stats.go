package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"vbr/internal/dist"
	"vbr/internal/errs"
	"vbr/internal/lrd"
	"vbr/internal/stats"
)

// SeriesResult is a generic (x, y) data series with a label, the common
// currency of the figure reproductions.
type SeriesResult struct {
	Label string
	X, Y  []float64
}

// Fig1Result is the full time series of Fig. 1, decimated for display.
type Fig1Result struct {
	Series SeriesResult
	// PeakFrames lists the indices of the five highest isolated peaks —
	// the paper's named special-effect events.
	PeakFrames []int
}

// Fig1Ctx returns the (decimated) 2-hour time series and its major
// peaks.
func (s *Suite) Fig1Ctx(ctx context.Context, maxPoints int) (*Fig1Result, error) {
	if ctx.Err() != nil {
		return nil, errs.Cancelled(ctx)
	}
	if maxPoints < 2 {
		return nil, fmt.Errorf("experiments: need ≥ 2 points, got %d", maxPoints)
	}
	frames := s.Trace.Frames
	step := len(frames) / maxPoints
	if step < 1 {
		step = 1
	}
	res := &Fig1Result{Series: SeriesResult{Label: "bytes/frame"}}
	for i := 0; i < len(frames); i += step {
		// Max over the decimation window so peaks are preserved.
		peak := frames[i]
		for j := i; j < i+step && j < len(frames); j++ {
			if frames[j] > peak {
				peak = frames[j]
			}
		}
		res.Series.X = append(res.Series.X, float64(i))
		res.Series.Y = append(res.Series.Y, peak)
	}
	res.PeakFrames = topPeaks(frames, 5, len(frames)/50)
	return res, nil
}

// topPeaks returns the indices of the k largest values that are pairwise
// at least minSep apart.
func topPeaks(xs []float64, k, minSep int) []int {
	var peaks []int
	taken := make([]bool, len(xs))
	for len(peaks) < k {
		best, bestV := -1, math.Inf(-1)
		for i, v := range xs {
			if !taken[i] && v > bestV {
				best, bestV = i, v
			}
		}
		if best < 0 {
			break
		}
		peaks = append(peaks, best)
		lo, hi := best-minSep, best+minSep
		if lo < 0 {
			lo = 0
		}
		if hi > len(xs) {
			hi = len(xs)
		}
		for i := lo; i < hi; i++ {
			taken[i] = true
		}
	}
	return peaks
}

// Fig2Ctx returns the low-frequency content: the moving average with the
// paper's 20,000-frame window (scaled to the trace length).
func (s *Suite) Fig2Ctx(ctx context.Context) (*SeriesResult, error) {
	if ctx.Err() != nil {
		return nil, errs.Cancelled(ctx)
	}
	window := 20000 * len(s.Trace.Frames) / 171000
	if window < 100 {
		window = 100
	}
	ma, err := stats.MovingAverage(s.Trace.Frames, window)
	if err != nil {
		return nil, err
	}
	res := &SeriesResult{Label: fmt.Sprintf("moving average, window %d", window)}
	step := len(ma) / 2000
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(ma); i += step {
		res.X = append(res.X, float64(i))
		res.Y = append(res.Y, ma[i])
	}
	return res, nil
}

// Fig3Result holds per-segment histograms against the full-trace
// histogram (Fig. 3's demonstration that short windows deviate from the
// long-term marginal).
type Fig3Result struct {
	Segments []SeriesResult // five two-minute segments
	Full     SeriesResult
	// MaxKS is the largest Kolmogorov–Smirnov distance between a segment
	// and the full trace — the quantitative version of "deviates
	// significantly".
	MaxKS float64
}

// Fig3Ctx computes histograms for five two-minute segments and the
// whole trace. Cancellation is checked per segment.
func (s *Suite) Fig3Ctx(ctx context.Context) (*Fig3Result, error) {
	frames := s.Trace.Frames
	segFrames := int(120 * s.Trace.FrameRate) // two minutes
	if segFrames > len(frames)/5 {
		segFrames = len(frames) / 5
	}
	full, err := stats.NewECDF(frames)
	if err != nil {
		return nil, err
	}
	lo, hi := full.Quantile(0.0001), full.Quantile(0.9999)
	res := &Fig3Result{}
	mkHist := func(xs []float64, label string) (SeriesResult, error) {
		h, err := stats.NewHistogram(xs, lo, hi, 60)
		if err != nil {
			return SeriesResult{}, err
		}
		sr := SeriesResult{Label: label}
		for i := range h.Density {
			sr.X = append(sr.X, h.BinCenter(i))
			sr.Y = append(sr.Y, h.Density[i])
		}
		return sr, nil
	}
	for i := 0; i < 5; i++ {
		if ctx.Err() != nil {
			return nil, errs.Cancelled(ctx)
		}
		start := i * len(frames) / 5
		seg := frames[start : start+segFrames]
		sr, err := mkHist(seg, fmt.Sprintf("segment %d (frames %d..%d)", i+1, start, start+segFrames))
		if err != nil {
			return nil, err
		}
		res.Segments = append(res.Segments, sr)
		segE, err := stats.NewECDF(seg)
		if err != nil {
			return nil, err
		}
		// KS distance between segment and full-trace empirical CDFs,
		// evaluated on the segment's points.
		var ks float64
		for _, x := range seg {
			d := math.Abs(segE.CDF(x) - full.CDF(x))
			if d > ks {
				ks = d
			}
		}
		if ks > res.MaxKS {
			res.MaxKS = ks
		}
	}
	fullH, err := mkHist(frames, "complete trace")
	if err != nil {
		return nil, err
	}
	res.Full = fullH
	return res, nil
}

// TailFitResult carries Fig. 4/5 data: the empirical tail against the
// fitted candidate distributions, with goodness-of-fit numbers.
type TailFitResult struct {
	// Empirical is (x, CCDF) for Fig. 4 or (x, CDF) for Fig. 5.
	Empirical SeriesResult
	Models    []SeriesResult
	// TailKS maps model name → max |log10 model − log10 empirical| over
	// the plotted tail region: the visual vertical offset on the paper's
	// log-log plots.
	TailErr map[string]float64
	// ParetoSlope is the fitted m_T (Fig. 4 only).
	ParetoSlope float64
}

// candidateModels fits the Fig. 4/5 distributions to the trace.
func (s *Suite) candidateModels() (normal, lognormal, gamma dist.Distribution, hybrid *dist.GammaPareto, err error) {
	frames := s.Trace.Frames
	n, err := dist.FitNormal(frames)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	ln, err := dist.FitLognormal(frames)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	g, err := dist.FitGamma(frames)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	gp, err := dist.FitGammaPareto(frames, 0.03)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return n, ln, g, gp, nil
}

// Fig4Ctx reproduces the log-log complementary CDF comparison of the
// right tail: empirical data against Normal, Gamma, Lognormal and the
// Pareto tail of the hybrid model. Cancellation is checked per
// candidate model.
func (s *Suite) Fig4Ctx(ctx context.Context) (*TailFitResult, error) {
	if ctx.Err() != nil {
		return nil, errs.Cancelled(ctx)
	}
	normal, lognormal, gamma, hybrid, err := s.candidateModels()
	if err != nil {
		return nil, err
	}
	e, err := stats.NewECDF(s.Trace.Frames)
	if err != nil {
		return nil, err
	}
	// Tail points: the upper 5% at log-spaced ranks.
	nTail := len(s.Trace.Frames) / 20
	xs, ccdf := e.TailPoints(nTail)
	res := &TailFitResult{
		Empirical:   SeriesResult{Label: "empirical CCDF", X: xs, Y: ccdf},
		TailErr:     map[string]float64{},
		ParetoSlope: hybrid.Tail,
	}
	models := []struct {
		name string
		ccdf func(float64) float64
	}{
		{"normal", func(x float64) float64 { return 1 - normal.CDF(x) }},
		{"lognormal", func(x float64) float64 { return 1 - lognormal.CDF(x) }},
		{"gamma", func(x float64) float64 { return 1 - gamma.CDF(x) }},
		{"gamma/pareto", hybrid.CCDF},
	}
	for _, m := range models {
		if ctx.Err() != nil {
			return nil, errs.Cancelled(ctx)
		}
		sr := SeriesResult{Label: m.name}
		var worst float64
		for i, x := range xs {
			y := m.ccdf(x)
			sr.X = append(sr.X, x)
			sr.Y = append(sr.Y, y)
			if y > 0 && ccdf[i] > 0 {
				d := math.Abs(math.Log10(y) - math.Log10(ccdf[i]))
				if d > worst {
					worst = d
				}
			} else if ccdf[i] > 0 {
				worst = math.Inf(1)
			}
		}
		res.Models = append(res.Models, sr)
		res.TailErr[m.name] = worst
	}
	return res, nil
}

// Fig5Ctx reproduces the log-log CDF comparison of the left tail, where
// the Gamma body should fit well. Cancellation is checked per candidate
// model.
func (s *Suite) Fig5Ctx(ctx context.Context) (*TailFitResult, error) {
	if ctx.Err() != nil {
		return nil, errs.Cancelled(ctx)
	}
	normal, lognormal, gamma, hybrid, err := s.candidateModels()
	if err != nil {
		return nil, err
	}
	e, err := stats.NewECDF(s.Trace.Frames)
	if err != nil {
		return nil, err
	}
	// Lower tail order statistics.
	sorted := make([]float64, 0, len(s.Trace.Frames)/20)
	nTail := len(s.Trace.Frames) / 20
	for j := 1; j <= nTail; j++ {
		sorted = append(sorted, e.Quantile(float64(j)/float64(len(s.Trace.Frames))))
	}
	res := &TailFitResult{TailErr: map[string]float64{}}
	res.Empirical = SeriesResult{Label: "empirical CDF"}
	for j, x := range sorted {
		res.Empirical.X = append(res.Empirical.X, x)
		res.Empirical.Y = append(res.Empirical.Y, float64(j+1)/float64(len(s.Trace.Frames)))
	}
	models := []struct {
		name string
		cdf  func(float64) float64
	}{
		{"normal", normal.CDF},
		{"lognormal", lognormal.CDF},
		{"gamma", gamma.CDF},
		{"gamma/pareto", hybrid.CDF},
	}
	for _, m := range models {
		if ctx.Err() != nil {
			return nil, errs.Cancelled(ctx)
		}
		sr := SeriesResult{Label: m.name}
		var worst float64
		for i, x := range res.Empirical.X {
			y := m.cdf(x)
			sr.X = append(sr.X, x)
			sr.Y = append(sr.Y, y)
			emp := res.Empirical.Y[i]
			if y > 0 && emp > 0 {
				d := math.Abs(math.Log10(y) - math.Log10(emp))
				if d > worst {
					worst = d
				}
			} else if emp > 0 {
				worst = math.Inf(1)
			}
		}
		res.Models = append(res.Models, sr)
		res.TailErr[m.name] = worst
	}
	return res, nil
}

// Fig6Result compares the empirical density to the hybrid Gamma/Pareto
// density.
type Fig6Result struct {
	Empirical SeriesResult
	Model     SeriesResult
	KS        float64 // Kolmogorov–Smirnov distance of the hybrid fit
	// A2Hybrid and A2Gamma are Anderson–Darling statistics of the hybrid
	// and of a pure moment-fitted Gamma — the tail-weighted statistic
	// that quantifies what Fig. 6's eyeball comparison shows.
	A2Hybrid, A2Gamma float64
}

// Fig6Ctx computes the density comparison.
func (s *Suite) Fig6Ctx(ctx context.Context) (*Fig6Result, error) {
	if ctx.Err() != nil {
		return nil, errs.Cancelled(ctx)
	}
	_, _, _, hybrid, err := s.candidateModels()
	if err != nil {
		return nil, err
	}
	e, err := stats.NewECDF(s.Trace.Frames)
	if err != nil {
		return nil, err
	}
	lo, hi := e.Quantile(0.0001), e.Quantile(0.9999)
	h, err := stats.NewHistogram(s.Trace.Frames, lo, hi, 80)
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{}
	res.Empirical.Label = "empirical density"
	res.Model.Label = "gamma/pareto density"
	for i := range h.Density {
		x := h.BinCenter(i)
		res.Empirical.X = append(res.Empirical.X, x)
		res.Empirical.Y = append(res.Empirical.Y, h.Density[i])
		res.Model.X = append(res.Model.X, x)
		res.Model.Y = append(res.Model.Y, hybrid.PDF(x))
	}
	ks, err := dist.KolmogorovDistance(s.Trace.Frames, hybrid)
	if err != nil {
		return nil, err
	}
	res.KS = ks
	res.A2Hybrid, err = dist.AndersonDarling(s.Trace.Frames, hybrid)
	if err != nil {
		return nil, err
	}
	gammaFit, err := dist.FitGamma(s.Trace.Frames)
	if err != nil {
		return nil, err
	}
	res.A2Gamma, err = dist.AndersonDarling(s.Trace.Frames, gammaFit)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Fig7Result is the autocorrelation function with an exponential
// reference fitted to the initial decay, demonstrating that the
// empirical acf leaves any exponential after a few hundred lags.
type Fig7Result struct {
	ACF SeriesResult
	// ExpFit is ρ̂^n with ρ̂ fitted on lags 1..100.
	ExpFit SeriesResult
	// DepartLag is the first lag where the empirical acf exceeds the
	// fitted exponential by 3× — "beyond that r(n) decreases slower than
	// exponentially".
	DepartLag int
}

// Fig7Ctx computes the autocorrelation to lag 10,000 (scaled for
// shorter traces).
func (s *Suite) Fig7Ctx(ctx context.Context) (*Fig7Result, error) {
	if ctx.Err() != nil {
		return nil, errs.Cancelled(ctx)
	}
	maxLag := 10000
	if maxLag > len(s.Trace.Frames)/4 {
		maxLag = len(s.Trace.Frames) / 4
	}
	r, err := stats.Autocorrelation(s.Trace.Frames, maxLag)
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{}
	res.ACF.Label = "empirical acf"
	for k := 0; k <= maxLag; k++ {
		res.ACF.X = append(res.ACF.X, float64(k))
		res.ACF.Y = append(res.ACF.Y, r[k])
	}
	// Fit log r(n) = n log ρ over lags 1..100.
	var sx, sy, sxx, sxy float64
	var m int
	for k := 1; k <= 100 && k <= maxLag; k++ {
		if r[k] <= 0 {
			continue
		}
		x, y := float64(k), math.Log(r[k])
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		m++
	}
	if m < 10 {
		return nil, fmt.Errorf("experiments: too few positive acf values for exponential fit")
	}
	slope := (float64(m)*sxy - sx*sy) / (float64(m)*sxx - sx*sx)
	intercept := (sy - slope*sx) / float64(m)
	res.ExpFit.Label = fmt.Sprintf("exponential fit ρ^n, ρ=%.4f", math.Exp(slope))
	res.DepartLag = -1
	for k := 0; k <= maxLag; k++ {
		fit := math.Exp(intercept + slope*float64(k))
		res.ExpFit.X = append(res.ExpFit.X, float64(k))
		res.ExpFit.Y = append(res.ExpFit.Y, fit)
		if res.DepartLag < 0 && k > 100 && r[k] > 3*fit && r[k] > 0.02 {
			res.DepartLag = k
		}
	}
	return res, nil
}

// Fig8Result is the periodogram with its fitted low-frequency power law.
type Fig8Result struct {
	Periodogram SeriesResult
	Alpha       float64 // spectrum ~ ω^{-α} near 0
	H           float64
}

// Fig8Ctx computes the periodogram of the frame series (log-binned for
// display) and the low-frequency power-law fit.
func (s *Suite) Fig8Ctx(ctx context.Context) (*Fig8Result, error) {
	if ctx.Err() != nil {
		return nil, errs.Cancelled(ctx)
	}
	freqs, ords := stats.Periodogram(s.Trace.Frames)
	if len(freqs) == 0 {
		return nil, fmt.Errorf("experiments: empty periodogram")
	}
	res := &Fig8Result{}
	res.Periodogram.Label = "periodogram"
	// Log-bin to ≤ 400 display points.
	nb := 400
	for b := 0; b < nb; b++ {
		loIdx := int(math.Pow(float64(len(freqs)), float64(b)/float64(nb))) - 1
		hiIdx := int(math.Pow(float64(len(freqs)), float64(b+1)/float64(nb)))
		if loIdx < 0 {
			loIdx = 0
		}
		if hiIdx > len(freqs) {
			hiIdx = len(freqs)
		}
		if hiIdx <= loIdx {
			continue
		}
		var f, p float64
		for i := loIdx; i < hiIdx; i++ {
			f += freqs[i]
			p += ords[i]
		}
		cnt := float64(hiIdx - loIdx)
		res.Periodogram.X = append(res.Periodogram.X, f/cnt)
		res.Periodogram.Y = append(res.Periodogram.Y, p/cnt)
	}
	pg, err := lrd.PeriodogramH(s.Trace.Frames, 0.1)
	if err != nil {
		return nil, err
	}
	res.Alpha = pg.Alpha
	res.H = pg.H
	return res, nil
}

// Fig9Result is the mean-estimate convergence study with i.i.d. and
// LRD-corrected confidence intervals.
type Fig9Result struct {
	Points []stats.MeanCI
	// FinalMean is the mean of the complete trace.
	FinalMean float64
	// IIDMisses counts prefixes whose i.i.d. 95% CI excludes the final
	// mean (the paper: "for most cases the final mean value ... is not
	// even contained in the interval").
	IIDMisses int
	// LRDMisses counts the same for the LRD-corrected CI.
	LRDMisses int
}

// Fig9Ctx computes mean estimates with CIs on geometric prefixes.
func (s *Suite) Fig9Ctx(ctx context.Context) (*Fig9Result, error) {
	if ctx.Err() != nil {
		return nil, errs.Cancelled(ctx)
	}
	frames := s.Trace.Frames
	var prefixes []int
	for n := 100; n < len(frames); n *= 2 {
		prefixes = append(prefixes, n)
	}
	prefixes = append(prefixes, len(frames))

	est, err := lrd.VarianceTime(frames, 1, 0, 0)
	if err != nil {
		return nil, err
	}
	h := est.H
	if h <= 0.5 || h >= 1 {
		h = 0.8
	}
	cis, err := stats.MeanConvergence(frames, prefixes, h)
	if err != nil {
		return nil, err
	}
	res := &Fig9Result{Points: cis, FinalMean: stats.Mean(frames)}
	for _, ci := range cis[:len(cis)-1] { // exclude the full-trace point
		if math.Abs(ci.Mean-res.FinalMean) > ci.HalfIID {
			res.IIDMisses++
		}
		if math.Abs(ci.Mean-res.FinalMean) > ci.HalfLRD {
			res.LRDMisses++
		}
	}
	return res, nil
}

// Fig10Result demonstrates self-similarity through aggregation.
type Fig10Result struct {
	Aggregated []SeriesResult // m = 100, 500, 1000
	// CoVs are the coefficients of variation of each aggregated series;
	// for an SRD process they would collapse toward zero much faster
	// than the observed m^{H-1} rate.
	CoVs []float64
}

// Fig10Ctx computes the aggregated processes X^(m) for m = 100, 500,
// 1000. Cancellation is checked per aggregation level.
func (s *Suite) Fig10Ctx(ctx context.Context) (*Fig10Result, error) {
	res := &Fig10Result{}
	for _, m := range []int{100, 500, 1000} {
		if ctx.Err() != nil {
			return nil, errs.Cancelled(ctx)
		}
		if len(s.Trace.Frames)/m < 20 {
			continue
		}
		agg, err := stats.Aggregate(s.Trace.Frames, m)
		if err != nil {
			return nil, err
		}
		sr := SeriesResult{Label: fmt.Sprintf("m = %d", m)}
		for i, v := range agg {
			sr.X = append(sr.X, float64(i*m))
			sr.Y = append(sr.Y, v)
		}
		res.Aggregated = append(res.Aggregated, sr)
		sum, err := stats.Summarize(agg)
		if err != nil {
			return nil, err
		}
		res.CoVs = append(res.CoVs, sum.CoV)
	}
	if len(res.Aggregated) == 0 {
		return nil, fmt.Errorf("experiments: trace too short for aggregation figure")
	}
	return res, nil
}

// Fig11Result is the variance-time plot.
type Fig11Result struct {
	Points SeriesResult // (log10 m, log10 normalized variance)
	Beta   float64
	H      float64
}

// Fig11Ctx computes the variance-time plot and its H estimate.
func (s *Suite) Fig11Ctx(ctx context.Context) (*Fig11Result, error) {
	if ctx.Err() != nil {
		return nil, errs.Cancelled(ctx)
	}
	vt, err := lrd.VarianceTime(s.Trace.Frames, 1, 0, 0)
	if err != nil {
		return nil, err
	}
	res := &Fig11Result{Beta: vt.Beta, H: vt.H}
	res.Points.Label = "variance-time"
	for _, p := range vt.Points {
		res.Points.X = append(res.Points.X, math.Log10(float64(p.M)))
		res.Points.Y = append(res.Points.Y, math.Log10(p.NormVar))
	}
	return res, nil
}

// Fig12Result is the R/S pox diagram.
type Fig12Result struct {
	Points SeriesResult // (log10 lag, log10 R/S)
	H      float64
}

// Fig12Ctx computes the pox diagram of R/S and its H estimate.
func (s *Suite) Fig12Ctx(ctx context.Context) (*Fig12Result, error) {
	if ctx.Err() != nil {
		return nil, errs.Cancelled(ctx)
	}
	rs, err := lrd.RS(s.Trace.Frames, 16, 30, 16, 0, 0)
	if err != nil {
		return nil, err
	}
	res := &Fig12Result{H: rs.H}
	res.Points.Label = "R/S pox"
	for _, p := range rs.Points {
		res.Points.X = append(res.Points.X, math.Log10(float64(p.Lag)))
		res.Points.Y = append(res.Points.Y, math.Log10(p.RS))
	}
	return res, nil
}

// FormatSeries renders a short preview of a data series.
func FormatSeries(sr SeriesResult, maxRows int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d points)\n", sr.Label, len(sr.X))
	step := len(sr.X) / maxRows
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(sr.X); i += step {
		fmt.Fprintf(&b, "  %14.6g  %14.6g\n", sr.X[i], sr.Y[i])
	}
	return b.String()
}
