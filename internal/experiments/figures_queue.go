package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"

	"vbr/internal/core"
	"vbr/internal/queue"
	"vbr/internal/trace"
)

// minLag returns the §5.1 minimum lag (1000 frames), scaled down for
// short test traces so lag placement stays feasible.
func (s *Suite) minLag() int {
	lag := 1000
	if maxFit := len(s.Trace.Frames) / 25; lag > maxFit {
		lag = maxFit
	}
	return lag
}

// qcTargets returns the Fig. 14 loss-rate targets (reduced at quick
// scale, where 3×10⁻⁶ is below one lost frame).
func (s *Suite) qcTargets() []queue.LossTarget {
	if s.Scale == QuickScale {
		return []queue.LossTarget{
			{Pl: 0},
			{Pl: 1e-4},
			{Pl: 1e-3, UseWES: true},
		}
	}
	return []queue.LossTarget{
		{Pl: 0},
		{Pl: 3e-6},
		{Pl: 1e-4},
		{Pl: 1e-3, UseWES: true},
		{Pl: 3e-2, UseWES: true},
	}
}

// tmaxGrid returns the buffer-delay grid of Fig. 14 (seconds).
func (s *Suite) tmaxGrid() []float64 {
	if s.Scale == QuickScale {
		return []float64{0.0005, 0.002, 0.008, 0.032, 0.128}
	}
	return []float64{0.00025, 0.0005, 0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064, 0.128}
}

// qcNs returns Fig. 14's source counts.
func (s *Suite) qcNs() []int { return []int{1, 2, 5, 20} }

// Fig14Curve is one Q–C curve: a source count, a loss target and the
// resulting tradeoff points.
type Fig14Curve struct {
	N      int
	Target queue.LossTarget
	Points []queue.QCPoint
	Knee   queue.QCPoint
}

// Fig14Result reproduces the Q–C tradeoff study.
type Fig14Result struct {
	Curves []Fig14Curve
	// CurveErrors lists (N, target) combinations that failed and were
	// excluded from Curves; nil when every curve succeeded.
	CurveErrors []error
}

// Format renders all curves as aligned text.
func (r *Fig14Result) Format() string {
	var b strings.Builder
	b.WriteString("Figure 14: Queueing delay vs allocated bandwidth per source\n")
	for _, err := range r.CurveErrors {
		fmt.Fprintf(&b, "  [curve excluded] %v\n", err)
	}
	for _, c := range r.Curves {
		fmt.Fprintf(&b, "\nN=%d, %s (knee at T_max=%.3g ms, C/N=%.3f Mb/s)\n",
			c.N, c.Target, c.Knee.TmaxSec*1000, c.Knee.PerSourceBps/1e6)
		fmt.Fprintf(&b, "  %12s  %14s\n", "T_max (ms)", "C/N (Mb/s)")
		for _, p := range c.Points {
			fmt.Fprintf(&b, "  %12.3f  %14.4f\n", p.TmaxSec*1000, p.PerSourceBps/1e6)
		}
	}
	return b.String()
}

// Fig15Result reproduces the statistical multiplexing gain study.
type Fig15Result struct {
	Targets []queue.LossTarget
	// Curves[i] corresponds to Targets[i].
	Curves [][]queue.SMGPoint
	// GainAtN5 is the realized fraction of the peak-to-mean gain at
	// N = 5, averaged over targets (the paper reports 72%).
	GainAtN5 float64
	PeakBps  float64
	MeanBps  float64
}

// fig15Ns returns Fig. 15's source-count grid.
func (s *Suite) fig15Ns() []int {
	if s.Scale == QuickScale {
		return []int{1, 2, 5, 10, 20}
	}
	return []int{1, 2, 3, 5, 7, 10, 14, 20}
}

// Fig15Ctx computes required capacity per source against N at
// T_max = 2 ms.
func (s *Suite) Fig15Ctx(ctx context.Context) (*Fig15Result, error) {
	defer span(ctx, "fig15")()
	targets := []queue.LossTarget{{Pl: 0}, {Pl: 1e-4}, {Pl: 1e-3}}
	res := &Fig15Result{
		Targets: targets,
		PeakBps: s.Trace.PeakRate(),
		MeanBps: s.Trace.MeanRate(),
	}
	var gainSum float64
	var gainCnt int
	for _, target := range targets {
		points, err := queue.SMGCtx(ctx, queue.SMGConfig{
			NewMux: func(n int) (queue.Aggregator, error) {
				return queue.NewMuxFromConfig(queue.MuxConfig{Trace: s.Trace, N: n, MinLagFrames: s.minLag(), Seed: 200 + uint64(n)})
			},
			Ns:        s.fig15Ns(),
			Target:    target,
			TmaxSec:   0.002,
			UseSlices: s.UseSlices,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: Fig15 %v: %w", target, err)
		}
		res.Curves = append(res.Curves, points)
		for _, p := range points {
			if p.N == 5 {
				g, err := queue.RealizedGain(p.PerSourceBps, res.PeakBps, res.MeanBps)
				if err == nil {
					gainSum += g
					gainCnt++
				}
			}
		}
	}
	if gainCnt > 0 {
		res.GainAtN5 = gainSum / float64(gainCnt)
	}
	return res, nil
}

// Format renders the SMG table.
func (r *Fig15Result) Format() string {
	var b strings.Builder
	b.WriteString("Figure 15: Required capacity per source vs N (T_max = 2 ms)\n")
	fmt.Fprintf(&b, "single-source peak %.3f Mb/s, mean %.3f Mb/s\n", r.PeakBps/1e6, r.MeanBps/1e6)
	for i, target := range r.Targets {
		fmt.Fprintf(&b, "\n%s\n  %4s  %14s  %14s\n", target, "N", "C/N (Mb/s)", "gain realized")
		for _, p := range r.Curves[i] {
			g, _ := queue.RealizedGain(p.PerSourceBps, r.PeakBps, r.MeanBps)
			fmt.Fprintf(&b, "  %4d  %14.4f  %13.0f%%\n", p.N, p.PerSourceBps/1e6, g*100)
		}
	}
	fmt.Fprintf(&b, "\nrealized gain at N=5: %.0f%% (paper: 72%%)\n", r.GainAtN5*100)
	return b.String()
}

// Fig16Source identifies one of the four compared traffic sources.
type Fig16Source string

// The four Fig. 16 sources.
const (
	SourceTrace    Fig16Source = "trace"
	SourceFull     Fig16Source = "farima+gamma/pareto"
	SourceGaussian Fig16Source = "farima gaussian"
	SourceIID      Fig16Source = "iid gamma/pareto"
)

// Fig16Curve is a zero-loss Q–C curve for one (source, N).
type Fig16Curve struct {
	Source Fig16Source
	N      int
	Points []queue.QCPoint
}

// Fig16Result compares the trace against the full model and its two
// ablations through the queue at P_l = 0.
type Fig16Result struct {
	Model  core.Model
	Curves []Fig16Curve
	// MeanAbsLogErr maps source → mean |ln(C_model/C_trace)| across all
	// (N, T_max) points: how close each model's resource demand tracks
	// the trace's. The paper's qualitative finding is
	// full < either ablation.
	MeanAbsLogErr map[Fig16Source]float64
}

// fig16Ns returns the source counts for the model-comparison figure.
func (s *Suite) fig16Ns() []int {
	if s.Scale == QuickScale {
		return []int{1, 5}
	}
	return []int{1, 2, 5, 20}
}

// Fig16Ctx fits the model to the trace, generates equal-length
// realizations of the three model variants, and compares zero-loss Q–C
// curves. Cancellation is checked in the fit, the model generation
// stage and every capacity search.
func (s *Suite) Fig16Ctx(ctx context.Context) (*Fig16Result, error) {
	defer span(ctx, "fig16")()
	model, err := s.Model(ctx)
	if err != nil {
		return nil, err
	}
	n := len(s.Trace.Frames)
	// The default backend is the paper's generator, exact Hosking, at
	// every scale. Every engine draws fARIMA(0, d, 0), and so does the
	// synthetic trace's backbone, so model and trace share their
	// Gaussian process; they differ in the trace's scene structure and
	// story arc, which the four-parameter model does not describe.
	genOpts := core.DefaultGenOptions()
	genOpts.Seed = 4242

	full, err := model.GenerateCtx(ctx, n, genOpts)
	if err != nil {
		return nil, err
	}
	gauss, err := model.GenerateGaussianCtx(ctx, n, genOpts)
	if err != nil {
		return nil, err
	}
	iid, err := model.GenerateIIDCtx(ctx, n, genOpts)
	if err != nil {
		return nil, err
	}

	mkTrace := func(frames []float64) (*trace.Trace, error) {
		tr := &trace.Trace{Frames: frames, FrameRate: s.Trace.FrameRate}
		if s.UseSlices {
			rng := rand.New(rand.NewPCG(s.Cfg.Seed, 7))
			if err := tr.SlicesFromFrames(s.Trace.SlicesPerFrame, s.Cfg.SliceJitter, rng.Float64); err != nil {
				return nil, err
			}
		}
		return tr, nil
	}

	sources := []struct {
		name   Fig16Source
		frames []float64
	}{
		{SourceTrace, s.Trace.Frames},
		{SourceFull, full},
		{SourceGaussian, gauss},
		{SourceIID, iid},
	}

	res := &Fig16Result{Model: model, MeanAbsLogErr: map[Fig16Source]float64{}}
	grid := s.tmaxGrid()
	// Trace curves first, indexed for the error metric.
	traceCurve := map[int][]queue.QCPoint{}
	for _, src := range sources {
		tr, err := mkTrace(src.frames)
		if err != nil {
			return nil, err
		}
		for _, nSrc := range s.fig16Ns() {
			mux, err := queue.NewMuxFromConfig(queue.MuxConfig{Trace: tr, N: nSrc, MinLagFrames: s.minLag(), Seed: 300 + uint64(nSrc)})
			if err != nil {
				return nil, err
			}
			points, err := queue.QCCurveCtx(ctx, queue.QCCurveConfig{
				Mux:       mux,
				Target:    queue.LossTarget{Pl: 0},
				TmaxGrid:  grid,
				UseSlices: s.UseSlices,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: Fig16 %s N=%d: %w", src.name, nSrc, err)
			}
			res.Curves = append(res.Curves, Fig16Curve{Source: src.name, N: nSrc, Points: points})
			if src.name == SourceTrace {
				traceCurve[nSrc] = points
			}
		}
	}
	// Error metric vs the trace.
	for _, c := range res.Curves {
		if c.Source == SourceTrace {
			continue
		}
		ref := traceCurve[c.N]
		var sum float64
		var cnt int
		for i := range c.Points {
			if i < len(ref) && ref[i].PerSourceBps > 0 && c.Points[i].PerSourceBps > 0 {
				d := logAbs(c.Points[i].PerSourceBps / ref[i].PerSourceBps)
				sum += d
				cnt++
			}
		}
		if cnt > 0 {
			res.MeanAbsLogErr[c.Source] += sum / float64(cnt) / float64(len(s.fig16Ns()))
		}
	}
	return res, nil
}

// logAbs returns |ln x|.
func logAbs(x float64) float64 {
	return math.Abs(math.Log(x))
}

// Format renders the comparison.
func (r *Fig16Result) Format() string {
	var b strings.Builder
	b.WriteString("Figure 16: trace vs model variants, zero-loss Q-C curves\n")
	fmt.Fprintf(&b, "fitted model: μ_Γ=%.0f σ_Γ=%.0f m_T=%.2f H=%.3f\n",
		r.Model.MuGamma, r.Model.SigmaGamma, r.Model.TailSlope, r.Model.Hurst)
	for _, c := range r.Curves {
		fmt.Fprintf(&b, "\n%s, N=%d\n  %12s  %14s\n", c.Source, c.N, "T_max (ms)", "C/N (Mb/s)")
		for _, p := range c.Points {
			fmt.Fprintf(&b, "  %12.3f  %14.4f\n", p.TmaxSec*1000, p.PerSourceBps/1e6)
		}
	}
	b.WriteString("\nmean |ln C_model/C_trace| (lower = closer to trace):\n")
	for _, src := range []Fig16Source{SourceFull, SourceGaussian, SourceIID} {
		fmt.Fprintf(&b, "  %-22s %.4f\n", src, r.MeanAbsLogErr[src])
	}
	return b.String()
}

// Fig17Result is the windowed error process for N = 1 and N = 20 at
// matched overall loss.
type Fig17Result struct {
	TargetPl float64
	// Window series (loss rate per 1000-frame window).
	N1, N20 SeriesResult
	// Burstiness of the loss process: fraction of windows carrying 90%
	// of the loss. The paper's point is that N=1 losses are concentrated
	// in a few windows while N=20 losses are spread out.
	N1Conc, N20Conc float64
}

// Fig17Ctx runs both configurations at capacities tuned to the same
// overall loss rate and records the running loss process.
func (s *Suite) Fig17Ctx(ctx context.Context) (*Fig17Result, error) {
	defer span(ctx, "fig17")()
	const window = 1000 // frames
	res := &Fig17Result{TargetPl: 1e-3}
	for _, n := range []int{1, 20} {
		mux, err := queue.NewMuxFromConfig(queue.MuxConfig{Trace: s.Trace, N: n, MinLagFrames: s.minLag(), Seed: 400 + uint64(n)})
		if err != nil {
			return nil, err
		}
		c, err := queue.MinCapacityAtCtx(ctx, mux, queue.LossTarget{Pl: res.TargetPl}, 0.002, s.UseSlices)
		if err != nil {
			return nil, fmt.Errorf("experiments: Fig17 N=%d: %w", n, err)
		}
		winIntervals := window
		if s.UseSlices {
			winIntervals = window * s.Trace.SlicesPerFrame
		}
		r, err := mux.AverageLossCtx(ctx, c, 0.002*c/8, s.UseSlices, queue.Options{WindowIntervals: winIntervals})
		if err != nil {
			return nil, err
		}
		sr := SeriesResult{Label: fmt.Sprintf("N=%d, C=%.2f Mb/s", n, c/1e6)}
		for i, v := range r.WindowLoss {
			sr.X = append(sr.X, float64(i*window))
			sr.Y = append(sr.Y, v)
		}
		conc := lossConcentration(r.WindowLoss, 0.9)
		if n == 1 {
			res.N1, res.N1Conc = sr, conc
		} else {
			res.N20, res.N20Conc = sr, conc
		}
	}
	return res, nil
}

// lossConcentration returns the smallest fraction of windows that carry
// the given share of total loss.
func lossConcentration(windows []float64, share float64) float64 {
	if len(windows) == 0 {
		return 0
	}
	sorted := make([]float64, len(windows))
	copy(sorted, windows)
	// Descending sort.
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] > sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	var total float64
	for _, v := range sorted {
		total += v
	}
	//vbrlint:ignore floateq exact-zero guard before dividing by the byte total
	if total == 0 {
		return 0
	}
	var cum float64
	for i, v := range sorted {
		cum += v
		if cum >= share*total {
			return float64(i+1) / float64(len(sorted))
		}
	}
	return 1
}

// Format renders the error-process comparison.
func (r *Fig17Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 17: windowed error process at Pl=%.0e\n", r.TargetPl)
	fmt.Fprintf(&b, "%s: 90%% of loss in %.0f%% of windows\n", r.N1.Label, r.N1Conc*100)
	fmt.Fprintf(&b, "%s: 90%% of loss in %.0f%% of windows\n", r.N20.Label, r.N20Conc*100)
	return b.String()
}
