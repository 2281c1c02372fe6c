package experiments

import (
	"context"
	"fmt"
	"strings"

	"vbr/internal/queue"
	"vbr/internal/source"
)

// ExtMixCurve is one heterogeneous-mix Q–C curve: the population spec,
// its realized aggregate rate envelope and the tradeoff points.
type ExtMixCurve struct {
	Spec    string
	N       int
	MeanBps float64
	PeakBps float64
	Points  []queue.QCPoint
	Knee    queue.QCPoint
}

// ExtMixResult extends the §5.2 Q–C study from N lagged copies of one
// trace to heterogeneous scenario-zoo populations: each curve
// multiplexes a different mix of models through the same capacity
// search, answering the paper's "what if the sources differ?" future
// question with the machinery it already built.
type ExtMixResult struct {
	Target queue.LossTarget
	Frames int
	Curves []ExtMixCurve
}

// extMixSpecs returns the compared populations: the paper's fARIMA
// sources diluted with bursty on/off sources, and with GoP
// frame-structured sources. Every member shares the 24 fps clock.
func (s *Suite) extMixSpecs() []string {
	return []string{
		"farima:n=8192,block=2048*3+onoff:fps=24,rate=2e6,peak=12e6*2",
		"farima:n=8192,block=2048*3+gop*2",
	}
}

// ExtMixCtx runs the heterogeneous-mix Q–C study. Cancellation is
// threaded through every capacity bisection of each curve.
func (s *Suite) ExtMixCtx(ctx context.Context) (*ExtMixResult, error) {
	defer span(ctx, "extmix")()
	const frames = 8192
	res := &ExtMixResult{Target: queue.LossTarget{Pl: 1e-2}, Frames: frames}
	grid := []float64{0.002, 0.008, 0.032, 0.128}
	for i, spec := range s.extMixSpecs() {
		specs, err := source.ParseSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("experiments: ExtMix %q: %w", spec, err)
		}
		srcs, err := source.NewPopulation(specs, 500+uint64(i))
		if err != nil {
			return nil, fmt.Errorf("experiments: ExtMix %q: %w", spec, err)
		}
		mux, err := queue.NewSourceMuxFromConfig(queue.SourceMuxConfig{
			Sources: srcs,
			Frames:  frames,
			Combos:  2,
			Seed:    500 + uint64(i),
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: ExtMix %q: %w", spec, err)
		}
		points, err := queue.QCCurveCtx(ctx, queue.QCCurveConfig{
			Mux:      mux,
			Target:   res.Target,
			TmaxGrid: grid,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: ExtMix %q: %w", spec, err)
		}
		knee, err := queue.Knee(points)
		if err != nil {
			return nil, fmt.Errorf("experiments: ExtMix %q: %w", spec, err)
		}
		ws, err := mux.Workloads(ctx, false)
		if err != nil {
			return nil, err
		}
		var mean, peak float64
		for _, w := range ws {
			mean += w.MeanRate()
			peak = max(peak, w.PeakRate())
		}
		mean /= float64(len(ws))
		res.Curves = append(res.Curves, ExtMixCurve{
			Spec:    spec,
			N:       mux.NSources(),
			MeanBps: mean,
			PeakBps: peak,
			Points:  points,
			Knee:    knee,
		})
	}
	return res, nil
}

// Format renders the per-mix knee curves.
func (r *ExtMixResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: heterogeneous-mix Q-C curves (%s, %d frames)\n", r.Target, r.Frames)
	for _, c := range r.Curves {
		fmt.Fprintf(&b, "\n%s (N=%d, mean %.2f Mb/s, realized peak %.2f Mb/s)\n",
			c.Spec, c.N, c.MeanBps/1e6, c.PeakBps/1e6)
		fmt.Fprintf(&b, "  knee at T_max=%.3g ms, C/N=%.3f Mb/s\n", c.Knee.TmaxSec*1000, c.Knee.PerSourceBps/1e6)
		fmt.Fprintf(&b, "  %12s  %14s\n", "T_max (ms)", "C/N (Mb/s)")
		for _, p := range c.Points {
			fmt.Fprintf(&b, "  %12.3f  %14.4f\n", p.TmaxSec*1000, p.PerSourceBps/1e6)
		}
	}
	return b.String()
}
