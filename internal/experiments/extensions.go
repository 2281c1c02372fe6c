package experiments

import (
	"context"
	"fmt"
	"strings"

	"vbr/internal/arma"
	"vbr/internal/backend"
	"vbr/internal/codec"
	"vbr/internal/core"
	"vbr/internal/errs"
	"vbr/internal/lrd"
	"vbr/internal/queue"
	"vbr/internal/scenes"
	"vbr/internal/stats"
	"vbr/internal/synth"
	"vbr/internal/trace"
)

// This file implements the extension experiments: quantitative studies of
// the follow-up ideas the paper states but does not evaluate — the CBR
// vs VBR comparison of §1, the peak-clipping recommendation and
// layered-coding/priority-queueing program of §5.3/conclusions, the
// bufferless use of the §4.2 convolution table, the ARMA/Markov
// short-range augmentations of §4, and the interframe (MPEG-like)
// coding contrast of §2.

// ExtTransportRow is one row of the transport-mode comparison.
type ExtTransportRow struct {
	Scheme   string
	RateBps  float64
	Loss     float64
	DelaySec float64
	Note     string
}

// ExtTransportResult compares CBR, plain VBR, clipped VBR and layered
// VBR on the suite's trace (single source).
type ExtTransportResult struct {
	MeanBps, PeakBps float64
	Rows             []ExtTransportRow
}

// ExtTransport runs the transport-mode comparison; the context is
// threaded through the capacity search.
func (s *Suite) ExtTransport(ctx context.Context) (*ExtTransportResult, error) {
	w := queue.Workload{Bytes: s.Trace.Frames, Interval: 1 / s.Trace.FrameRate}
	res := &ExtTransportResult{MeanBps: w.MeanRate(), PeakBps: w.PeakRate()}
	const tmax = 0.002

	// CBR with 100 ms smoothing.
	cbr, err := queue.CBRRate(w, 0.1)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, ExtTransportRow{
		Scheme: "CBR (100 ms smoothing)", RateBps: cbr, Loss: 0, DelaySec: 0.1,
		Note: "circuit reservation",
	})

	// Plain VBR at Pl ≤ 1e-3, 2 ms buffer; a one-source Mux carries the
	// trace bit for bit.
	mux, err := queue.NewMuxFromConfig(queue.MuxConfig{Trace: s.Trace, N: 1})
	if err != nil {
		return nil, err
	}
	vbrCap, err := queue.MinCapacityAtCtx(ctx, mux, queue.LossTarget{Pl: 1e-3}, tmax, false)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, ExtTransportRow{
		Scheme: "VBR (Pl<=1e-3)", RateBps: vbrCap, Loss: 1e-3, DelaySec: tmax,
		Note: "paper's main setting",
	})

	// Zero-loss VBR, exact.
	zl, err := queue.ZeroLossCapacityExact(w, tmax*vbrCap/8)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, ExtTransportRow{
		Scheme: "VBR (zero loss)", RateBps: zl, Loss: 0, DelaySec: tmax,
		Note: "exact max-burst dual",
	})

	// Clipped VBR: cap frames at 1.8× mean, then exact zero loss.
	clipped := &trace.Trace{Frames: append([]float64(nil), s.Trace.Frames...), FrameRate: s.Trace.FrameRate}
	fs, err := clipped.FrameStats()
	if err != nil {
		return nil, err
	}
	frac, err := clipped.ClipPeaks(1.8 * fs.Mean)
	if err != nil {
		return nil, err
	}
	cw := queue.Workload{Bytes: clipped.Frames, Interval: w.Interval}
	czl, err := queue.ZeroLossCapacityExact(cw, tmax*vbrCap/8)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, ExtTransportRow{
		Scheme: "VBR + clip at 1.8x mean", RateBps: czl, Loss: 0, DelaySec: tmax,
		Note: fmt.Sprintf("%.3f%% of bytes clipped at coder", frac*100),
	})

	// Layered at 1.05× mean: base protected by priority.
	lw, err := queue.SplitLayers(w, 0.75)
	if err != nil {
		return nil, err
	}
	layerCap := w.MeanRate() * 1.05
	buffer := 0.05 * layerCap / 8
	lr, err := queue.SimulatePriority(lw, layerCap, buffer, buffer/2)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, ExtTransportRow{
		Scheme: "layered 75% base, priority", RateBps: layerCap, Loss: lr.PlBase, DelaySec: 0.05,
		Note: fmt.Sprintf("enhancement loss %.2f", lr.PlEnhancement),
	})
	return res, nil
}

// Format renders the comparison table.
func (r *ExtTransportResult) Format() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Scheme,
			fmt.Sprintf("%.3f", row.RateBps/1e6),
			fmt.Sprintf("%.1e", row.Loss),
			fmt.Sprintf("%.0f ms", row.DelaySec*1000),
			row.Note,
		})
	}
	return table(
		fmt.Sprintf("Extension: transport modes (mean %.2f, peak %.2f Mb/s)", r.MeanBps/1e6, r.PeakBps/1e6),
		[]string{"scheme", "rate Mb/s", "loss", "delay", "note"}, rows)
}

// ExtAdmissionResult compares the bufferless convolution-table allocation
// with the trace-driven simulation allocation across N.
type ExtAdmissionResult struct {
	Eps     float64
	Ns      []int
	Convo   []float64 // per-source bits/s from the marginal convolution
	Sim     []float64 // per-source bits/s from trace-driven simulation
	MeanBps float64
}

// ExtAdmissionCtx runs the comparison at a per-interval overflow/loss
// budget of eps. Cancellation is checked per multiplexing level and
// threaded through the model fit and the capacity search.
func (s *Suite) ExtAdmissionCtx(ctx context.Context) (*ExtAdmissionResult, error) {
	model, err := s.Model(ctx)
	if err != nil {
		return nil, err
	}
	gp, err := model.Marginal()
	if err != nil {
		return nil, err
	}
	res := &ExtAdmissionResult{
		Eps:     1e-3,
		Ns:      []int{1, 2, 5, 20},
		MeanBps: s.Trace.MeanRate(),
	}
	interval := 1 / s.Trace.FrameRate
	for _, n := range res.Ns {
		if ctx.Err() != nil {
			return nil, errs.Cancelled(ctx)
		}
		c, err := queue.MarginalAllocation(gp, n, interval, res.Eps, 4000)
		if err != nil {
			return nil, err
		}
		res.Convo = append(res.Convo, c/float64(n))

		mux, err := queue.NewMuxFromConfig(queue.MuxConfig{Trace: s.Trace, N: n, MinLagFrames: s.minLag(), Seed: 500 + uint64(n)})
		if err != nil {
			return nil, err
		}
		// Bufferless comparison: a buffer of one frame interval.
		cs, err := queue.MinCapacityAtCtx(ctx, mux, queue.LossTarget{Pl: res.Eps}, interval, false)
		if err != nil {
			return nil, err
		}
		res.Sim = append(res.Sim, cs/float64(n))
	}
	return res, nil
}

// Format renders the admission comparison.
func (r *ExtAdmissionResult) Format() string {
	rows := make([][]string, 0, len(r.Ns))
	for i, n := range r.Ns {
		rows = append(rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.3f", r.Convo[i]/1e6),
			fmt.Sprintf("%.3f", r.Sim[i]/1e6),
			fmt.Sprintf("%.2f", r.Convo[i]/r.Sim[i]),
		})
	}
	out := table(
		fmt.Sprintf("Extension: bufferless admission via Γ/P convolution table (eps=%.0e, mean %.3f Mb/s/source)", r.Eps, r.MeanBps/1e6),
		[]string{"N", "convolution C/N (Mb/s)", "simulated C/N (Mb/s)", "ratio"}, rows)
	return out + "(the convolution column prices per-interval overflow PROBABILITY from\n" +
		" the marginal alone — a conservative, correlation-free criterion; the\n" +
		" simulated column measures byte-loss RATE with one frame of buffer,\n" +
		" which credits partial intervals, so it sits slightly lower. H does\n" +
		" not enter the bufferless number at all — the conclusions' point that\n" +
		" LRD is a frequency-domain property, not a marginal one.)\n"
}

// ExtSRDResult reports the effect of the §4 short-range augmentations.
type ExtSRDResult struct {
	LagOnePlain, LagOneARMA, LagOneMarkov float64
	HPlain, HARMA, HMarkov                float64
}

// ExtSRDCtx generates the plain model, the ARMA-augmented model and the
// Markov-modulated model and compares short-lag correlation and H.
// Cancellation is threaded through the model fit and the three
// generator runs.
func (s *Suite) ExtSRDCtx(ctx context.Context) (*ExtSRDResult, error) {
	model, err := s.Model(ctx)
	if err != nil {
		return nil, err
	}
	n := min(len(s.Trace.Frames), 40000)
	opts := core.DefaultGenOptions()
	opts.Backend = backend.DaviesHarte
	opts.Seed = 99

	plain, err := model.GenerateCtx(ctx, n, opts)
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, errs.Cancelled(ctx)
	}
	armaTraffic, err := model.GenerateWithARMACtx(ctx, n, arma.Model{Phi: []float64{0.85}}, opts)
	if err != nil {
		return nil, err
	}
	chain, err := arma.SceneChain(240, 1)
	if err != nil {
		return nil, err
	}
	markov, err := model.GenerateMarkovModulatedCtx(ctx, n, chain, 0.5, opts)
	if err != nil {
		return nil, err
	}

	res := &ExtSRDResult{}
	for _, x := range []struct {
		frames []float64
		lag1   *float64
		h      *float64
	}{
		{plain, &res.LagOnePlain, &res.HPlain},
		{armaTraffic, &res.LagOneARMA, &res.HARMA},
		{markov, &res.LagOneMarkov, &res.HMarkov},
	} {
		r, err := stats.Autocorrelation(x.frames, 1)
		if err != nil {
			return nil, err
		}
		*x.lag1 = r[1]
		vt, err := lrdVT(x.frames)
		if err != nil {
			return nil, err
		}
		*x.h = vt
	}
	return res, nil
}

// Format renders the SRD augmentation comparison.
func (r *ExtSRDResult) Format() string {
	rows := [][]string{
		{"fARIMA(0,d,0) (plain)", fmt.Sprintf("%.3f", r.LagOnePlain), fmt.Sprintf("%.3f", r.HPlain)},
		{"fARIMA(1,d,0), φ=0.85", fmt.Sprintf("%.3f", r.LagOneARMA), fmt.Sprintf("%.3f", r.HARMA)},
		{"Markov-modulated, w=0.5", fmt.Sprintf("%.3f", r.LagOneMarkov), fmt.Sprintf("%.3f", r.HMarkov)},
	}
	return table("Extension: §4 short-range augmentations (H fitted beyond the SRD scale)",
		[]string{"model", "lag-1 acf", "variance-time H"}, rows)
}

// ExtInterframeResult contrasts intraframe and interframe coding on the
// same synthetic material (reduced resolution for speed).
type ExtInterframeResult struct {
	IntraMean, InterMean         float64
	IntraPeakMean, InterPeakMean float64
	GOPLagACF, OffGOPACF         float64
	GOPSize                      int
}

// ExtInterframe runs both real coders over a short movie, checking
// the context once per coded frame.
func (s *Suite) ExtInterframe(ctx context.Context) (*ExtInterframeResult, error) {
	scfg := synth.DefaultConfig()
	scfg.Frames = 600
	scfg.SlicesPerFrame = 0
	scfg.MeanSceneFrames = 72
	scfg.Seed = s.Cfg.Seed

	ccfg := codec.CoderConfig{Width: 64, Height: 64, SlicesPerFrame: 4, QuantStep: 8}
	intra, err := codec.NewCoder(ccfg)
	if err != nil {
		return nil, err
	}
	intraTr, err := intra.GenerateTrace(ctx, scfg, 16)
	if err != nil {
		return nil, err
	}

	icfg := codec.InterCoderConfig{CoderConfig: ccfg, GOPSize: 12, SearchRange: 2}
	inter, err := codec.NewInterCoder(icfg)
	if err != nil {
		return nil, err
	}
	interTr, err := inter.GenerateTrace(ctx, scfg, 36)
	if err != nil {
		return nil, err
	}

	si, err := stats.Summarize(intraTr.Frames)
	if err != nil {
		return nil, err
	}
	sp, err := stats.Summarize(interTr.Frames)
	if err != nil {
		return nil, err
	}
	r, err := stats.Autocorrelation(interTr.Frames, icfg.GOPSize+3)
	if err != nil {
		return nil, err
	}
	return &ExtInterframeResult{
		IntraMean: si.Mean, InterMean: sp.Mean,
		IntraPeakMean: si.PeakMean, InterPeakMean: sp.PeakMean,
		GOPLagACF: r[icfg.GOPSize], OffGOPACF: r[icfg.GOPSize-3],
		GOPSize: icfg.GOPSize,
	}, nil
}

// Format renders the coding-mode contrast.
func (r *ExtInterframeResult) Format() string {
	var b strings.Builder
	b.WriteString("Extension: intraframe vs interframe (MPEG-like) coding, 64×64 synthetic movie\n")
	fmt.Fprintf(&b, "  mean bytes/frame: intra %.0f, inter %.0f (%.1f×ratio)\n",
		r.IntraMean, r.InterMean, r.IntraMean/r.InterMean)
	fmt.Fprintf(&b, "  peak/mean:        intra %.2f, inter %.2f (interframe burstier, §2)\n",
		r.IntraPeakMean, r.InterPeakMean)
	fmt.Fprintf(&b, "  GOP signature:    acf(%d) = %.3f vs acf(%d) = %.3f\n",
		r.GOPSize, r.GOPLagACF, r.GOPSize-3, r.OffGOPACF)
	return b.String()
}

// ExtScenesResult reports the scene-detection study (§4.2's open
// question) on a movie with known ground truth.
type ExtScenesResult struct {
	TrueScenes, Detected int
	Precision, Recall    float64
	Model                scenes.LevelModel
}

// ExtScenesCtx runs the detector against the generator's ground truth
// on a dialogue-free synthetic movie. Cancellation is threaded through
// the synthesis and checked again before detection.
func (s *Suite) ExtScenesCtx(ctx context.Context) (*ExtScenesResult, error) {
	cfg := s.Cfg
	cfg.Frames = min(cfg.Frames, 40000)
	cfg.SlicesPerFrame = 0
	cfg.DialogueProb = 0 // shot alternation is not in the ground-truth cut list
	z, truth, err := synth.ActivityProcess(ctx, cfg)
	if err != nil {
		return nil, err
	}
	frames, err := synth.MarginalMap(z, cfg)
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, errs.Cancelled(ctx)
	}
	var truthCuts []int
	for _, sc := range truth[1:] {
		truthCuts = append(truthCuts, sc.Start)
	}
	dcfg := scenes.DefaultConfig()
	cuts, err := scenes.Cuts(frames, dcfg)
	if err != nil {
		return nil, err
	}
	p, r := scenes.MatchStats(cuts, truthCuts, dcfg.Window)
	detected, err := scenes.Detect(frames, dcfg)
	if err != nil {
		return nil, err
	}
	lm, err := scenes.FitLevelModel(detected)
	if err != nil {
		return nil, err
	}
	return &ExtScenesResult{
		TrueScenes: len(truth),
		Detected:   len(detected),
		Precision:  p,
		Recall:     r,
		Model:      *lm,
	}, nil
}

// Format renders the scene-detection study.
func (r *ExtScenesResult) Format() string {
	var b strings.Builder
	b.WriteString("Extension: scene detection on the bandwidth series (§4.2's open question)\n")
	fmt.Fprintf(&b, "  ground truth %d scenes; detector found %d segments\n", r.TrueScenes, r.Detected)
	fmt.Fprintf(&b, "  cut precision %.2f, recall %.2f (cuts between equal-complexity scenes\n", r.Precision, r.Recall)
	b.WriteString("  produce no level shift and are invisible to any bandwidth-only detector)\n")
	fmt.Fprintf(&b, "  scene-level model: mean duration %.0f frames, level μ %.0f ± %.0f bytes, within-scene σ %.0f\n",
		r.Model.MeanDuration, r.Model.LevelMean, r.Model.LevelStd, r.Model.WithinStdMean)
	return b.String()
}

// lrdVT fits the variance-time H over aggregation levels beyond the
// short-range scale (m ≥ 30), so the augmentations' extra short-lag
// correlation does not leak into the comparison.
func lrdVT(frames []float64) (float64, error) {
	vt, err := lrd.VarianceTime(frames, 30, 30, 0)
	if err != nil {
		return 0, err
	}
	return vt.H, nil
}
