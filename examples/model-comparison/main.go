// Model comparison: the Fig. 16 experiment as an application — why BOTH
// long-range dependence and heavy-tailed marginals matter when sizing a
// network for VBR video.
//
// Three source models fitted to the same trace are pushed through the
// same queue; the one that captures both phenomena tracks the trace's
// resource demand, the single-feature ablations do not.
//
//	go run ./examples/model-comparison
package main

import (
	"context"
	"fmt"
	"log"

	"vbr"
)

func main() {
	ctx := context.Background()
	cfg := vbr.DefaultMovieConfig()
	cfg.Frames = 20000
	cfg.MeanSceneFrames = 120
	tr, err := vbr.GenerateMovie(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	model, err := vbr.FitCtx(ctx, tr.Frames, vbr.DefaultFitOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fitted model: μ_Γ=%.0f σ_Γ=%.0f m_T=%.2f H=%.3f\n\n",
		model.MuGamma, model.SigmaGamma, model.TailSlope, model.Hurst)

	opts := vbr.DefaultGenOptions()
	opts.Backend = vbr.BackendDaviesHarte
	n := len(tr.Frames)

	full, err := model.GenerateCtx(ctx, n, opts)
	if err != nil {
		log.Fatal(err)
	}
	gauss, err := model.GenerateGaussianCtx(ctx, n, opts)
	if err != nil {
		log.Fatal(err)
	}
	iid, err := model.GenerateIIDCtx(ctx, n, opts)
	if err != nil {
		log.Fatal(err)
	}

	// Compare the zero-loss capacity requirement of each source at a
	// range of buffer delays for a single source (the hardest case).
	grid := []float64{0.001, 0.004, 0.016, 0.064}
	sources := []struct {
		name   string
		frames []float64
	}{
		{"trace (ground truth)", tr.Frames},
		{"fARIMA + Gamma/Pareto (full model)", full},
		{"fARIMA + Gaussian (no heavy tail)", gauss},
		{"i.i.d. Gamma/Pareto (no LRD)", iid},
	}

	fmt.Printf("%-36s", "zero-loss capacity (Mb/s) at T_max:")
	for _, tm := range grid {
		fmt.Printf("  %7.0fms", tm*1000)
	}
	fmt.Println()
	for _, src := range sources {
		srcTr := &vbr.Trace{Frames: src.frames, FrameRate: tr.FrameRate}
		mux, err := vbr.NewMuxFromConfig(vbr.MuxConfig{Trace: srcTr, N: 1, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		points, err := vbr.QCCurveCtx(ctx, vbr.QCCurveConfig{
			Mux:      mux,
			Target:   vbr.LossTarget{Pl: 0},
			TmaxGrid: grid,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-36s", src.name)
		for _, p := range points {
			fmt.Printf("  %9.3f", p.PerSourceBps/1e6)
		}
		fmt.Println()
	}

	fmt.Println("\nreading: the Gaussian variant understates the demand at small")
	fmt.Println("buffers (it has no extreme frames to absorb), while the i.i.d.")
	fmt.Println("variant collapses at large buffers (without LRD, bursts never")
	fmt.Println("persist long enough to fill them). Only the full model tracks the")
	fmt.Println("trace across the whole tradeoff — the paper's Fig. 16 conclusion.")
}
