// Quickstart: the complete fit → generate → verify loop of the paper in
// ~50 lines using the public vbr API.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"vbr"
)

func main() {
	ctx := context.Background()
	// 1. Obtain an "empirical" trace: the synthetic 2-hour movie
	//    calibrated to the paper's Table 2 (shortened here for speed).
	cfg := vbr.DefaultMovieConfig()
	cfg.Frames = 30000 // ~21 minutes; use 171000 for the full 2 hours
	tr, err := vbr.GenerateMovie(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	s, err := vbr.Summarize(tr.Frames)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace: %d frames, mean %.0f bytes/frame, peak/mean %.2f\n",
		s.N, s.Mean, s.PeakMean)

	// 2. Fit the paper's four-parameter source model (μ_Γ, σ_Γ, m_T, H).
	model, err := vbr.FitCtx(ctx, tr.Frames, vbr.DefaultFitOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model: μ_Γ=%.0f σ_Γ=%.0f m_T=%.2f H=%.3f\n",
		model.MuGamma, model.SigmaGamma, model.TailSlope, model.Hurst)

	// 3. Generate synthetic traffic from the model. The default engine is
	//    Hosking's exact O(n²) algorithm (the paper's); switch to
	//    BackendDaviesHarte for long series.
	opts := vbr.DefaultGenOptions()
	opts.Backend = vbr.BackendDaviesHarte
	frames, err := model.GenerateCtx(ctx, 30000, opts)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Verify the realization agrees with the model, as §4.2 requires:
	//    moments, heavy tail, and long-range dependence.
	gen, err := vbr.Summarize(frames)
	if err != nil {
		log.Fatal(err)
	}
	est, err := vbr.EstimateHurst(frames, 100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated: mean %.0f bytes/frame (target %.0f), peak/mean %.2f\n",
		gen.Mean, model.MuGamma, gen.PeakMean)
	fmt.Printf("H of realization: variance-time %.2f, R/S %.2f, Whittle %.2f (model %.3f)\n",
		est.VarianceTime, est.RS, est.Whittle, model.Hurst)
}
