// Hurst analysis: estimate the long-range-dependence parameter H of a
// bandwidth series with every §3.2.3 method and cross-check them — the
// Table 3 workflow, applied both to a known-H synthetic process (so the
// estimators can be validated) and to the empirical-substitute trace.
//
//	go run ./examples/hurst-analysis
package main

import (
	"context"
	"fmt"
	"log"

	"vbr"
)

func main() {
	ctx := context.Background()
	// Part 1: calibrate trust in the estimators on traffic with KNOWN H.
	// The model's generator is exact, so discrepancies here are
	// estimator error, not generator error.
	fmt.Println("== estimators on synthetic traffic with known H ==")
	for _, h := range []float64{0.6, 0.8, 0.9} {
		model := vbr.Model{MuGamma: 27791, SigmaGamma: 6254, TailSlope: 12, Hurst: h}
		opts := vbr.DefaultGenOptions()
		opts.Backend = vbr.BackendDaviesHarte
		opts.Seed = uint64(h * 1000)
		frames, err := model.GenerateCtx(ctx, 60000, opts)
		if err != nil {
			log.Fatal(err)
		}
		est, err := vbr.EstimateHurst(frames, 100)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("true H=%.2f → variance-time %.2f, R/S %.2f, Whittle %.2f ± %.2f, consensus %.2f\n",
			h, est.VarianceTime, est.RS, est.Whittle, est.WhittleCI95, est.Median())
	}

	// Part 2: the Table 3 measurement on the movie trace.
	fmt.Println("\n== Table 3 on the synthetic movie trace ==")
	cfg := vbr.DefaultMovieConfig()
	cfg.Frames = 60000
	cfg.MeanSceneFrames = 120
	tr, err := vbr.GenerateMovie(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	est, err := vbr.EstimateHurst(tr.Frames, 400)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Variance-Time        %.2f   (paper: 0.78)\n", est.VarianceTime)
	fmt.Printf("R/S Analysis         %.2f   (paper: 0.83)\n", est.RS)
	fmt.Printf("R/S Aggregated       %.2f   (paper: 0.78)\n", est.RSAggregated)
	fmt.Printf("R/S n, M varied      %.2f-%.2f (paper: 0.81-0.83)\n", est.RSSweepMin, est.RSSweepMax)
	fmt.Printf("Whittle              %.2f ± %.3f (paper: 0.8 ± 0.088)\n", est.Whittle, est.WhittleCI95)
	fmt.Printf("consensus (median)   %.2f\n", est.Median())
	fmt.Println("\nnote: scene structure is short-range correlation; estimators that")
	fmt.Println("aggregate past the scene scale (aggregated R/S, stabilized Whittle)")
	fmt.Println("recover the backbone H, exactly as §3.2.3 prescribes.")
}
