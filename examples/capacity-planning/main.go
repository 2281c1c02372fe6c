// Capacity planning: size an ATM-style link carrying N statistically
// multiplexed VBR video streams, the engineering workflow behind Figs.
// 14–15 of the paper.
//
// Given a QOS target (cell loss rate) and a buffer-delay budget, the
// example computes the minimum link capacity for a range of N and shows
// the statistical multiplexing gain — the reason VBR transport beats CBR.
//
//	go run ./examples/capacity-planning
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

	peak := tr.PeakRate()
	mean := tr.MeanRate()
	fmt.Printf("single source: mean %.2f Mb/s, peak %.2f Mb/s (burstiness %.2f)\n\n",
		mean/1e6, peak/1e6, peak/mean)

	// QOS: overall loss ≤ 1e-4 with at most 2 ms of queueing delay —
	// the operating point Fig. 15 fixes.
	target := vbr.LossTarget{Pl: 1e-4}
	const tmax = 0.002

	points, err := vbr.SMGCtx(ctx, vbr.SMGConfig{
		NewMux: func(n int) (vbr.Aggregator, error) {
			return vbr.NewMuxFromConfig(vbr.MuxConfig{Trace: tr, N: n, MinLagFrames: 800, Seed: 7})
		},
		Ns:      []int{1, 2, 5, 10, 20},
		Target:  target,
		TmaxSec: tmax,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("allocation for %s at T_max = 2 ms:\n", target)
	fmt.Printf("  %3s  %14s  %16s  %14s\n", "N", "link (Mb/s)", "per-source Mb/s", "gain realized")
	for _, p := range points {
		gain, err := vbr.RealizedGain(p.PerSourceBps, peak, mean)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %3d  %14.2f  %16.3f  %13.0f%%\n",
			p.N, p.PerSourceBps*float64(p.N)/1e6, p.PerSourceBps/1e6, gain*100)
	}
	fmt.Println("\nreading: with 1 source the link must be provisioned near peak;")
	fmt.Println("by 20 sources the per-source share approaches the mean rate —")
	fmt.Println("the statistical multiplexing gain that motivates VBR transport.")
}
