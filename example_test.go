package vbr_test

import (
	"context"
	"fmt"

	"vbr"
)

// ExampleGenerateMovie synthesizes a short empirical-substitute trace and
// prints its headline statistics.
func ExampleGenerateMovie() {
	ctx := context.Background()
	cfg := vbr.DefaultMovieConfig()
	cfg.Frames = 2400 // 100 seconds
	cfg.SlicesPerFrame = 0
	tr, err := vbr.GenerateMovie(ctx, cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	s, err := vbr.Summarize(tr.Frames)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("frames: %d\n", s.N)
	fmt.Printf("mean within 15%% of paper: %v\n", s.Mean > 27791*0.85 && s.Mean < 27791*1.15)
	// Output:
	// frames: 2400
	// mean within 15% of paper: true
}

// ExampleModel_GenerateCtx runs the paper's four-parameter generator (the
// exact Hosking algorithm on a short series) and checks the realization.
func ExampleModel_GenerateCtx() {
	ctx := context.Background()
	model := vbr.Model{MuGamma: 27791, SigmaGamma: 6254, TailSlope: 12, Hurst: 0.8}
	opts := vbr.DefaultGenOptions() // BackendHosking, 10,000-point table
	frames, err := model.GenerateCtx(ctx, 2000, opts)
	if err != nil {
		fmt.Println(err)
		return
	}
	s, _ := vbr.Summarize(frames)
	fmt.Printf("frames: %d\n", s.N)
	fmt.Printf("all positive: %v\n", s.Min > 0)
	// Output:
	// frames: 2000
	// all positive: true
}

// ExampleNewGammaParetoFromParams shows the hybrid marginal's threshold
// construction.
func ExampleNewGammaParetoFromParams() {
	gp, err := vbr.NewGammaParetoFromParams(vbr.GammaParetoParams{MuGamma: 27791, SigmaGamma: 6254, TailSlope: 12})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("body/tail threshold near mean+2.7sd: %v\n",
		gp.Threshold() > 27791+2*6254 && gp.Threshold() < 27791+3.5*6254)
	fmt.Printf("tail mass a few percent: %v\n", gp.TailMass() > 0.001 && gp.TailMass() < 0.05)
	// Output:
	// body/tail threshold near mean+2.7sd: true
	// tail mass a few percent: true
}

// ExampleSimulate pushes a constant-rate workload through the Fig. 13
// queue at exactly half the needed capacity.
func ExampleSimulate() {
	bytes := make([]float64, 100)
	for i := range bytes {
		bytes[i] = 1000
	}
	w := vbr.Workload{Bytes: bytes, Interval: 0.01} // 800 kb/s offered
	r, err := vbr.Simulate(w, 400_000, 0, vbr.SimOptions{})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("loss rate: %.2f\n", r.Pl)
	// Output:
	// loss rate: 0.50
}

// ExampleCBRRate shows the CBR-vs-VBR motivation: constant-rate transport
// of a bursty source needs far more than the mean rate.
func ExampleCBRRate() {
	bytes := []float64{1000, 1000, 8000, 1000, 1000, 1000, 1000, 1000}
	w := vbr.Workload{Bytes: bytes, Interval: 0.1}
	tight, _ := vbr.CBRRate(w, 0)   // no smoothing: peak
	loose, _ := vbr.CBRRate(w, 1e6) // unlimited smoothing: mean
	fmt.Printf("no smoothing  = peak rate: %v\n", tight == w.PeakRate())
	fmt.Printf("full smoothing ≈ mean rate: %v\n", loose < w.MeanRate()*1.01)
	// Output:
	// no smoothing  = peak rate: true
	// full smoothing ≈ mean rate: true
}
