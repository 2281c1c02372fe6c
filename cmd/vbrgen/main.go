// Command vbrgen generates synthetic VBR video traffic from the paper's
// four-parameter source model (§4): fractional ARIMA(0, d, 0) noise from
// Hosking's exact algorithm, transformed to the hybrid Gamma/Pareto
// marginal via Eq. 13.
//
// The paper reports 10 hours for its 171,000 Hosking frames on a 1994
// workstation; the closed form here takes about a tenth of a second,
// and 4,194,304 frames a few seconds. A run keeps no checkpoint: Ctrl-C
// during generation exits 130 before any output is written, and
// rerunning with the same seed reproduces the run bit for bit.
//
// Examples:
//
//	vbrgen -n 171000 -o model.bin                  # paper parameters
//	vbrgen -n 171000 -hurst 0.85 -tail 9 -o x.bin  # custom parameters
//	vbrgen -n 50000 -variant gaussian -csv g.csv   # Fig. 16 ablation
//	vbrgen -n 171000 -backend auto -o x.bin        # policy picks the engine
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"

	"vbr/internal/backend"
	"vbr/internal/cli"
	"vbr/internal/core"
	"vbr/internal/lrd"
	"vbr/internal/stats"
	"vbr/internal/trace"
)

func main() {
	os.Exit(cli.Main("vbrgen", run))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (retErr error) {
	fs := flag.NewFlagSet("vbrgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n       = fs.Int("n", 171000, "frames to generate")
		mu      = fs.Float64("mean", 27791, "μ_Γ: Gamma-body mean (bytes/frame)")
		sigma   = fs.Float64("std", 6254, "σ_Γ: Gamma-body std (bytes/frame)")
		tail    = fs.Float64("tail", 12, "m_T: Pareto tail slope")
		hurst   = fs.Float64("hurst", 0.8, "H: Hurst parameter")
		bk      = fs.String("backend", "davies-harte", "Gaussian backend: hosking (the paper's exact algorithm, O(n log² n)) | davies-harte | paxson (both O(n log n)) | auto (exact when short, paxson when long)")
		variant = fs.String("variant", "full", "model variant: full | gaussian | iid")
		tabSize = fs.Int("table", 10000, "marginal mapping table size (paper: 10000)")
		seed    = fs.Uint64("seed", 1, "random seed")
		spf     = fs.Int("slices", 30, "slices per frame in the output trace (0 = none)")
		outBin  = fs.String("o", "", "output path for binary trace")
		outCSV  = fs.String("csv", "", "output path for CSV frame series")
		verify  = fs.Bool("verify", true, "measure the realization against the model")
	)
	ob := cli.RegisterObsFlags(fs)
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}
	ctx, finish, err := ob.Observe(ctx, stderr)
	if err != nil {
		return err
	}
	defer cli.FinishObs(finish, &retErr)

	model := core.Model{MuGamma: *mu, SigmaGamma: *sigma, TailSlope: *tail, Hurst: *hurst}
	if err := model.Validate(); err != nil {
		return err
	}
	opts := core.GenOptions{TableSize: *tabSize, Standardize: true, Seed: *seed}
	b, err := backend.Parse(*bk)
	if err != nil {
		return err
	}
	opts.Backend = b

	var frames []float64
	switch *variant {
	case "full":
		frames, err = model.GenerateCtx(ctx, *n, opts)
	case "gaussian":
		frames, err = model.GenerateGaussianCtx(ctx, *n, opts)
	case "iid":
		frames, err = model.GenerateIIDCtx(ctx, *n, opts)
	default:
		return cli.Usagef("unknown variant %q", *variant)
	}
	if err != nil {
		return err
	}

	if *verify {
		s, err := stats.Summarize(frames)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "generated %d frames: mean %.0f, std %.0f, CoV %.2f, peak/mean %.2f\n",
			s.N, s.Mean, s.Std, s.CoV, s.PeakMean)
		if *variant == "full" && *n >= 1000 {
			vt, err := lrd.VarianceTime(frames, 1, 0, 0)
			if err == nil {
				fmt.Fprintf(stdout, "variance-time H of realization: %.3f (model: %.3f)\n", vt.H, model.Hurst)
			}
		}
	}

	tr := &trace.Trace{Frames: frames, FrameRate: 24}
	if *spf > 0 {
		rng := rand.New(rand.NewPCG(*seed, 0x517ce))
		if err := tr.SlicesFromFrames(*spf, 0.3, rng.Float64); err != nil {
			return err
		}
	}
	if *outBin != "" {
		if err := writeTrace(*outBin, tr.WriteBinary); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote binary trace to %s\n", *outBin)
	}
	if *outCSV != "" {
		if err := writeTrace(*outCSV, tr.WriteCSV); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote CSV frame series to %s\n", *outCSV)
	}
	return nil
}

// writeTrace creates path and streams the trace through write, closing
// the file even on error.
func writeTrace(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
