// Command vbrtrace synthesizes the empirical-substitute VBR video trace
// (§2 of the paper) and writes it to disk.
//
// Two generation paths are available:
//
//   - activity (default): the scene-structured activity process is mapped
//     directly to bytes-per-frame through the calibrated Gamma/Pareto
//     marginal. Fast; reproduces Tables 1–2 at full length in seconds.
//   - codec: the activity process drives a procedural frame renderer and
//     every frame is compressed by the real 8×8 DCT / run-length /
//     Huffman intraframe coder; bit counts become the trace. This is the
//     paper's actual pipeline (the authors burned 6 weeks of 1990 CPU on
//     it) and costs O(frames·pixels).
//
// Examples:
//
//	vbrtrace -frames 171000 -o trace.bin
//	vbrtrace -mode codec -frames 2000 -width 504 -height 480 -o coded.bin
//	vbrtrace -frames 30000 -csv trace.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"vbr/internal/backend"
	"vbr/internal/cli"
	"vbr/internal/codec"
	"vbr/internal/obs"
	"vbr/internal/synth"
	"vbr/internal/trace"
)

// slicesFor returns the preferred slice count if it divides the frame's
// block rows, otherwise the largest divisor of the block rows not
// exceeding it (so reduced test resolutions keep working).
func slicesFor(height, preferred int) int {
	blockRows := height / 8
	if blockRows < 1 {
		return 1
	}
	for s := min(preferred, blockRows); s > 1; s-- {
		if blockRows%s == 0 {
			return s
		}
	}
	return 1
}

func main() {
	os.Exit(cli.Main("vbrtrace", run))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (retErr error) {
	fs := flag.NewFlagSet("vbrtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mode    = fs.String("mode", "activity", "generation path: activity | codec | interframe")
		gop     = fs.Int("gop", 12, "GOP size (interframe mode)")
		search  = fs.Int("search", 4, "motion search range in pels (interframe mode)")
		bframes = fs.Int("bframes", 2, "B frames between references (interframe mode)")
		frames  = fs.Int("frames", 171000, "number of frames")
		seed    = fs.Uint64("seed", 1994, "random seed")
		bk      = fs.String("backend", "davies-harte", "Gaussian backend behind the activity backbone: hosking | davies-harte | paxson | auto")
		hurst   = fs.Float64("hurst", 0.8, "Hurst parameter of the activity process")
		mean    = fs.Float64("mean", 27791, "Gamma-body mean, bytes/frame (activity mode)")
		std     = fs.Float64("std", 6254, "Gamma-body std, bytes/frame (activity mode)")
		tail    = fs.Float64("tail", 12, "Pareto tail slope m_T (activity mode)")
		width   = fs.Int("width", 504, "frame width (codec mode)")
		height  = fs.Int("height", 480, "frame height (codec mode)")
		quant   = fs.Float64("quant", 8, "quantizer step (codec mode)")
		train   = fs.Int("train", 64, "Huffman training frames (codec mode)")
		outBin  = fs.String("o", "", "output path for binary trace")
		outCSV  = fs.String("csv", "", "output path for CSV frame series")
		summary = fs.Bool("summary", true, "print Table 1/2 style summary")
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
	scope := obs.From(ctx)

	cfg := synth.DefaultConfig()
	cfg.Frames = *frames
	cfg.Seed = *seed
	cfg.Hurst = *hurst
	cfg.MeanBytes = *mean
	cfg.StdBytes = *std
	cfg.TailSlope = *tail
	if cfg.Backend, err = backend.Parse(*bk); err != nil {
		return err
	}

	endGen := scope.Span("trace.synth")
	var tr *trace.Trace
	switch *mode {
	case "activity":
		tr, err = synth.Generate(ctx, cfg)
	case "codec":
		ccfg := codec.DefaultCoderConfig()
		ccfg.Width = *width
		ccfg.Height = *height
		ccfg.QuantStep = *quant
		ccfg.SlicesPerFrame = slicesFor(*height, ccfg.SlicesPerFrame)
		var coder *codec.Coder
		coder, err = codec.NewCoder(ccfg)
		if err == nil {
			cfg.SlicesPerFrame = 0 // the coder produces slice data itself
			tr, err = coder.GenerateTrace(ctx, cfg, *train)
		}
	case "interframe":
		icfg := codec.DefaultInterCoderConfig()
		icfg.Width = *width
		icfg.Height = *height
		icfg.QuantStep = *quant
		icfg.GOPSize = *gop
		icfg.SearchRange = *search
		icfg.BFrames = *bframes
		icfg.SlicesPerFrame = slicesFor(*height, icfg.SlicesPerFrame)
		var coder *codec.InterCoder
		coder, err = codec.NewInterCoder(icfg)
		if err == nil {
			cfg.SlicesPerFrame = 0
			tr, err = coder.GenerateTrace(ctx, cfg, *train)
		}
	default:
		return cli.Usagef("unknown mode %q (want activity, codec or interframe)", *mode)
	}
	endGen()
	if err != nil {
		return err
	}
	scope.Count("trace.frames", int64(len(tr.Frames)))
	scope.Count("trace.slices", int64(len(tr.Slices)))

	if *summary {
		fs, err := tr.FrameStats()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "frames:        %d (%.2f h at %.0f fps)\n", len(tr.Frames), tr.Duration()/3600, tr.FrameRate)
		fmt.Fprintf(stdout, "avg bandwidth: %.2f Mb/s\n", tr.MeanRate()/1e6)
		fmt.Fprintf(stdout, "mean/frame:    %.0f bytes   std: %.0f   CoV: %.2f\n", fs.Mean, fs.Std, fs.CoV)
		fmt.Fprintf(stdout, "min/max:       %.0f / %.0f bytes   peak/mean: %.2f\n", fs.Min, fs.Max, fs.PeakMean)
		if tr.Slices != nil {
			ss, err := tr.SliceStats()
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "slice mean:    %.1f bytes   CoV: %.2f\n", ss.Mean, ss.CoV)
		}
	}

	if *outBin != "" {
		if err := writeFile(*outBin, tr.WriteBinary); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote binary trace to %s\n", *outBin)
	}
	if *outCSV != "" {
		if err := writeFile(*outCSV, tr.WriteCSV); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote CSV frame series to %s\n", *outCSV)
	}
	return nil
}

// writeFile creates path and streams through write, closing the file
// even on error.
func writeFile(path string, write func(io.Writer) error) error {
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
