// Command vbrgen generates synthetic VBR video traffic from the paper's
// four-parameter source model (§4): fractional ARIMA(0, d, 0) noise from
// Hosking's exact algorithm, transformed to the hybrid Gamma/Pareto
// marginal via Eq. 13.
//
// Hosking runs (the paper reports 10 hours for its 171,000 frames on a
// 1994 workstation; the closed form here takes about a tenth of a
// second) are interruptible: with -checkpoint set, Ctrl-C saves the
// frames drawn so far and -resume continues from them, producing output
// bitwise-identical to an uninterrupted run.
//
// Examples:
//
//	vbrgen -n 171000 -o model.bin                  # paper parameters
//	vbrgen -n 171000 -hurst 0.85 -tail 9 -o x.bin  # custom parameters
//	vbrgen -n 50000 -variant gaussian -csv g.csv   # Fig. 16 ablation
//	vbrgen -n 171000 -backend auto -o x.bin        # policy picks the engine
//	vbrgen -n 171000 -backend hosking -checkpoint gen.ckpt -o x.bin
//	vbrgen -n 171000 -backend hosking -checkpoint gen.ckpt -resume -o x.bin
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"sort"

	"vbr/internal/backend"
	"vbr/internal/checkpoint"
	"vbr/internal/cli"
	"vbr/internal/core"
	"vbr/internal/errs"
	"vbr/internal/fgn"
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
		n        = fs.Int("n", 171000, "frames to generate")
		mu       = fs.Float64("mean", 27791, "μ_Γ: Gamma-body mean (bytes/frame)")
		sigma    = fs.Float64("std", 6254, "σ_Γ: Gamma-body std (bytes/frame)")
		tail     = fs.Float64("tail", 12, "m_T: Pareto tail slope")
		hurst    = fs.Float64("hurst", 0.8, "H: Hurst parameter")
		bk       = fs.String("backend", "davies-harte", "Gaussian backend: hosking (the paper's exact algorithm, O(n log² n)) | davies-harte | paxson (both O(n log n)) | auto (exact when short, paxson when long)")
		variant  = fs.String("variant", "full", "model variant: full | gaussian | iid")
		tabSize  = fs.Int("table", 10000, "marginal mapping table size (paper: 10000)")
		seed     = fs.Uint64("seed", 1, "random seed")
		spf      = fs.Int("slices", 30, "slices per frame in the output trace (0 = none)")
		outBin   = fs.String("o", "", "output path for binary trace")
		outCSV   = fs.String("csv", "", "output path for CSV frame series")
		verify   = fs.Bool("verify", true, "measure the realization against the model")
		ckptPath = fs.String("checkpoint", "", "checkpoint file: on interrupt the Hosking state is saved here")
		resume   = fs.Bool("resume", false, "continue an interrupted generation from -checkpoint")
		every    = fs.Int("checkpoint-every", 1<<20, "with -checkpoint, also save the state every this many points (0 = only on interrupt); each save writes every point drawn so far")
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
	if *ckptPath != "" && (b != backend.Hosking || *variant != "full") {
		return cli.Usagef("-checkpoint requires -backend hosking and -variant full")
	}
	if *resume && *ckptPath == "" {
		return cli.Usagef("-resume requires -checkpoint")
	}

	var frames []float64
	switch *variant {
	case "full":
		if *ckptPath != "" {
			frames, err = generateCheckpointed(ctx, model, *n, opts, *ckptPath, *resume, *every, stderr)
		} else {
			frames, err = model.GenerateCtx(ctx, *n, opts)
		}
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

// genMeta identifies a generation run inside a checkpoint so a resume
// with different parameters is rejected instead of silently producing a
// series from mixed states.
func genMeta(m core.Model, n int, opts core.GenOptions) map[string]string {
	return map[string]string{
		"n":     fmt.Sprint(n),
		"seed":  fmt.Sprint(opts.Seed),
		"table": fmt.Sprint(opts.TableSize),
		"mu":    fmt.Sprint(m.MuGamma),
		"sigma": fmt.Sprint(m.SigmaGamma),
		"tail":  fmt.Sprint(m.TailSlope),
		"hurst": fmt.Sprint(m.Hurst),
	}
}

// generateCheckpointed runs the resumable Hosking generation: on
// interruption the generator state is flushed to ckptPath before the
// error propagates, a positive every additionally saves the state after
// each block of that many points (so a crash, not just a signal, loses
// bounded work); on success a consumed checkpoint is removed.
func generateCheckpointed(ctx context.Context, m core.Model, n int, opts core.GenOptions, ckptPath string, resume bool, every int, stderr io.Writer) ([]float64, error) {
	meta := genMeta(m, n, opts)
	if every > 0 {
		opts.SnapshotEvery = every
		opts.Snapshot = func(st *fgn.HoskingState) error {
			rec := &checkpoint.HoskingRecord{Meta: meta, State: st}
			if err := checkpoint.SaveHosking(ckptPath, rec); err != nil {
				return fmt.Errorf("saving periodic checkpoint: %w", err)
			}
			return nil
		}
	}
	var state *fgn.HoskingState
	if resume {
		rec, err := checkpoint.LoadHosking(ckptPath)
		if err != nil {
			return nil, fmt.Errorf("loading checkpoint: %w", err)
		}
		// Sorted keys so a mismatch always reports the same field first.
		keys := make([]string, 0, len(meta))
		for k := range meta {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			want := meta[k]
			if got := rec.Meta[k]; got != want {
				return nil, fmt.Errorf("checkpoint %s was written with %s=%s, current run has %s: %w",
					ckptPath, k, got, want, errs.ErrCheckpointMismatch)
			}
		}
		state = rec.State
		fmt.Fprintf(stderr, "resuming from %s at frame %d of %d\n", ckptPath, state.K, n)
	}
	frames, snap, err := m.GenerateResumable(ctx, n, opts, state)
	if err != nil {
		if snap != nil {
			rec := &checkpoint.HoskingRecord{Meta: meta, State: snap}
			if serr := checkpoint.SaveHosking(ckptPath, rec); serr != nil {
				return nil, errors.Join(err, fmt.Errorf("saving checkpoint: %w", serr))
			}
			fmt.Fprintf(stderr, "interrupted at frame %d of %d; state saved to %s (continue with -resume)\n",
				snap.K, n, ckptPath)
		}
		return nil, err
	}
	if resume || every > 0 {
		// The checkpoint is consumed (or superseded by the completed
		// run); leaving it behind would invite a second resume into an
		// already-finished run.
		if rmErr := os.Remove(ckptPath); rmErr != nil && !errors.Is(rmErr, os.ErrNotExist) {
			fmt.Fprintf(stderr, "warning: could not remove consumed checkpoint %s: %v\n", ckptPath, rmErr)
		}
	}
	return frames, nil
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
