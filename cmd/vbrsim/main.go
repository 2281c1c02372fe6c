// Command vbrsim runs the trace-driven and model-based queueing
// simulations of §5 of the paper: the Fig. 14 Q–C tradeoff curves, the
// Fig. 15 statistical-multiplexing-gain analysis, the Fig. 16 model
// comparison, the Fig. 17 error-process study, and one-off simulations of
// a single operating point — optionally under a deterministic schedule of
// server faults.
//
// The Fig. 14 study (the slowest) is interruptible: with -checkpoint
// set, Ctrl-C saves the completed and partial curves and -resume
// continues the sweep where it stopped, printing what an uninterrupted
// run prints. The checkpoint records the trace it was computed from,
// and a resume on any other trace or granularity is refused.
//
// Examples:
//
//	vbrsim -frames 30000 -fig14
//	vbrsim -frames 30000 -fig14 -checkpoint f14.ckpt            # Ctrl-C safe
//	vbrsim -frames 30000 -fig14 -checkpoint f14.ckpt -resume
//	vbrsim -frames 171000 -fig15 -slices
//	vbrsim -in trace.bin -point -n 5 -capacity 20e6 -tmax 2ms
//	vbrsim -in trace.bin -point -faults -fault-gap 800 -fault-outage 0.3
//
// Instead of a trace, -point can multiplex scenario-zoo models
// (see vbrgen or the README's zoo table for the registry):
//
//	vbrsim -point -source gop -n 5 -capacity 20e6
//	vbrsim -point -mix 'farima*3+onoff:fps=24*2' -capacity 30e6
package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"vbr/internal/backend"
	"vbr/internal/checkpoint"
	"vbr/internal/cli"
	"vbr/internal/errs"
	"vbr/internal/experiments"
	"vbr/internal/queue"
	"vbr/internal/source"
)

func main() {
	os.Exit(cli.Main("vbrsim", run))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (retErr error) {
	fs := flag.NewFlagSet("vbrsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in     = fs.String("in", "", "binary trace file; empty = regenerate synthetic movie")
		frames = fs.Int("frames", 30000, "frames to generate when -in is empty")
		seed   = fs.Uint64("seed", 1994, "seed for regeneration")
		bk     = fs.String("backend", "", "Gaussian backend for regeneration: hosking | davies-harte | paxson | auto (default davies-harte)")
		slices = fs.Bool("slices", false, "simulate at slice granularity (the paper's resolution; ~30× slower)")

		fig14 = fs.Bool("fig14", false, "Fig 14: Q-C tradeoff curves")
		fig15 = fs.Bool("fig15", false, "Fig 15: statistical multiplexing gain")
		fig16 = fs.Bool("fig16", false, "Fig 16: trace vs model variants")
		fig17 = fs.Bool("fig17", false, "Fig 17: windowed error process")

		point    = fs.Bool("point", false, "simulate one operating point")
		nSources = fs.Int("n", 1, "multiplexed sources (-point)")
		srcSpec  = fs.String("source", "", "scenario-zoo model for -point, e.g. gop or cascade:depth=10; -n copies are multiplexed")
		mixSpec  = fs.String("mix", "", "scenario-zoo mix spec for -point, e.g. 'farima*3+onoff:fps=24*2'")
		capacity = fs.Float64("capacity", 6e6, "channel capacity, bits/s (-point)")
		tmax     = fs.Duration("tmax", 2*time.Millisecond, "max buffer delay Q/(N·C) (-point)")

		ckptPath = fs.String("checkpoint", "", "checkpoint file for the Fig 14 sweep (saved on interrupt)")
		resume   = fs.Bool("resume", false, "continue an interrupted Fig 14 sweep from -checkpoint")

		faults      = fs.Bool("faults", false, "inject a deterministic server fault schedule (-point)")
		faultSeed   = fs.Uint64("fault-seed", 1, "fault schedule seed")
		faultGap    = fs.Float64("fault-gap", 2000, "mean clean intervals between fault episodes")
		faultLen    = fs.Float64("fault-len", 40, "mean fault episode length in intervals")
		faultOutage = fs.Float64("fault-outage", 0.2, "probability an episode is a full outage")
		faultFactor = fs.Float64("fault-factor", 0.5, "minimum capacity factor of partial degradations")
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
	if *ckptPath != "" && !*fig14 {
		return cli.Usagef("-checkpoint applies to the -fig14 sweep")
	}
	if *resume && *ckptPath == "" {
		return cli.Usagef("-resume requires -checkpoint")
	}
	if *faults && !*point {
		return cli.Usagef("-faults applies to -point simulations")
	}
	genBackend := backend.DaviesHarte
	if *bk != "" {
		if *in != "" {
			return cli.Usagef("-backend applies to regeneration; it conflicts with -in")
		}
		if genBackend, err = backend.Parse(*bk); err != nil {
			return err
		}
	}
	zooSpec, err := resolveZooSpec(*srcSpec, *mixSpec, *nSources)
	if err != nil {
		return err
	}
	if zooSpec != "" {
		switch {
		case !*point:
			return cli.Usagef("-source/-mix apply to -point simulations")
		case *in != "":
			return cli.Usagef("-source/-mix conflict with -in: zoo models replace the trace")
		case *slices:
			return cli.Usagef("scenario-zoo sources simulate at frame granularity; drop -slices")
		}
	}

	var suite *experiments.Suite
	if *fig14 || *fig15 || *fig16 || *fig17 || (*point && zooSpec == "") {
		suite, err = loadOrGenerate(ctx, *in, *frames, *seed, genBackend)
		if err != nil {
			return err
		}
		suite.UseSlices = *slices
	}

	any := false
	if *fig14 {
		any = true
		if err := runFig14(ctx, suite, *ckptPath, *resume, stdout, stderr); err != nil {
			return err
		}
	}
	if *fig15 {
		any = true
		r, err := suite.Fig15Ctx(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, r.Format())
	}
	if *fig16 {
		any = true
		r, err := suite.Fig16Ctx(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, r.Format())
	}
	if *fig17 {
		any = true
		r, err := suite.Fig17Ctx(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, r.Format())
	}
	if *point {
		any = true
		var agg queue.Aggregator
		intervals := *frames
		if zooSpec != "" {
			agg, err = zooAggregator(zooSpec, *frames, *seed)
			if err != nil {
				return err
			}
		} else {
			mux, err := queue.NewMuxFromConfig(queue.MuxConfig{Trace: suite.Trace, N: *nSources, MinLagFrames: 1000, Seed: *seed})
			if err != nil {
				return err
			}
			agg = mux
			intervals = len(suite.Trace.Frames)
			if *slices {
				intervals = len(suite.Trace.Slices)
			}
		}
		opts := queue.Options{}
		if *faults {
			sched, err := queue.GenerateFaults(*faultSeed, intervals, queue.FaultConfig{
				MeanGap:    *faultGap,
				MeanLength: *faultLen,
				OutageProb: *faultOutage,
				MinFactor:  *faultFactor,
			})
			if err != nil {
				return err
			}
			opts.Faults = sched
			outages := 0
			for _, e := range sched.Episodes {
				//vbrlint:ignore floateq Factor 0 is the exact outage sentinel assigned from config literals, never computed
				if e.Factor == 0 {
					outages++
				}
			}
			fmt.Fprintf(stdout, "fault schedule: %d episodes (%d outages), %.2f%% of intervals degraded\n",
				len(sched.Episodes), outages,
				100*float64(sched.DegradedIntervals(intervals))/float64(intervals))
		}
		q := tmax.Seconds() * *capacity / 8
		r, err := agg.AverageLossCtx(ctx, *capacity, q, *slices, opts)
		if err != nil {
			return err
		}
		n := agg.NSources()
		fmt.Fprintf(stdout, "N=%d  C=%.3f Mb/s (%.3f Mb/s per source)  T_max=%v  Q=%.0f bytes\n",
			n, *capacity/1e6, *capacity/float64(n)/1e6, *tmax, q)
		fmt.Fprintf(stdout, "P_l      = %.3g\n", r.Pl)
		fmt.Fprintf(stdout, "P_l-WES  = %.3g\n", r.PlWES)
		fmt.Fprintf(stdout, "max backlog = %.0f bytes\n", r.MaxBacklog)
		if r.CombosUsed < r.CombosTotal {
			fmt.Fprintf(stdout, "note: averaged over %d of %d lag combinations\n", r.CombosUsed, r.CombosTotal)
			for _, cerr := range r.ComboErrors {
				fmt.Fprintf(stderr, "  combo excluded: %v\n", cerr)
			}
		}
	}

	if !any {
		return cli.Usagef("no simulation selected; use -fig14/-fig15/-fig16/-fig17/-point")
	}
	return nil
}

// resolveZooSpec folds the -source/-mix flags into one registry spec:
// -source names a single model replicated -n times, -mix gives the
// population spec verbatim. Empty when neither flag is set.
func resolveZooSpec(src, mix string, n int) (string, error) {
	if src != "" && mix != "" {
		return "", cli.Usagef("-source and -mix are mutually exclusive")
	}
	if src != "" {
		if strings.ContainsAny(src, "+*") {
			return "", cli.Usagef("-source takes a single model (got %q); use -mix for populations", src)
		}
		if n > 1 {
			return fmt.Sprintf("%s*%d", src, n), nil
		}
		return src, nil
	}
	return mix, nil
}

// zooAggregator builds the scenario-zoo multiplexer for a -point run.
// An unknown model name is a usage error (exit 2), matching how bad
// flag combinations are reported.
func zooAggregator(spec string, frames int, seed uint64) (queue.Aggregator, error) {
	specs, err := source.ParseSpec(spec)
	if err != nil {
		if errors.Is(err, errs.ErrUnknownModel) {
			return nil, cli.Usagef("%v", err)
		}
		return nil, err
	}
	srcs, err := source.NewPopulation(specs, seed)
	if err != nil {
		return nil, err
	}
	return queue.NewSourceMuxFromConfig(queue.SourceMuxConfig{Sources: srcs, Frames: frames, Seed: seed})
}

// runFig14 drives the checkpointable Q–C sweep: progress is loaded from
// and flushed to ckptPath around the (possibly interrupted) run. A
// resume refuses a checkpoint written for another trace or granularity.
func runFig14(ctx context.Context, suite *experiments.Suite, ckptPath string, resume bool, stdout, stderr io.Writer) error {
	var progress *checkpoint.SearchState
	var meta map[string]string
	if ckptPath != "" {
		progress = &checkpoint.SearchState{}
		meta = fig14Meta(suite)
		if resume {
			rec, err := checkpoint.LoadSearch(ckptPath)
			if err != nil {
				return fmt.Errorf("loading checkpoint: %w", err)
			}
			if err := rec.CheckMeta(meta); err != nil {
				return fmt.Errorf("resuming from %s: %w", ckptPath, err)
			}
			progress = rec.State
			done := 0
			for _, c := range progress.Curves {
				if c.Done {
					done++
				}
			}
			fmt.Fprintf(stderr, "resuming Fig 14 from %s: %d curves complete, %d in progress\n",
				ckptPath, done, len(progress.Curves)-done)
		}
	}
	r, err := suite.Fig14Ctx(ctx, progress)
	if err != nil {
		if progress != nil && len(progress.Curves) > 0 && errors.Is(err, errs.ErrCancelled) {
			rec := &checkpoint.SearchRecord{Meta: meta, State: progress}
			if serr := checkpoint.SaveSearch(ckptPath, rec); serr != nil {
				return errors.Join(err, fmt.Errorf("saving checkpoint: %w", serr))
			}
			fmt.Fprintf(stderr, "interrupted; Fig 14 progress saved to %s (continue with -resume)\n", ckptPath)
		}
		return err
	}
	if resume && ckptPath != "" {
		if rmErr := os.Remove(ckptPath); rmErr != nil && !errors.Is(rmErr, os.ErrNotExist) {
			fmt.Fprintf(stderr, "warning: could not remove consumed checkpoint %s: %v\n", ckptPath, rmErr)
		}
	}
	fmt.Fprintln(stdout, r.Format())
	return nil
}

// fig14Meta records what a Fig. 14 sweep's curves depend on: the
// trace's length, the granularity, and a SHA-256 of the series the
// sweep simulates — the frame rate and frame sizes, plus the slice
// count and slice sizes at slice granularity. The digest covers every
// way of choosing the trace (-in, -frames, -seed, -backend).
func fig14Meta(s *experiments.Suite) map[string]string {
	tr := s.Trace
	h := sha256.New() // writes to a hash never fail
	binary.Write(h, binary.LittleEndian, tr.FrameRate)
	binary.Write(h, binary.LittleEndian, tr.Frames)
	if s.UseSlices {
		binary.Write(h, binary.LittleEndian, int64(tr.SlicesPerFrame))
		binary.Write(h, binary.LittleEndian, tr.Slices)
	}
	return map[string]string{
		"frames": fmt.Sprint(len(tr.Frames)),
		"slices": fmt.Sprint(s.UseSlices),
		"trace":  hex.EncodeToString(h.Sum(nil)),
	}
}

// loadOrGenerate reads a binary trace when a path is given, otherwise
// regenerates the synthetic movie with the selected Gaussian backend.
func loadOrGenerate(ctx context.Context, path string, frames int, seed uint64, b backend.Backend) (*experiments.Suite, error) {
	if path == "" {
		return experiments.GenerateSuiteBackend(ctx, frames, seed, b)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return experiments.LoadSuite(f)
}
