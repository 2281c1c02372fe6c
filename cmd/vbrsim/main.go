// Command vbrsim runs the trace-driven and model-based queueing
// simulations of §5 of the paper: the Fig. 14 Q–C tradeoff curves, the
// Fig. 15 statistical-multiplexing-gain analysis, the Fig. 16 model
// comparison, the Fig. 17 error-process study, and one-off simulations of
// a single operating point — optionally under a deterministic schedule of
// server faults.
//
// Every study is a pure function of its flags: Ctrl-C ends a run with
// exit 130, and running the same command again prints what an
// uninterrupted run prints. The slowest, the Fig. 14 sweep, takes
// seconds at the paper's 171,000 frames and minutes with -slices.
//
// Examples:
//
//	vbrsim -frames 30000 -fig14
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"vbr/internal/backend"
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
		r, err := suite.Fig14Ctx(ctx, nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, r.Format())
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
