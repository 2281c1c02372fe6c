// Command vbrexperiments runs the complete reproduction: every table and
// figure of the paper's evaluation, end to end, printing paper-style
// summaries. Its output is the source of EXPERIMENTS.md.
//
//	vbrexperiments                 # quick scale (30,000 frames, seconds)
//	vbrexperiments -scale paper    # full scale (171,000 frames, minutes)
//	vbrexperiments -scale paper -slices  # slice-granularity queueing
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"strings"

	"vbr/internal/cli"
	"vbr/internal/experiments"
	"vbr/internal/obs"
)

func main() {
	os.Exit(cli.Main("vbrexperiments", run))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (retErr error) {
	fs := flag.NewFlagSet("vbrexperiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scaleFlag  = fs.String("scale", "quick", "quick | paper")
		slices     = fs.Bool("slices", false, "queueing simulations at slice granularity")
		extensions = fs.Bool("extensions", true, "also run the future-work extension studies")
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

	var scale experiments.Scale
	switch *scaleFlag {
	case "quick":
		scale = experiments.QuickScale
	case "paper":
		scale = experiments.PaperScale
	default:
		return cli.Usagef("unknown scale %q (want quick or paper)", *scaleFlag)
	}

	//vbrlint:ignore determinism wall-clock is display-only here: elapsed-time banner, never fed into generation
	start := time.Now()
	suite, err := experiments.NewSuite(ctx, scale)
	if err != nil {
		return err
	}
	suite.UseSlices = *slices
	fmt.Fprintf(stdout, "=== VBR video reproduction suite: %s scale, %d frames (generated in %v) ===\n\n",
		*scaleFlag, len(suite.Trace.Frames), time.Since(start).Round(time.Millisecond))

	step := func(name string, fn func() (interface{ Format() string }, error)) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		//vbrlint:ignore determinism wall-clock is display-only here: per-step timing line, never fed into results
		t0 := time.Now()
		endStep := scope.Span("experiments.step." + strings.ReplaceAll(strings.ToLower(name), " ", ""))
		r, err := fn()
		endStep()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintln(stdout, r.Format())
		fmt.Fprintf(stdout, "[%s completed in %v]\n\n", name, time.Since(t0).Round(time.Millisecond))
		return nil
	}
	// summary runs one of the Figure 1–12 analyses and prints the compact
	// one-line digest produced by report.
	summary := func(fn func() error) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return fn()
	}

	if err := step("Table 1", func() (interface{ Format() string }, error) { return suite.Table1() }); err != nil {
		return err
	}
	if err := step("Table 2", func() (interface{ Format() string }, error) { return suite.Table2() }); err != nil {
		return err
	}
	if err := step("Table 3", func() (interface{ Format() string }, error) { return suite.Table3() }); err != nil {
		return err
	}

	// Figures 1–12: print compact summaries.
	if err := summary(func() error {
		r, err := suite.Fig1Ctx(ctx, 2000)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Figure 1: full time series; major peaks at frames %v\n\n", r.PeakFrames)
		return nil
	}); err != nil {
		return err
	}
	if err := summary(func() error {
		r, err := suite.Fig2Ctx(ctx)
		if err != nil {
			return err
		}
		lo, hi := r.Y[0], r.Y[0]
		for _, v := range r.Y {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		fmt.Fprintf(stdout, "Figure 2: %s; swing %.0f..%.0f bytes/frame\n\n", r.Label, lo, hi)
		return nil
	}); err != nil {
		return err
	}
	if err := summary(func() error {
		r, err := suite.Fig3Ctx(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Figure 3: max KS distance of a 2-minute segment from the full marginal: %.3f\n\n", r.MaxKS)
		return nil
	}); err != nil {
		return err
	}
	if err := summary(func() error {
		r, err := suite.Fig4Ctx(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Figure 4: right-tail log-log errors: normal %.2f, lognormal %.2f, gamma %.2f, gamma/pareto %.2f (m_T=%.2f)\n\n",
			r.TailErr["normal"], r.TailErr["lognormal"], r.TailErr["gamma"], r.TailErr["gamma/pareto"], r.ParetoSlope)
		return nil
	}); err != nil {
		return err
	}
	if err := summary(func() error {
		r, err := suite.Fig5Ctx(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Figure 5: left-tail log-log errors: normal %.2f, lognormal %.2f, gamma %.2f, gamma/pareto %.2f\n\n",
			r.TailErr["normal"], r.TailErr["lognormal"], r.TailErr["gamma"], r.TailErr["gamma/pareto"])
		return nil
	}); err != nil {
		return err
	}
	if err := summary(func() error {
		r, err := suite.Fig6Ctx(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Figure 6: Gamma/Pareto density fit, KS distance %.4f\n\n", r.KS)
		return nil
	}); err != nil {
		return err
	}
	if err := summary(func() error {
		r, err := suite.Fig7Ctx(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Figure 7: acf departs from exponential fit at lag %d; acf(500)=%.3f acf(2000)=%.3f\n\n",
			r.DepartLag, r.ACF.Y[500], r.ACF.Y[min(2000, len(r.ACF.Y)-1)])
		return nil
	}); err != nil {
		return err
	}
	if err := summary(func() error {
		r, err := suite.Fig8Ctx(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Figure 8: low-frequency spectrum ~ ω^-α with α=%.3f (H=%.3f)\n\n", r.Alpha, r.H)
		return nil
	}); err != nil {
		return err
	}
	if err := summary(func() error {
		r, err := suite.Fig9Ctx(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Figure 9: iid 95%% CI misses the final mean for %d of %d prefixes; LRD-corrected CI misses %d\n\n",
			r.IIDMisses, len(r.Points)-1, r.LRDMisses)
		return nil
	}); err != nil {
		return err
	}
	if err := summary(func() error {
		r, err := suite.Fig10Ctx(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Figure 10: aggregated CoVs %v — structure retained under aggregation\n\n", fmtFloats(r.CoVs))
		return nil
	}); err != nil {
		return err
	}
	if err := summary(func() error {
		r, err := suite.Fig11Ctx(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Figure 11: variance-time β=%.3f, H=%.3f (paper: 0.78)\n\n", r.Beta, r.H)
		return nil
	}); err != nil {
		return err
	}
	if err := summary(func() error {
		r, err := suite.Fig12Ctx(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "Figure 12: R/S pox H=%.3f (paper: 0.83)\n\n", r.H)
		return nil
	}); err != nil {
		return err
	}

	if err := step("Figure 14", func() (interface{ Format() string }, error) { return suite.Fig14Ctx(ctx, nil) }); err != nil {
		return err
	}
	if err := step("Figure 15", func() (interface{ Format() string }, error) { return suite.Fig15Ctx(ctx) }); err != nil {
		return err
	}
	if err := step("Figure 16", func() (interface{ Format() string }, error) { return suite.Fig16Ctx(ctx) }); err != nil {
		return err
	}
	if err := step("Figure 17", func() (interface{ Format() string }, error) { return suite.Fig17Ctx(ctx) }); err != nil {
		return err
	}

	if *extensions {
		fmt.Fprintln(stdout, "=== extension studies (the paper's stated future work) ===")
		fmt.Fprintln(stdout)
		if err := step("Transport modes", func() (interface{ Format() string }, error) { return suite.ExtTransport(ctx) }); err != nil {
			return err
		}
		if err := step("Bufferless admission", func() (interface{ Format() string }, error) { return suite.ExtAdmissionCtx(ctx) }); err != nil {
			return err
		}
		if err := step("SRD augmentations", func() (interface{ Format() string }, error) { return suite.ExtSRDCtx(ctx) }); err != nil {
			return err
		}
		if err := step("Interframe coding", func() (interface{ Format() string }, error) { return suite.ExtInterframe(ctx) }); err != nil {
			return err
		}
		if err := step("Scene detection", func() (interface{ Format() string }, error) { return suite.ExtScenesCtx(ctx) }); err != nil {
			return err
		}
		if err := step("Server faults", func() (interface{ Format() string }, error) { return suite.ExtFaultsCtx(ctx) }); err != nil {
			return err
		}
		if err := step("Tail fidelity", func() (interface{ Format() string }, error) { return suite.ExtTailFidelityCtx(ctx) }); err != nil {
			return err
		}
		if err := step("Heterogeneous mixes", func() (interface{ Format() string }, error) { return suite.ExtMixCtx(ctx) }); err != nil {
			return err
		}
	}

	fmt.Fprintf(stdout, "=== complete in %v ===\n", time.Since(start).Round(time.Millisecond))
	return nil
}

func fmtFloats(xs []float64) []string {
	out := make([]string, len(xs))
	for i, v := range xs {
		out[i] = fmt.Sprintf("%.3f", v)
	}
	return out
}
