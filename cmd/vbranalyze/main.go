// Command vbranalyze reproduces the statistical analyses of §3 of the
// paper — Tables 2–3 and the data behind Figs. 1–12 — on a VBR trace.
//
// The trace is either read from a file written by vbrtrace (-in) or
// regenerated from the built-in synthetic movie (-frames). Individual
// experiments are selected with flags; -all runs everything.
//
// Examples:
//
//	vbranalyze -in trace.bin -table2 -table3
//	vbranalyze -frames 171000 -all
//	vbranalyze -in trace.bin -fig7 -series
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"vbr/internal/backend"
	"vbr/internal/cli"
	"vbr/internal/experiments"
	"vbr/internal/lrd"
	"vbr/internal/obs"
	"vbr/internal/plot"
	"vbr/internal/scenes"
)

// renderPlot converts experiment series to plot series and prints the
// ASCII chart.
func renderPlot(series []experiments.SeriesResult, opts plot.Options) error {
	ps := make([]plot.Series, len(series))
	for i, s := range series {
		ps[i] = plot.Series{Label: s.Label, X: s.X, Y: s.Y}
	}
	out, err := plot.Render(ps, opts)
	if err != nil {
		return err
	}
	fmt.Println(out)
	return nil
}

func main() {
	os.Exit(cli.Main("vbranalyze", run))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (retErr error) {
	fs := flag.NewFlagSet("vbranalyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in     = fs.String("in", "", "binary trace file (from vbrtrace); empty = regenerate")
		frames = fs.Int("frames", 171000, "frames to generate when -in is empty")
		seed   = fs.Uint64("seed", 1994, "seed for regeneration")
		series = fs.Bool("series", false, "print data series, not just summaries")
		doPlot = fs.Bool("plot", false, "render ASCII plots of the figures")

		all    = fs.Bool("all", false, "run every analysis")
		table1 = fs.Bool("table1", false, "Table 1: generation parameters")
		table2 = fs.Bool("table2", false, "Table 2: trace statistics")
		table3 = fs.Bool("table3", false, "Table 3: Hurst estimates")
		fig1   = fs.Bool("fig1", false, "Fig 1: time series and peaks")
		fig2   = fs.Bool("fig2", false, "Fig 2: low-frequency content")
		fig3   = fs.Bool("fig3", false, "Fig 3: segment histograms")
		fig4   = fs.Bool("fig4", false, "Fig 4: CCDF right tail vs models")
		fig5   = fs.Bool("fig5", false, "Fig 5: CDF left tail vs models")
		fig6   = fs.Bool("fig6", false, "Fig 6: density vs Gamma/Pareto")
		fig7   = fs.Bool("fig7", false, "Fig 7: autocorrelation")
		fig8   = fs.Bool("fig8", false, "Fig 8: periodogram")
		fig9   = fs.Bool("fig9", false, "Fig 9: mean convergence CIs")
		fig10  = fs.Bool("fig10", false, "Fig 10: aggregated self-similarity")
		fig11  = fs.Bool("fig11", false, "Fig 11: variance-time plot")
		fig12  = fs.Bool("fig12", false, "Fig 12: R/S pox diagram")
		scn    = fs.Bool("scenes", false, "scene detection and scene-level model (§4.2 extension)")

		calibrate = fs.Bool("calibrate", false, "run the estimator calibration battery on synthesized known-H fARIMA(0,d,0) noise (ignores -in/-frames)")
		calSeeds  = fs.Int("calibrate-seeds", 32, "calibration: realizations per (H, n) cell")
		calHs     = fs.String("calibrate-hurst", "", "calibration: comma-separated true-H grid (default 0.6,0.7,0.8,0.9)")
		calNs     = fs.String("calibrate-frames", "", "calibration: comma-separated series lengths (default 4096,16384,65536)")
		calJSON   = fs.String("calibrate-json", "", "calibration: also write the JSON artifact to this path")
		calGo     = fs.String("calibrate-go", "", "calibration: also write the generated Go table (internal/lrd/calibration_table.go) to this path")
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

	if *calibrate {
		return runCalibrate(ctx, *seed, *calSeeds, *calHs, *calNs, *calJSON, *calGo)
	}

	suite, err := loadOrGenerate(ctx, *in, *frames, *seed)
	if err != nil {
		return err
	}
	scope.Count("trace.frames", int64(len(suite.Trace.Frames)))

	any := false
	run := func(enabled bool, fn func() error) {
		if err != nil || ctx.Err() != nil {
			return
		}
		if *all || enabled {
			any = true
			scope.Count("analyze.analyses", 1)
			err = fn()
		}
	}

	run(*table1, func() error {
		r, err := suite.Table1()
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
		return nil
	})
	run(*table2, func() error {
		r, err := suite.Table2()
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
		return nil
	})
	run(*table3, func() error {
		r, err := suite.Table3()
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
		if *series {
			// The paper's "plot (not shown here)": Ĥ(m) with 95% CIs
			// against the aggregation level m.
			ladder, err := lrd.WhittleLadder(suite.Trace.Frames, true, 128)
			if err != nil {
				return err
			}
			fmt.Println("Whittle aggregation ladder Ĥ(m) ± 95% CI:")
			for _, p := range ladder {
				fmt.Printf("  m=%6d  H=%.3f ± %.3f\n", p.M, p.H, p.CI95)
			}
			fmt.Println()
		}
		return nil
	})
	run(*fig1, func() error {
		r, err := suite.Fig1Ctx(ctx, 2000)
		if err != nil {
			return err
		}
		fmt.Printf("Figure 1: time series, %d display points; major peaks at frames %v\n",
			len(r.Series.X), r.PeakFrames)
		if *doPlot {
			if err := renderPlot([]experiments.SeriesResult{r.Series}, plot.Options{
				Title: "Fig 1: bytes per frame over the movie", XLabel: "frame", YLabel: "bytes",
			}); err != nil {
				return err
			}
		}
		if *series {
			fmt.Print(experiments.FormatSeries(r.Series, 40))
		}
		return nil
	})
	run(*fig2, func() error {
		r, err := suite.Fig2Ctx(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("Figure 2: %s, %d points\n", r.Label, len(r.X))
		if *doPlot {
			if err := renderPlot([]experiments.SeriesResult{*r}, plot.Options{
				Title: "Fig 2: low-frequency content", XLabel: "frame", YLabel: "bytes",
			}); err != nil {
				return err
			}
		}
		if *series {
			fmt.Print(experiments.FormatSeries(*r, 40))
		}
		return nil
	})
	run(*fig3, func() error {
		r, err := suite.Fig3Ctx(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("Figure 3: five 2-minute segment histograms vs complete trace; max segment KS = %.3f\n", r.MaxKS)
		if *series {
			for _, seg := range r.Segments {
				fmt.Print(experiments.FormatSeries(seg, 15))
			}
			fmt.Print(experiments.FormatSeries(r.Full, 15))
		}
		return nil
	})
	run(*fig4, func() error {
		r, err := suite.Fig4Ctx(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("Figure 4: log-log CCDF right tail; fitted Pareto slope m_T = %.2f\n", r.ParetoSlope)
		fmt.Println("max |log10 model - log10 empirical| over the tail:")
		for _, name := range []string{"normal", "lognormal", "gamma", "gamma/pareto"} {
			fmt.Printf("  %-14s %.3f\n", name, r.TailErr[name])
		}
		if *doPlot {
			all := append([]experiments.SeriesResult{r.Empirical}, r.Models...)
			if err := renderPlot(all, plot.Options{
				Title: "Fig 4: log-log CCDF right tail", XLabel: "bytes/frame", YLabel: "P(X>x)",
				LogX: true, LogY: true,
			}); err != nil {
				return err
			}
		}
		if *series {
			fmt.Print(experiments.FormatSeries(r.Empirical, 25))
		}
		return nil
	})
	run(*fig5, func() error {
		r, err := suite.Fig5Ctx(ctx)
		if err != nil {
			return err
		}
		fmt.Println("Figure 5: log-log CDF left tail; max |log10 model - log10 empirical|:")
		for _, name := range []string{"normal", "lognormal", "gamma", "gamma/pareto"} {
			fmt.Printf("  %-14s %.3f\n", name, r.TailErr[name])
		}
		if *series {
			fmt.Print(experiments.FormatSeries(r.Empirical, 25))
		}
		return nil
	})
	run(*fig6, func() error {
		r, err := suite.Fig6Ctx(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("Figure 6: density vs Gamma/Pareto model; KS distance = %.4f\n", r.KS)
		if *series {
			fmt.Print(experiments.FormatSeries(r.Empirical, 25))
			fmt.Print(experiments.FormatSeries(r.Model, 25))
		}
		return nil
	})
	run(*fig7, func() error {
		r, err := suite.Fig7Ctx(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("Figure 7: autocorrelation to lag %d; departs from exponential fit at lag %d\n",
			len(r.ACF.Y)-1, r.DepartLag)
		if *doPlot {
			if err := renderPlot([]experiments.SeriesResult{r.ACF, r.ExpFit}, plot.Options{
				Title: "Fig 7: autocorrelation", XLabel: "lag", YLabel: "r(n)",
			}); err != nil {
				return err
			}
		}
		if *series {
			fmt.Print(experiments.FormatSeries(r.ACF, 40))
		}
		return nil
	})
	run(*fig8, func() error {
		r, err := suite.Fig8Ctx(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("Figure 8: periodogram; low-frequency power law ω^-α with α = %.3f (H = %.3f)\n",
			r.Alpha, r.H)
		if *doPlot {
			if err := renderPlot([]experiments.SeriesResult{r.Periodogram}, plot.Options{
				Title: "Fig 8: periodogram", XLabel: "frequency (rad)", YLabel: "I(w)",
				LogX: true, LogY: true,
			}); err != nil {
				return err
			}
		}
		if *series {
			fmt.Print(experiments.FormatSeries(r.Periodogram, 40))
		}
		return nil
	})
	run(*fig9, func() error {
		r, err := suite.Fig9Ctx(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("Figure 9: mean estimates on growing prefixes (final mean %.0f)\n", r.FinalMean)
		fmt.Printf("  %10s  %12s  %12s  %12s\n", "n", "mean", "±95% iid", "±95% LRD")
		for _, ci := range r.Points {
			fmt.Printf("  %10d  %12.1f  %12.1f  %12.1f\n", ci.N, ci.Mean, ci.HalfIID, ci.HalfLRD)
		}
		fmt.Printf("prefixes whose iid CI misses the final mean: %d of %d (LRD CI: %d)\n",
			r.IIDMisses, len(r.Points)-1, r.LRDMisses)
		return nil
	})
	run(*fig10, func() error {
		r, err := suite.Fig10Ctx(ctx)
		if err != nil {
			return err
		}
		fmt.Println("Figure 10: aggregated processes retain structure (self-similarity)")
		for i, sr := range r.Aggregated {
			fmt.Printf("  %-10s CoV = %.3f\n", sr.Label, r.CoVs[i])
		}
		return nil
	})
	run(*fig11, func() error {
		r, err := suite.Fig11Ctx(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("Figure 11: variance-time plot; β = %.3f, H = %.3f (paper: 0.78)\n", r.Beta, r.H)
		if *doPlot {
			if err := renderPlot([]experiments.SeriesResult{r.Points}, plot.Options{
				Title: "Fig 11: variance-time plot (log10-log10)", XLabel: "log10 m", YLabel: "log10 var",
			}); err != nil {
				return err
			}
		}
		if *series {
			fmt.Print(experiments.FormatSeries(r.Points, 40))
		}
		return nil
	})
	run(*fig12, func() error {
		r, err := suite.Fig12Ctx(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("Figure 12: R/S pox diagram; H = %.3f (paper: 0.83), %d points\n",
			r.H, len(r.Points.X))
		if *doPlot {
			if err := renderPlot([]experiments.SeriesResult{r.Points}, plot.Options{
				Title: "Fig 12: pox diagram of R/S (log10-log10)", XLabel: "log10 lag", YLabel: "log10 R/S",
			}); err != nil {
				return err
			}
		}
		if *series {
			fmt.Print(experiments.FormatSeries(r.Points, 40))
		}
		return nil
	})

	run(*scn, func() error {
		dcfg := scenes.DefaultConfig()
		detected, err := scenes.Detect(suite.Trace.Frames, dcfg)
		if err != nil {
			return err
		}
		lm, err := scenes.FitLevelModel(detected)
		if err != nil {
			return err
		}
		fmt.Printf("Scene detection (window %d frames, threshold %.1f medians):\n", dcfg.Window, dcfg.Thresh)
		fmt.Printf("  %d scenes; mean duration %.0f frames (%.1f s)\n",
			lm.NumScenes, lm.MeanDuration, lm.MeanDuration/suite.Trace.FrameRate)
		fmt.Printf("  scene level %.0f ± %.0f bytes/frame; within-scene σ %.0f\n",
			lm.LevelMean, lm.LevelStd, lm.WithinStdMean)
		if *series {
			fmt.Printf("  %10s  %10s  %12s  %12s\n", "start", "length", "mean", "std")
			for _, sc := range detected {
				fmt.Printf("  %10d  %10d  %12.0f  %12.0f\n", sc.Start, sc.Length, sc.Mean, sc.Std)
			}
		}
		return nil
	})

	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if !any {
		return cli.Usagef("no analysis selected; use -all or individual flags (see -help)")
	}
	return nil
}

// parseFloatList parses a comma-separated float list ("0.6,0.7").
func parseFloatList(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// parseIntList parses a comma-separated integer list ("4096,16384").
func parseIntList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// runCalibrate runs the estimator calibration battery and writes the
// table, plus the optional JSON artifact and generated Go table used to
// refresh the committed internal/lrd calibration.
func runCalibrate(ctx context.Context, seed uint64, seeds int, hs, ns, jsonPath, goPath string) error {
	cfg := experiments.DefaultCalibrationConfig()
	cfg.BaseSeed = seed
	if seeds > 0 {
		cfg.Seeds = seeds
	}
	hlist, err := parseFloatList(hs)
	if err != nil {
		return cli.Usagef("bad -calibrate-hurst: %v", err)
	}
	if hlist != nil {
		cfg.Hs = hlist
	}
	nlist, err := parseIntList(ns)
	if err != nil {
		return cli.Usagef("bad -calibrate-frames: %v", err)
	}
	if nlist != nil {
		cfg.Ns = nlist
	}
	res, err := experiments.Calibrate(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Println(res.Format())
	for _, out := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{jsonPath, res.WriteJSON},
		{goPath, res.WriteGo},
	} {
		if out.path == "" {
			continue
		}
		f, err := os.Create(out.path)
		if err != nil {
			return err
		}
		if err := out.write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", out.path)
	}
	return nil
}

// loadOrGenerate reads a binary trace when a path is given, otherwise
// regenerates the synthetic movie.
func loadOrGenerate(ctx context.Context, path string, frames int, seed uint64) (*experiments.Suite, error) {
	if path == "" {
		return experiments.GenerateSuiteBackend(ctx, frames, seed, backend.DaviesHarte)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return experiments.LoadSuite(f)
}
