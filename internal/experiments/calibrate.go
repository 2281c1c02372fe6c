package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"

	"vbr/internal/core"
	"vbr/internal/fgn"
	"vbr/internal/lrd"
	"vbr/internal/obs"
	"vbr/internal/runner"
)

// This file implements the estimator calibration battery: synthesize
// the model's Gaussian process, fARIMA(0, d, 0), with *known* Hurst
// parameter at several lengths, run every primary Ĥ estimator on each seeded
// realization, and reduce the results to a bias/variance table. The
// committed form of that table (internal/lrd/calibration_table.go,
// regenerated by `make calibrate`) is what lets lrd.EstimateAll and the
// streaming monitor attach bias-corrected error bars to every Ĥ they
// report, turning cross-estimator agreement checks and drift alarms
// into statistical tests instead of magic-constant comparisons. The
// bars are applied to model output and traces, so the battery draws
// the process every engine draws.

// CalibrationConfig parameterizes a battery run.
type CalibrationConfig struct {
	// Hs are the true Hurst parameters to synthesize.
	Hs []float64 `json:"hs"`
	// Ns are the series lengths to characterize.
	Ns []int `json:"ns"`
	// Seeds is the number of independent realizations per (H, n) cell.
	Seeds int `json:"seeds"`
	// BaseSeed derives every realization's seed via core.BatchSeed, so
	// any single cell can be reproduced without rerunning the battery.
	BaseSeed uint64 `json:"base_seed"`
	// Workers bounds the parallel fan-out (0 = GOMAXPROCS).
	Workers int `json:"-"`
}

// DefaultCalibrationConfig is the committed battery configuration: the
// grid demanded by the fidelity gates (H spanning the paper's VBR range,
// lengths from short probe windows to the §2 trace scale) at 32 seeds.
func DefaultCalibrationConfig() CalibrationConfig {
	return CalibrationConfig{
		Hs:       []float64{0.6, 0.7, 0.8, 0.9},
		Ns:       []int{4096, 16384, 65536},
		Seeds:    32,
		BaseSeed: 1994,
	}
}

// Validate checks the battery grid.
//
//vbrlint:ignore ctxcheck loops are bounded by the config grid size
func (c CalibrationConfig) Validate() error {
	if len(c.Hs) == 0 || len(c.Ns) == 0 {
		return fmt.Errorf("experiments: calibration needs ≥ 1 Hurst value and length")
	}
	for _, h := range c.Hs {
		if !(h > 0 && h < 1) {
			return fmt.Errorf("experiments: calibration H must be in (0,1), got %v", h)
		}
	}
	for _, n := range c.Ns {
		if n < 512 {
			return fmt.Errorf("experiments: calibration lengths must be ≥ 512, got %d", n)
		}
	}
	if c.Seeds < 2 {
		return fmt.Errorf("experiments: calibration needs ≥ 2 seeds for a sample variance, got %d", c.Seeds)
	}
	return nil
}

// CalibrationResult is the battery output: one cell per
// (estimator, H, n), in estimator-major order.
type CalibrationResult struct {
	Config CalibrationConfig     `json:"config"`
	Cells  []lrd.CalibrationCell `json:"cells"`
}

// Calibrate runs the battery: for every (H, n) grid point it
// synthesizes cfg.Seeds independent fARIMA(0, d, 0) realizations
// (Davies–Harte, exact in distribution, O(n log n)) and runs the five primary
// estimators under their canonical settings on each. Realizations fan
// out across workers; the reduction is deterministic in item order, so
// equal configs yield bitwise-equal tables regardless of parallelism.
func Calibrate(ctx context.Context, cfg CalibrationConfig) (*CalibrationResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	defer span(ctx, "calibrate")()
	scope := obs.From(ctx)

	type cellKey struct {
		hi, ni int
	}
	type jobOut [5]float64 // Ĥ per estimator, lrd.EstimatorNames order

	jobs := make([]cellKey, 0, len(cfg.Hs)*len(cfg.Ns))
	for hi := range cfg.Hs {
		for ni := range cfg.Ns {
			jobs = append(jobs, cellKey{hi, ni})
		}
	}

	// One runner item per realization: cell-major, seed-minor, so item
	// index i maps to (cell i/Seeds, seed i%Seeds) and the per-item seed
	// is core.BatchSeed(BaseSeed, i) — reproducible in isolation.
	total := len(jobs) * cfg.Seeds
	results := runner.Run(ctx, total, runner.Options{
		Workers: cfg.Workers,
		Label: func(i int) string {
			k := jobs[i/cfg.Seeds]
			return fmt.Sprintf("H=%g n=%d seed#%d", cfg.Hs[k.hi], cfg.Ns[k.ni], i%cfg.Seeds)
		},
	}, func(ctx context.Context, i int) (jobOut, error) {
		var out jobOut
		k := jobs[i/cfg.Seeds]
		h, n := cfg.Hs[k.hi], cfg.Ns[k.ni]
		rng := rand.New(rand.NewPCG(core.BatchSeed(cfg.BaseSeed, i), 0x11a5a))
		xs, err := fgn.DaviesHarteCtx(ctx, n, h, rng)
		if err != nil {
			return out, fmt.Errorf("synthesize fARIMA: %w", err)
		}
		for ei, name := range lrd.EstimatorNames {
			est, err := lrd.EstimateBy(name, xs)
			if err != nil {
				return out, fmt.Errorf("estimator %s: %w", name, err)
			}
			out[ei] = est
		}
		obs.From(ctx).Count("calibrate.realizations", 1)
		return out, nil
	})
	for _, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("experiments: calibration %s: %w", r.Label, r.Err)
		}
	}

	// Reduce to mean bias and sample standard deviation per cell, in
	// deterministic estimator-major order.
	out := &CalibrationResult{Config: cfg}
	for ei, name := range lrd.EstimatorNames {
		for ji, k := range jobs {
			var sum float64
			for s := 0; s < cfg.Seeds; s++ {
				sum += results[ji*cfg.Seeds+s].Value[ei]
			}
			mean := sum / float64(cfg.Seeds)
			var ss float64
			for s := 0; s < cfg.Seeds; s++ {
				d := results[ji*cfg.Seeds+s].Value[ei] - mean
				ss += d * d
			}
			out.Cells = append(out.Cells, lrd.CalibrationCell{
				Estimator: name,
				H:         cfg.Hs[k.hi],
				N:         cfg.Ns[k.ni],
				Bias:      mean - cfg.Hs[k.hi],
				Std:       math.Sqrt(ss / float64(cfg.Seeds-1)),
				Seeds:     cfg.Seeds,
			})
		}
	}
	scope.Count("calibrate.cells", int64(len(out.Cells)))
	return out, nil
}

// Format renders the battery as a text table grouped by estimator.
func (r *CalibrationResult) Format() string {
	rows := make([][]string, 0, len(r.Cells))
	for _, c := range r.Cells {
		rows = append(rows, []string{
			c.Estimator,
			fmt.Sprintf("%.2f", c.H),
			strconv.Itoa(c.N),
			fmt.Sprintf("%+.4f", c.Bias),
			fmt.Sprintf("%.4f", c.Std),
			strconv.Itoa(c.Seeds),
		})
	}
	return table(fmt.Sprintf("Estimator calibration battery (%d seeds per cell)", r.Config.Seeds),
		[]string{"estimator", "H", "n", "bias", "std", "seeds"}, rows)
}

// WriteJSON writes the battery result as an indented JSON artifact.
func (r *CalibrationResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// gofloat renders v as a Go literal that round-trips to the same
// float64 bits.
func gofloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteGo writes the battery as the generated source of
// internal/lrd/calibration_table.go: the committed, compiled-in form of
// the table that DefaultCalibration serves.
//
//vbrlint:ignore ctxcheck loop is bounded by the cell count of the battery grid
func (r *CalibrationResult) WriteGo(w io.Writer) error {
	var b strings.Builder
	b.WriteString("// Code generated by \"vbranalyze -calibrate\"; DO NOT EDIT.\n")
	b.WriteString("//\n")
	fmt.Fprintf(&b, "// Battery: H ∈ %v, n ∈ %v, %d seeds per cell, base seed %d.\n",
		r.Config.Hs, r.Config.Ns, r.Config.Seeds, r.Config.BaseSeed)
	b.WriteString("\npackage lrd\n\n")
	b.WriteString("// builtinCalibrationCells is the committed output of the calibration\n")
	b.WriteString("// battery. Regenerate with `make calibrate`.\n")
	b.WriteString("var builtinCalibrationCells = []CalibrationCell{\n")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "\t{Estimator: %q, H: %s, N: %d, Bias: %s, Std: %s, Seeds: %d},\n",
			c.Estimator, gofloat(c.H), c.N, gofloat(c.Bias), gofloat(c.Std), c.Seeds)
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
