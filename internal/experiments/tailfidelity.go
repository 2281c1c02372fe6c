package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"vbr/internal/backend"
	"vbr/internal/core"
	"vbr/internal/dist"
	"vbr/internal/errs"
)

// This file reproduces the §5.2 discussion of mapping-table tail
// fidelity: "A comparison of the marginal distribution of the
// realizations show that the model does not hold the Pareto tail, but
// that it decays too rapidly for very high values of frame bandwidth ...
// This illustrates an important open problem for LRD processes."
//
// The experiment generates equal-length realizations through
// Gaussian→Gamma/Pareto mapping tables of increasing resolution (with
// the analytic inverse as the reference) and measures how well each
// holds the configured Pareto tail: the fitted tail slope and the
// realized maximum against the distribution's theoretical n-sample
// expectations.

// TailFidelityRow is one table-resolution measurement.
type TailFidelityRow struct {
	TableSize   int // 0 means the analytic inverse (no table)
	FittedSlope float64
	Max         float64
}

// ExtTailFidelityResult carries the sweep plus references.
type ExtTailFidelityResult struct {
	N           int
	Target      float64 // configured m_T
	ExpectedMax float64 // median of the n-sample maximum under F_{Γ/P}
	Rows        []TailFidelityRow
}

// ExtTailFidelityCtx sweeps the mapping-table resolution. Cancellation
// is checked per table resolution and threaded through the model fit
// and each generator run.
func (s *Suite) ExtTailFidelityCtx(ctx context.Context) (*ExtTailFidelityResult, error) {
	model, err := s.Model(ctx)
	if err != nil {
		return nil, err
	}
	gp, err := model.Marginal()
	if err != nil {
		return nil, err
	}
	n := min(len(s.Trace.Frames), 60000)
	res := &ExtTailFidelityResult{
		N:      n,
		Target: model.TailSlope,
		// Median of the maximum of n i.i.d. draws: F⁻¹(0.5^{1/n}).
		ExpectedMax: gp.Quantile(math.Pow(0.5, 1/float64(n))),
	}
	for _, size := range []int{100, 1000, 10000, 100000} {
		if ctx.Err() != nil {
			return nil, errs.Cancelled(ctx)
		}
		opts := core.DefaultGenOptions()
		opts.Backend = backend.DaviesHarte
		opts.Seed = 777
		opts.TableSize = size
		frames, err := model.GenerateCtx(ctx, n, opts)
		if err != nil {
			return nil, err
		}
		row := TailFidelityRow{TableSize: size}
		if a, _, err := dist.FitParetoTail(frames, 0.01); err == nil {
			row.FittedSlope = a
		}
		for _, v := range frames {
			if v > row.Max {
				row.Max = v
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Format renders the sweep.
func (r *ExtTailFidelityResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: §5.2 mapping-table tail fidelity (n=%d, target m_T=%.2f, median n-sample max %.0f)\n",
		r.N, r.Target, r.ExpectedMax)
	fmt.Fprintf(&b, "  %10s  %14s  %14s\n", "table size", "fitted m_T", "realized max")
	for _, row := range r.Rows {
		label := fmt.Sprintf("%d", row.TableSize)
		if row.TableSize == 0 {
			label = "analytic"
		}
		fmt.Fprintf(&b, "  %10s  %14.2f  %14.0f\n", label, row.FittedSlope, row.Max)
	}
	b.WriteString("(the exact-tail fallback beyond the last table node keeps the Pareto\n")
	b.WriteString(" tail at every resolution — the fix §5.2 reaches for by \"perturbing\n")
	b.WriteString(" the parameters of the mapping table\" is built in here)\n")
	return b.String()
}
