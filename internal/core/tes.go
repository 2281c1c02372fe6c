package core

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"vbr/internal/errs"
)

// This file implements a TES-style (Transform-Expand-Sample) traffic
// generator after Jagerman & Melamed [JAGE92], which §4.2 cites as the
// uniform-marginal sibling of the paper's Eq. 13 transform: "A similar
// technique for distorting the marginals is used where the original
// process is distributed Uniformly rather than Normally."
//
// A TES⁺ background process is a modulo-1 random walk
//
//	U_0 ~ U[0,1),   U_k = ⟨U_{k-1} + V_k⟩,   V_k ~ U[−α/2, α/2),
//
// where ⟨·⟩ is the fractional part. Each U_k is exactly uniform on
// [0, 1) (the modulo-1 walk preserves uniformity), so the composition
// Y_k = F⁻¹_{Γ/P}(U_k) has exactly the hybrid marginal while the
// innovation spread α tunes the autocorrelation: small α gives slowly
// wandering, strongly correlated traffic; α = 1 gives i.i.d. traffic.
//
// TES correlations decay geometrically — it is an SRD model. It is
// included as a third ablation flank for Fig. 16-style comparisons:
// exact marginal, tunable short-range correlation, no long-range
// dependence.

// GenerateTESCtx produces n frames with the model's Gamma/Pareto
// marginal driven by a TES⁺ background process with innovation spread
// alpha in (0, 1]. Smaller alpha means stronger (but always
// short-range) correlation. Cancellation is checked every 4096 points
// of the modulo-1 walk.
func (m Model) GenerateTESCtx(ctx context.Context, n int, alpha float64, opts GenOptions) ([]float64, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("core: length must be ≥ 1, got %d", n)
	}
	if !(alpha > 0 && alpha <= 1) {
		return nil, fmt.Errorf("core: TES spread must be in (0,1], got %v", alpha)
	}
	gp, err := m.Marginal()
	if err != nil {
		return nil, err
	}
	if opts.TableSize < 2 {
		return nil, fmt.Errorf("core: table size must be ≥ 2, got %d", opts.TableSize)
	}
	tab, err := gp.QuantileTable(opts.TableSize)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(opts.Seed, 0x7e5))
	u := rng.Float64()
	out := make([]float64, n)
	for k := range out {
		if k%4096 == 0 && ctx.Err() != nil {
			return nil, errs.Cancelled(ctx)
		}
		out[k] = tab.Value(u)
		u += alpha * (rng.Float64() - 0.5)
		u -= math.Floor(u) // fractional part, handles negatives
	}
	return out, nil
}
