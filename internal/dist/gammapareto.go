package dist

import (
	"fmt"
	"math"
	"math/rand/v2"

	"vbr/internal/specfn"
)

// GammaPareto is the paper's hybrid marginal distribution F_{Γ/P} (§4.2):
// a Gamma body with a Pareto right tail attached at the threshold x_th
// where the log-log density slopes of the two families coincide.
//
// On log-log axes the Gamma density has slope d ln f / d ln x =
// (s-1) - λx, while the Pareto density has constant slope -(a+1). Matching
// them gives the unique threshold
//
//	x_th = (s + a) / λ.
//
// The hybrid is defined so that the CDF is continuous and the conditional
// tail beyond x_th is exactly Pareto with index a:
//
//	F(x) = F_Γ(x)                                  for x ≤ x_th,
//	F(x) = 1 - (1 - F_Γ(x_th)) · (x_th / x)^a      for x > x_th.
//
// This reproduces the three-parameter model of the paper (μ_Γ, σ_Γ, m_T):
// μ_Γ and σ_Γ determine the Gamma body by moment matching, and m_T ≡ a is
// the straight-line slope of the empirical CCDF tail in Fig. 4.
type GammaPareto struct {
	Body Gamma   // the Gamma portion (shape s, rate λ)
	Tail float64 // Pareto tail index a (the paper's m_T)

	xth  float64 // threshold where the tail attaches
	pth  float64 // F_Γ(x_th): probability mass of the body
	qth  float64 // 1 - pth: mass carried by the Pareto tail
	mu   float64 // cached mean
	vari float64 // cached variance
}

// GammaParetoParams are the paper's three marginal parameters with
// their names attached: the equivalent Gamma mean and standard
// deviation, and the Pareto tail slope m_T.
type GammaParetoParams struct {
	MuGamma    float64 // μ_Γ: equivalent Gamma-body mean
	SigmaGamma float64 // σ_Γ: equivalent Gamma-body standard deviation
	TailSlope  float64 // m_T: Pareto tail index (log-log CCDF slope)
}

// NewGammaParetoFromParams constructs the hybrid marginal. The tail
// slope must be positive; slopes ≤ 2 yield infinite variance and ≤ 1
// infinite mean, both permitted (and flagged by Mean/Variance
// returning +Inf).
func NewGammaParetoFromParams(p GammaParetoParams) (*GammaPareto, error) {
	body, err := GammaFromMoments(p.MuGamma, p.SigmaGamma)
	if err != nil {
		return nil, err
	}
	if !(p.TailSlope > 0 && p.TailSlope <= math.MaxFloat64) {
		return nil, fmt.Errorf("dist: gamma/pareto tail slope must be finite and > 0, got %v", p.TailSlope)
	}
	d := &GammaPareto{Body: body, Tail: p.TailSlope}
	d.xth = (body.Shape + p.TailSlope) / body.Rate
	d.pth = body.CDF(d.xth)
	d.qth = 1 - d.pth
	d.mu, d.vari = d.moments()
	return d, nil
}

// Threshold returns x_th, the body/tail attachment point.
func (d *GammaPareto) Threshold() float64 { return d.xth }

// TailMass returns 1 - F_Γ(x_th), the fraction of probability carried by
// the Pareto tail (≈3% for the paper's trace).
func (d *GammaPareto) TailMass() float64 { return d.qth }

func (d *GammaPareto) Name() string { return "gamma/pareto" }

func (d *GammaPareto) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x <= d.xth {
		return d.Body.PDF(x)
	}
	// qth · a · x_th^a / x^{a+1}: the renormalized Pareto density.
	return d.qth * d.Tail * math.Pow(d.xth/x, d.Tail) / x
}

func (d *GammaPareto) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x <= d.xth {
		return d.Body.CDF(x)
	}
	return 1 - d.qth*math.Pow(d.xth/x, d.Tail)
}

// CCDF returns 1 - CDF with full tail precision.
func (d *GammaPareto) CCDF(x float64) float64 {
	if x <= 0 {
		return 1
	}
	if x <= d.xth {
		return specfn.GammaQ(d.Body.Shape, d.Body.Rate*x)
	}
	return d.qth * math.Pow(d.xth/x, d.Tail)
}

func (d *GammaPareto) Quantile(p float64) float64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return math.Inf(1)
	case p <= d.pth:
		return d.Body.Quantile(p)
	}
	return d.xth * math.Pow(d.qth/(1-p), 1/d.Tail)
}

func (d *GammaPareto) Mean() float64     { return d.mu }
func (d *GammaPareto) Variance() float64 { return d.vari }

// moments computes the exact mean and variance by splitting at x_th:
// the body contributes partial Gamma moments, the tail contributes
// renormalized Pareto moments (qth·a·x_th/(a-1), qth·a·x_th²/(a-2)).
func (d *GammaPareto) moments() (mean, variance float64) {
	m1 := d.Body.PartialMean(d.xth)
	m2 := d.Body.PartialSecondMoment(d.xth)
	if d.Tail <= 1 {
		return math.Inf(1), math.Inf(1)
	}
	m1 += d.qth * d.Tail * d.xth / (d.Tail - 1)
	if d.Tail <= 2 {
		return m1, math.Inf(1)
	}
	m2 += d.qth * d.Tail * d.xth * d.xth / (d.Tail - 2)
	return m1, m2 - m1*m1
}

func (d *GammaPareto) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	if u <= d.pth {
		// Sample the conditional body by rejection: a plain Gamma draw
		// conditioned on ≤ x_th. Acceptance probability is pth (≈97%),
		// so the expected number of draws is ~1.03.
		for {
			x := d.Body.Sample(rng)
			if x <= d.xth {
				return x
			}
		}
	}
	return d.xth * math.Pow(d.qth/(1-u), 1/d.Tail)
}

// QuantileTable precomputes n equiprobable quantiles, a table indexed by
// probability. The returned table maps p in (0,1) to x by linear
// interpolation between precomputed quantiles, falling back to the exact
// closed-form Pareto quantile beyond the last table point so the heavy
// tail is never clipped. Eq. 13 on a Gaussian series uses NormalTable,
// which needs no Φ per value.
func (d *GammaPareto) QuantileTable(n int) (*QuantileTable, error) {
	if n < 2 {
		return nil, fmt.Errorf("dist: quantile table needs at least 2 points, got %d", n)
	}
	q := make([]float64, n)
	for i := 0; i < n; i++ {
		p := (float64(i) + 0.5) / float64(n)
		q[i] = d.Quantile(p)
	}
	return &QuantileTable{dist: d, q: q}, nil
}

// QuantileTable is a tabulated inverse CDF with exact analytic tails.
type QuantileTable struct {
	dist *GammaPareto
	q    []float64
}

// Len returns the number of table points.
func (t *QuantileTable) Len() int { return len(t.q) }

// Bytes is the resident size of the table points.
func (t *QuantileTable) Bytes() int64 { return 8 * int64(len(t.q)) }

// Value maps a probability p in [0, 1] to a quantile. Interior values
// interpolate linearly between table nodes; both extreme tails (beyond
// the first and last nodes) fall back to the exact quantile function so
// rare events keep the modeled tail shape — the failure mode §5.2 warns
// about when the mapping table clips the Pareto tail.
func (t *QuantileTable) Value(p float64) float64 {
	n := len(t.q)
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return math.Inf(1)
	}
	pos := p*float64(n) - 0.5
	switch {
	case pos <= 0:
		return t.dist.Quantile(p)
	case pos >= float64(n-1):
		return t.dist.Quantile(p)
	}
	i := int(pos)
	frac := pos - float64(i)
	return t.q[i] + frac*(t.q[i+1]-t.q[i])
}

// NormalTable tabulates Eq. 13, the map x ↦ F⁻¹_{Γ/P}(Φ(x)) from a
// standard-normal value to the hybrid marginal, for the fast transform
// of §4.2 (the paper uses a 10,000-point table). Its n nodes are evenly
// spaced in x over [Φ⁻¹(0.5/n), Φ⁻¹(1 − 0.5/n)], the range the n
// equiprobable quantiles of a probability-indexed table span, and hold
// the exact map. Indexed by x rather than by p, a lookup costs one
// multiply and no Φ, and since the map is smooth in x where it is steep
// in p, interpolation errs far less: at the paper's parameters and size
// the largest relative error is about 6e-6, at the Gamma/Pareto
// junction.
func (d *GammaPareto) NormalTable(n int) (*NormalTable, error) {
	if n < 2 {
		return nil, fmt.Errorf("dist: normal table needs at least 2 points, got %d", n)
	}
	lo := specfn.NormCDFInv(0.5 / float64(n))
	step := -2 * lo / float64(n-1)
	y := make([]float64, n)
	for j := range y {
		y[j] = d.Quantile(specfn.NormCDF(lo + float64(j)*step))
	}
	return &NormalTable{dist: d, lo: lo, hi: lo + float64(n-1)*step, scale: 1 / step, y: y}, nil
}

// NormalTable is Eq. 13 tabulated on the standard-normal axis, with the
// exact map beyond its nodes.
type NormalTable struct {
	dist   *GammaPareto
	lo, hi float64   // the first and last nodes
	scale  float64   // nodes per unit of x
	y      []float64 // F⁻¹(Φ(x_j)) at node x_j = lo + j/scale
}

// Len returns the number of table points.
func (t *NormalTable) Len() int { return len(t.y) }

// Bytes is the resident size of the table points.
func (t *NormalTable) Bytes() int64 { return 8 * int64(len(t.y)) }

// Value maps a standard-normal value x to the marginal, F⁻¹(Φ(x)).
// Between the first and last nodes it interpolates linearly; beyond
// them (and for NaN) it evaluates the exact map, so rare events keep the
// modeled tail shape — the failure mode §5.2 warns about when the
// mapping table clips the Pareto tail — and Φ(x) = 0 maps to 0 and
// Φ(x) = 1 to +Inf. Each segment is clamped to its nodes, so Value is
// non-decreasing wherever the exact map is.
func (t *NormalTable) Value(x float64) float64 {
	if !(x >= t.lo && x <= t.hi) {
		return t.exact(x)
	}
	pos := (x - t.lo) * t.scale
	i := min(int(pos), len(t.y)-2)
	y0, y1 := t.y[i], t.y[i+1]
	v := y0 + (pos-float64(i))*(y1-y0)
	if !(v <= y1) {
		v = y1 // rounding past the next node, or 0·Inf in an overflowed tail
	}
	return v
}

// exact is the untabulated map, kept out of line: a standard-normal
// frame falls outside the n nodes with probability 1/n.
func (t *NormalTable) exact(x float64) float64 {
	return t.dist.Quantile(specfn.NormCDF(x))
}
