package fgn

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"vbr/internal/errs"
)

// neumaier accumulates a sum with Neumaier's compensation, so an
// oracle sum of thousands of terms carries rounding error near one ulp
// of the result rather than of the largest partial sum.
type neumaier struct{ sum, c float64 }

func (n *neumaier) add(x float64) {
	t := n.sum + x
	if math.Abs(n.sum) >= math.Abs(x) {
		n.c += (n.sum - t) + x
	} else {
		n.c += (x - t) + n.sum
	}
	n.sum = t
}

func (n *neumaier) value() float64 { return n.sum + n.c }

// trig returns cos(2πr/m) and sin(2πr/m) for r < m, built so that
// cos is even and sin odd in r exactly, as they are in exact
// arithmetic; math.Sin of a rounded argument would not be.
func trig(m int) (cs, sn []float64) {
	cs, sn = make([]float64, m), make([]float64, m)
	for r := 0; r <= m/2; r++ {
		sn[r], cs[r] = math.Sincos(2 * math.Pi * float64(r) / float64(m))
		if r > 0 {
			cs[m-r], sn[m-r] = cs[r], -sn[r]
		}
	}
	return cs, sn
}

// pairCov is the covariance a pair draw implies at lag j, per half,
// and the Re×Im cross-covariance: scale·Σ_k a_k²·cos(2πjk/m) and
// scale·Σ_k a_k²·sin(2πjk/m) over the m amplitudes.
func pairCov(amp, cs, sn []float64, scale float64, j int) (cov, cross float64) {
	var c, x neumaier
	for k, a := range amp {
		r := j * k % len(amp)
		c.add(a * a * cs[r])
		x.add(a * a * sn[r])
	}
	return scale * c.value(), scale * x.value()
}

// TestDaviesHartePairOracle: the pair draw's amplitudes imply exactly
// the fGn autocovariance in each half, Σ_k a_k²·cos(2πjk/2S) = ρ_j for
// every lag j ≤ S, and no Re×Im cross-covariance. The O(S²) check at
// the streams' 8,192-point chunks is left to the full run: -short is
// the race-detector tier, where it takes tens of seconds and races
// nothing.
func TestDaviesHartePairOracle(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		h float64
		s int
	}{{0.6, 1024}, {0.8, 8192}, {0.9, 1024}, {0.8, 2}} {
		if testing.Short() && c.s > 1024 {
			continue
		}
		eig, err := DaviesHarteEigenCtx(ctx, c.s, c.h)
		if err != nil {
			t.Fatal(err)
		}
		amp := eig.Pair().amp
		if len(amp) != 2*c.s {
			t.Fatalf("H=%v S=%d: %d amplitudes, want %d", c.h, c.s, len(amp), 2*c.s)
		}
		rho, err := FGNACF(c.h, c.s)
		if err != nil {
			t.Fatal(err)
		}
		cs, sn := trig(2 * c.s)
		for j := 0; j <= c.s; j++ {
			cov, cross := pairCov(amp, cs, sn, 1, j)
			if d := math.Abs(cov - rho[j]); d > 1e-12 {
				t.Fatalf("H=%v S=%d lag %d: pair covariance %v, fGn %v (|Δ| = %.3g)", c.h, c.s, j, cov, rho[j], d)
			}
			if math.Abs(cross) > 1e-15 {
				t.Fatalf("H=%v S=%d lag %d: Re×Im cross-covariance %.3g", c.h, c.s, j, cross)
			}
		}
	}
}

// TestPaxsonPairOracle: the pair draw's amplitudes imply exactly the
// covariance of the single Hermitian draw, (1/m²)·Σ_k a_k²·cos(2πjk/m)
// = (1/m²)·(2·Σ_{0<i<m/2} p_i·cos(2πij/m) + p_{m/2}·cos(πj)), and no
// Re×Im cross-covariance. As above, -short skips the 8,192-point case.
func TestPaxsonPairOracle(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		h float64
		m int
	}{{0.6, 1024}, {0.8, 8192}, {0.9, 1024}, {0.8, 2}} {
		if testing.Short() && c.m > 1024 {
			continue
		}
		spec, err := PaxsonSpectrumCtx(ctx, c.m, c.h)
		if err != nil {
			t.Fatal(err)
		}
		amp, p := spec.Pair().amp, spec.Power()
		if len(amp) != c.m || amp[0] != 0 {
			t.Fatalf("H=%v m=%d: %d amplitudes with a_0 = %v, want %d with a_0 = 0", c.h, c.m, len(amp), amp[0], c.m)
		}
		cs, sn := trig(c.m)
		scale := 1 / float64(c.m) / float64(c.m)
		half := c.m / 2
		for j := 0; j < c.m; j++ {
			cov, cross := pairCov(amp, cs, sn, scale, j)
			var sum neumaier
			for i := 1; i < half; i++ {
				sum.add(2 * p[i-1] * cs[j*i%c.m])
			}
			sum.add(p[half-1] * cs[j*half%c.m])
			single := scale * sum.value()
			if d := math.Abs(cov - single); d > 1e-12 {
				t.Fatalf("H=%v m=%d lag %d: pair covariance %v, single draw %v (|Δ| = %.3g)", c.h, c.m, j, cov, single, d)
			}
			if math.Abs(cross) > 1e-15 {
				t.Fatalf("H=%v m=%d lag %d: Re×Im cross-covariance %.3g", c.h, c.m, j, cross)
			}
		}
	}
}

// pairMoments is the Monte Carlo summary of repeated pair draws: the
// mean and standard error, across independent series, of each
// statistic.
type pairMoments struct {
	mean, se [4]float64 // variance, lag 1, lag 10, Re·Im at lag 0
}

// samplePairs draws pairs from pr, each from its own PCG stream, and
// summarizes the first n points of each half: the lag-0, lag-1 and
// lag-10 products of every half, and the lag-0 Re·Im product of every
// pair.
func samplePairs(t *testing.T, pr Pair, n, pairs int) pairMoments {
	t.Helper()
	ctx := context.Background()
	work := make([]complex128, pr.Len())
	halves := make([][]float64, 3)
	var cross []float64
	re, im := make([]float64, n), make([]float64, n)
	lagMean := func(x []float64, lag int) float64 {
		var s float64
		for i := lag; i < len(x); i++ {
			s += x[i] * x[i-lag]
		}
		return s / float64(len(x)-lag)
	}
	for p := 0; p < pairs; p++ {
		if err := pr.DrawCtx(ctx, work, rand.New(rand.NewPCG(2026, uint64(p)))); err != nil {
			t.Fatal(err)
		}
		var c float64
		for i := range re {
			re[i], im[i] = real(work[i]), imag(work[i])
			c += re[i] * im[i]
		}
		cross = append(cross, c/float64(n))
		for _, x := range [][]float64{re, im} {
			for s, lag := range []int{0, 1, 10} {
				halves[s] = append(halves[s], lagMean(x, lag))
			}
		}
	}
	var m pairMoments
	for s, xs := range append(halves, cross) {
		var sum, ss float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(len(xs))
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		m.mean[s] = mean
		m.se[s] = math.Sqrt(ss / float64(len(xs)-1) / float64(len(xs)))
	}
	return m
}

// TestPairMonteCarlo: over 200 pairs at the streams' default synthesis
// length, each half's variance, lag-1 and lag-10 autocovariance, and
// the Re/Im correlation, sit within five standard errors of the
// engine's exact values: fGn's for Davies–Harte, the single draw's for
// Paxson, and zero correlation for both.
func TestPairMonteCarlo(t *testing.T) {
	ctx := context.Background()
	const s, h, pairs = 8192, 0.8, 200
	eig, err := DaviesHarteEigenCtx(ctx, s, h)
	if err != nil {
		t.Fatal(err)
	}
	rho, err := FGNACF(h, 10)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := PaxsonSpectrumCtx(ctx, s, h)
	if err != nil {
		t.Fatal(err)
	}
	cs, sn := trig(s)
	pxCov := func(j int) float64 {
		c, _ := pairCov(spec.Pair().amp, cs, sn, 1/float64(s)/float64(s), j)
		return c
	}
	names := [4]string{"variance", "lag 1", "lag 10", "Re/Im correlation"}
	for _, c := range []struct {
		name  string
		pair  Pair
		exact [4]float64
	}{
		{"davies-harte", eig.Pair(), [4]float64{rho[0], rho[1], rho[10], 0}},
		{"paxson", spec.Pair(), [4]float64{pxCov(0), pxCov(1), pxCov(10), 0}},
	} {
		m := samplePairs(t, c.pair, s, pairs)
		for i := range names {
			t.Logf("%s %s: %.4f ± %.4f (exact %.4f)", c.name, names[i], m.mean[i], m.se[i], c.exact[i])
			if d := math.Abs(m.mean[i] - c.exact[i]); d > 5*m.se[i] {
				t.Errorf("%s %s: %.4f, exact %.4f, |Δ| = %.4f > 5 SE = %.4f", c.name, names[i], m.mean[i], c.exact[i], d, 5*m.se[i])
			}
		}
	}
}

// TestPairDrawErrors: a pair draw refuses a missing source and a
// wrong-sized buffer, and a cancelled context before drawing.
func TestPairDrawErrors(t *testing.T) {
	ctx := context.Background()
	eig, err := DaviesHarteEigenCtx(ctx, 64, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	pr := eig.Pair()
	rng := rand.New(rand.NewPCG(1, 2))
	if err := pr.DrawCtx(ctx, make([]complex128, pr.Len()), nil); err == nil {
		t.Error("nil source accepted")
	}
	if err := pr.DrawCtx(ctx, make([]complex128, 64), rng); err == nil {
		t.Error("64-entry buffer accepted for a 128-entry pair")
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := pr.DrawCtx(cctx, make([]complex128, pr.Len()), rng); !errors.Is(err, errs.ErrCancelled) {
		t.Errorf("cancelled draw: %v, want errs.ErrCancelled", err)
	}
	one, err := PaxsonSpectrumCtx(ctx, 1, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]complex128, one.Pair().Len())
	if err := one.Pair().DrawCtx(ctx, w, rng); err != nil || len(w) != 1 {
		t.Fatalf("1-point pair: %v with %d entries", err, len(w))
	}
}

// TestPairBuiltOnlyAtStreamLengths: the chunk engines build their pair
// draw only at the power-of-two lengths streams draw at, so a
// batch-length entry is charged for its vector and plan alone; at
// 171,000 points that leaves out 2,736,000 B of Davies–Harte and
// 1,368,000 B of Paxson amplitudes. Off those lengths the zero Pair
// refuses to draw. -short skips the 171,000-point case, whose
// Davies–Harte plan alone takes about 45 MB.
func TestPairBuiltOnlyAtStreamLengths(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(1, 2))
	for _, c := range []struct {
		n      int
		dh, px int64
		pair   bool
	}{
		{8192, 524_272, 229_360, true},
		{1000, 203_696, 97_968, false},
		{171_000, 47_328_816, 22_982_448, false},
	} {
		if testing.Short() && c.n > 8192 {
			continue
		}
		eig, err := DaviesHarteEigenCtx(ctx, c.n, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := PaxsonSpectrumCtx(ctx, c.n, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		if eig.Bytes() != c.dh || spec.Bytes() != c.px {
			t.Errorf("n=%d: entries of %d B (Davies–Harte) and %d B (Paxson), want %d and %d", c.n, eig.Bytes(), spec.Bytes(), c.dh, c.px)
		}
		for _, p := range []Pair{eig.Pair(), spec.Pair()} {
			if (p.Len() > 0) != c.pair {
				t.Errorf("n=%d: pair of %d entries, want one built: %v", c.n, p.Len(), c.pair)
			}
			if !c.pair {
				if err := p.DrawCtx(ctx, make([]complex128, p.Len()), rng); err == nil {
					t.Errorf("n=%d: the zero pair drew", c.n)
				}
			}
		}
	}
}
