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

// farimaDensity is the spectral density of unit-variance
// fARIMA(0, d, 0) noise with d = h − 1/2 at frequency λ ∈ (0, π], up to
// the constant the samplers normalize away: |2·sin(λ/2)|^(−2d).
func farimaDensity(lambda, h float64) float64 {
	return math.Pow(math.Abs(2*math.Sin(lambda/2)), 1-2*h)
}

// TestDaviesHartePairOracle: the pair draw's amplitudes imply exactly
// the fARIMA(0, d, 0) autocorrelation (FarimaACF) in each half,
// Σ_k a_k²·cos(2πjk/M) = ρ_j for every lag j ≤ M/2 (every lag a draw
// of n ≤ M/2 points uses), and no Re×Im cross-covariance, at
// power-of-two lengths and at lengths padded to one (n = 1, 3, 1,000,
// 5,120). The O(M²) checks at M ≥ 16,384 are
// left to the full run: -short is the race-detector tier, where they
// take tens of seconds and race nothing.
func TestDaviesHartePairOracle(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		h float64
		n int
	}{{0.6, 1024}, {0.8, 8192}, {0.9, 1024}, {0.8, 2}, {0.7, 1}, {0.8, 3}, {0.6, 1000}, {0.9, 5120}} {
		if testing.Short() && c.n > 1024 {
			continue
		}
		eig, err := DaviesHarteEigenCtx(ctx, c.n, c.h)
		if err != nil {
			t.Fatal(err)
		}
		m := 2 * padLen(c.n)
		if eig.Len() != m || eig.n != m/2 {
			t.Fatalf("H=%v n=%d: %d amplitudes for %d points, want %d for %d", c.h, c.n, eig.Len(), eig.n, m, m/2)
		}
		rho, err := FarimaACF(c.h, m/2)
		if err != nil {
			t.Fatal(err)
		}
		cs, sn := trig(m)
		for j := 0; j <= m/2; j++ {
			cov, cross := pairCov(eig.amp, cs, sn, 1, j)
			if d := math.Abs(cov - rho[j]); d > 1e-12 {
				t.Fatalf("H=%v n=%d lag %d: pair covariance %v, fARIMA %v (|Δ| = %.3g)", c.h, c.n, j, cov, rho[j], d)
			}
			if math.Abs(cross) > 1e-15 {
				t.Fatalf("H=%v n=%d lag %d: Re×Im cross-covariance %.3g", c.h, c.n, j, cross)
			}
		}
	}
}

// TestPaxsonPairOracle: the pair draw's amplitudes are Paxson's sampled
// spectrum, normalized to unit variance: at every lag j < M,
// (1/M²)·Σ_k a_k²·cos(2πjk/M) equals (2·Σ_{0<i<M/2} p_i·cos(2πij/M) +
// p_{M/2}·cos(πj)) / (2·Σ_{0<i<M/2} p_i + p_{M/2}), with p_i the
// fARIMA(0, d, 0) spectral density at 2πi/M (farimaDensity), which is
// 1 at lag 0; and there is no Re×Im cross-covariance. The lengths are
// the Davies–Harte oracle's, and as there -short skips M ≥ 8,192.
func TestPaxsonPairOracle(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		h float64
		n int
	}{{0.6, 1024}, {0.8, 8192}, {0.9, 1024}, {0.8, 2}, {0.7, 1}, {0.8, 3}, {0.6, 1000}, {0.9, 5120}} {
		if testing.Short() && c.n > 1024 {
			continue
		}
		spec, err := PaxsonSpectrumCtx(ctx, c.n, c.h)
		if err != nil {
			t.Fatal(err)
		}
		m := max(2, padLen(c.n))
		amp := spec.amp
		if len(amp) != m || spec.n != m || amp[0] != 0 {
			t.Fatalf("H=%v n=%d: %d amplitudes for %d points with a_0 = %v, want %d for %d with a_0 = 0",
				c.h, c.n, len(amp), spec.n, amp[0], m, m)
		}
		half := m / 2
		p := make([]float64, half+1)
		for i := 1; i <= half; i++ {
			p[i] = farimaDensity(2*math.Pi*float64(i)/float64(m), c.h)
		}
		cs, sn := trig(m)
		// sampled is the sampled spectrum's covariance at lag j before
		// normalization; sampled(0) normalizes it.
		sampled := func(j int) float64 {
			var sum neumaier
			for i := 1; i < half; i++ {
				sum.add(2 * p[i] * cs[j*i%m])
			}
			sum.add(p[half] * cs[j*half%m])
			return sum.value()
		}
		total := sampled(0)
		for j := 0; j < m; j++ {
			cov, cross := pairCov(amp, cs, sn, 1/float64(m)/float64(m), j)
			want := sampled(j) / total
			if d := math.Abs(cov - want); d > 1e-12 {
				t.Fatalf("H=%v n=%d lag %d: pair covariance %v, sampled spectrum %v (|Δ| = %.3g)", c.h, c.n, j, cov, want, d)
			}
			if math.Abs(cross) > 1e-15 {
				t.Fatalf("H=%v n=%d lag %d: Re×Im cross-covariance %.3g", c.h, c.n, j, cross)
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
// engine's exact values: FarimaACF for Davies–Harte, the single draw's
// for Paxson, and zero correlation for both.
func TestPairMonteCarlo(t *testing.T) {
	ctx := context.Background()
	const s, h, pairs = 8192, 0.8, 200
	eig, err := DaviesHarteEigenCtx(ctx, s, h)
	if err != nil {
		t.Fatal(err)
	}
	rho, err := FarimaACF(h, 10)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := PaxsonSpectrumCtx(ctx, s, h)
	if err != nil {
		t.Fatal(err)
	}
	cs, sn := trig(s)
	pxCov := func(j int) float64 {
		c, _ := pairCov(spec.amp, cs, sn, 1/float64(s)/float64(s), j)
		return c
	}
	names := [4]string{"variance", "lag 1", "lag 10", "Re/Im correlation"}
	for _, c := range []struct {
		name  string
		pair  Pair
		exact [4]float64
	}{
		{"davies-harte", *eig, [4]float64{rho[0], rho[1], rho[10], 0}},
		{"paxson", *spec, [4]float64{pxCov(0), pxCov(1), pxCov(10), 0}},
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

// TestPairDrawErrors: a pair draw refuses a missing source, a
// wrong-sized buffer, the zero Pair (no engine built it) and a
// cancelled context before drawing. A 1-point engine draws through a
// 2-point transform like any other length.
func TestPairDrawErrors(t *testing.T) {
	ctx := context.Background()
	eig, err := DaviesHarteEigenCtx(ctx, 64, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	pr := *eig
	rng := rand.New(rand.NewPCG(1, 2))
	if err := pr.DrawCtx(ctx, make([]complex128, pr.Len()), nil); err == nil {
		t.Error("nil source accepted")
	}
	if err := pr.DrawCtx(ctx, make([]complex128, 64), rng); err == nil {
		t.Error("64-entry buffer accepted for a 128-entry pair")
	}
	if err := (Pair{}).DrawCtx(ctx, nil, rng); err == nil {
		t.Error("the zero pair drew")
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := pr.DrawCtx(cctx, make([]complex128, pr.Len()), rng); !errors.Is(err, errs.ErrCancelled) {
		t.Errorf("cancelled draw: %v, want errs.ErrCancelled", err)
	}
	for _, build := range []func(context.Context, int, float64) (*Pair, error){DaviesHarteEigenCtx, PaxsonSpectrumCtx} {
		one, err := build(ctx, 1, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		w := make([]complex128, one.Len())
		if err := one.DrawCtx(ctx, w, rng); err != nil || len(w) != 2 {
			t.Fatalf("1-point pair: %v with %d entries, want 2", err, len(w))
		}
	}
}

// TestPairBytes pins the resident size of an engine setup: the
// amplitudes and the radix-2 plan of its power-of-two transform, 2M
// points for Davies–Harte and M for Paxson, M = padLen(n). At 171,000
// points that is 12,582,896 B and 6,291,440 B; the Bluestein plans of
// the exact-length transforms took 47,328,816 B and 22,982,448 B.
func TestPairBytes(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		n      int
		dh, px int64
	}{
		{1000, 49_136, 24_560},
		{8192, 393_200, 196_592},
		{171_000, 12_582_896, 6_291_440},
	} {
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
	}
}
