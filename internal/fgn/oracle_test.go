package fgn

import (
	"math"
	"math/rand/v2"
)

// levinsonHosking is the tolerance oracle for the closed-form generator:
// Eqs. 7–12 transcribed as a plain scalar O(n²) Levinson–Durbin
// recursion over the fARIMA autocorrelation, drawing X_0 and then one
// innovation per point from rng in the generator's order.
func levinsonHosking(n int, h float64, rng *rand.Rand) []float64 {
	rho, err := FarimaACF(h, n)
	if err != nil {
		panic(err)
	}
	x := make([]float64, n)
	phi := make([]float64, n)
	prev := make([]float64, n)
	x[0] = rng.NormFloat64()
	nPrev, dPrev, v := 0.0, 1.0, 1.0
	for k := 1; k < n; k++ {
		nk := rho[k]
		for j := 1; j < k; j++ {
			nk -= phi[j] * rho[k-j]
		}
		dk := dPrev - nPrev*nPrev/dPrev
		phikk := nk / dk
		copy(prev, phi[:k])
		for j := 1; j < k; j++ {
			phi[j] = prev[j] - phikk*prev[k-j]
		}
		phi[k] = phikk
		v *= 1 - phikk*phikk
		var m float64
		for j := 1; j <= k; j++ {
			m += phi[j] * x[k-j]
		}
		x[k] = m + math.Sqrt(v)*rng.NormFloat64()
		nPrev, dPrev = nk, dk
	}
	return x
}

// fnvHash folds a float64 series into an FNV-1a hash over the
// little-endian bit patterns of each value, so a single-bit divergence
// anywhere in the series changes the digest.
func fnvHash(xs []float64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, v := range xs {
		b := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (b >> s) & 0xff
			h *= prime
		}
	}
	return h
}
