package fft

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"sync"
	"testing"
	"testing/quick"
)

// transform, radix2 and bluestein are the unplanned FFT the package ran
// before Plan existed, kept verbatim as the bitwise oracle: every
// planned transform must reproduce their output bit for bit, which is
// what keeps the seeded goldens of the generators above stable.
func transform(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	if n&(n-1) == 0 {
		radix2(x, inverse)
	} else {
		bluestein(x, inverse)
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range x {
			x[i] *= inv
		}
	}
}

func radix2(x []complex128, inverse bool) {
	n := len(x)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for length := 2; length <= n; length <<= 1 {
		ang := sign * 2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for start := 0; start < n; start += length {
			w := complex(1, 0)
			half := length >> 1
			for k := 0; k < half; k++ {
				u := x[start+k]
				v := x[start+k+half] * w
				x[start+k] = u + v
				x[start+k+half] = u - v
				w *= wl
			}
		}
	}
}

func bluestein(x []complex128, inverse bool) {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	w := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := int64(k) * int64(k) % int64(2*n)
		w[k] = cmplx.Exp(complex(0, sign*math.Pi*float64(kk)/float64(n)))
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * w[k]
		b[k] = cmplx.Conj(w[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(w[k])
	}
	radix2(a, false)
	radix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	radix2(a, true)
	invm := complex(1/float64(m), 0)
	for k := 0; k < n; k++ {
		x[k] = a[k] * invm * w[k]
	}
}

// sameBits reports the first index at which a and b differ in either
// component's float64 bit pattern, or -1.
func sameBits(a, b []complex128) int {
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return i
		}
	}
	return -1
}

// oracleLengths covers every length class a plan distinguishes: all
// n ≤ 64, every power of two to 2^17, the chunk-engine lengths
// (5,120 and 10,240 — Paxson and Davies–Harte at the default 4,096+1,024
// chunk), the paper's 171,000-frame trace, and primes.
func oracleLengths() []int {
	var ns []int
	for n := 1; n <= 64; n++ {
		ns = append(ns, n)
	}
	for n := 128; n <= 1<<17; n <<= 1 {
		ns = append(ns, n)
	}
	return append(ns, 97, 1000, 1009, 5120, 6000, 7919, 10240, 20000, 65537, 171000)
}

// TestPlanBitwiseOracle: a planned transform equals the unplanned
// reference bit for bit, in both directions, at every oracle length.
func TestPlanBitwiseOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(40, 41))
	for _, n := range oracleLengths() {
		x := randComplex(n, rng)
		for _, dir := range []Direction{DirForward, DirInverse} {
			want := append([]complex128(nil), x...)
			transform(want, dir == DirInverse)
			got := append([]complex128(nil), x...)
			p := NewPlan(n, dir)
			p.Transform(got)
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("n=%d dir=%d: planned output differs from the reference at %d: %v vs %v", n, dir, i, got[i], want[i])
			}
			// A second use of the same plan (warm work buffer) too.
			again := append([]complex128(nil), x...)
			p.Transform(again)
			if i := sameBits(again, want); i >= 0 {
				t.Fatalf("n=%d dir=%d: reused plan differs at %d", n, dir, i)
			}
		}
	}
}

// TestPlanConcurrent drives one shared plan per length class from 16
// goroutines; every result must equal the serial one bit for bit.
// Under -race this also pins the plan's work-buffer pool.
func TestPlanConcurrent(t *testing.T) {
	const workers = 16
	rng := rand.New(rand.NewPCG(42, 43))
	for _, n := range []int{4096, 5120, 10240} {
		for _, dir := range []Direction{DirForward, DirInverse} {
			p := NewPlan(n, dir)
			inputs := make([][]complex128, workers)
			want := make([][]complex128, workers)
			for w := range inputs {
				inputs[w] = randComplex(n, rng)
				want[w] = append([]complex128(nil), inputs[w]...)
				p.Transform(want[w])
			}
			got := make([][]complex128, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					out := append([]complex128(nil), inputs[w]...)
					for rep := 0; rep < 3; rep++ {
						copy(out, inputs[w])
						p.Transform(out)
					}
					got[w] = out
				}(w)
			}
			wg.Wait()
			for w := range got {
				if i := sameBits(got[w], want[w]); i >= 0 {
					t.Fatalf("n=%d dir=%d worker %d: concurrent result differs from serial at %d", n, dir, w, i)
				}
			}
		}
	}
}

// TestPlanTransformZeroAlloc: once a plan's work buffer exists, a
// transform allocates nothing, for radix-2 and Bluestein lengths.
func TestPlanTransformZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	rng := rand.New(rand.NewPCG(44, 45))
	for _, n := range []int{4096, 5120} {
		p := NewPlan(n, DirInverse)
		x := randComplex(n, rng)
		p.Transform(x)
		if allocs := testing.AllocsPerRun(20, func() { p.Transform(x) }); allocs != 0 {
			t.Errorf("n=%d: Transform allocates %v per call, want 0", n, allocs)
		}
	}
}

// TestPlanBytes pins the resident size the generation cache charges for
// a plan: n−1 twiddles for a power of two. For Bluestein: the chirp,
// the filter spectrum and the m−1 inner twiddles (complex128), plus
// the int32 bit reversal of k < n and the (i, rev i) pairs — one pair
// per swap and per fixed point, m + 2^7 entries for m = 2^14.
func TestPlanBytes(t *testing.T) {
	if got, want := NewPlan(4096, DirForward).Bytes(), int64(16*4095); got != want {
		t.Errorf("radix-2 plan: %d bytes, want %d", got, want)
	}
	const n, m = 5120, 16384
	if got, want := NewPlan(n, DirInverse).Bytes(), int64(16*(n+m+m-1)+4*(n+m+128)); got != want {
		t.Errorf("Bluestein plan: %d bytes, want %d", got, want)
	}
	if got := NewPlan(1, DirForward).Bytes(); got != 0 {
		t.Errorf("identity plan: %d bytes, want 0", got)
	}
}

// TestPlanLengthMismatchPanics: applying a plan to the wrong length is
// a programming error, reported loudly rather than transforming a
// prefix.
func TestPlanLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected a panic for a length mismatch")
		}
	}()
	NewPlan(8, DirForward).Transform(make([]complex128, 7))
}

// naiveDFT is the O(n²) reference implementation.
func naiveDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			ang := sign * 2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * cmplx.Exp(complex(0, ang))
		}
		if inverse {
			sum /= complex(float64(n), 0)
		}
		out[k] = sum
	}
	return out
}

func randComplex(n int, rng *rand.Rand) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxErr(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

func TestForwardMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 31, 32, 33, 64, 100, 128, 171} {
		x := randComplex(n, rng)
		got := Forward(x)
		want := naiveDFT(x, false)
		if e := maxErr(got, want); e > 1e-9*float64(n) {
			t.Errorf("n=%d: max error %v", n, e)
		}
	}
}

func TestInverseMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, n := range []int{2, 3, 8, 15, 16, 27, 64, 100} {
		x := randComplex(n, rng)
		got := Inverse(x)
		want := naiveDFT(x, true)
		if e := maxErr(got, want); e > 1e-9*float64(n) {
			t.Errorf("n=%d: max error %v", n, e)
		}
	}
}

func TestForwardInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for _, n := range []int{1, 2, 7, 16, 100, 171, 256, 1000} {
		x := randComplex(n, rng)
		y := Inverse(Forward(x))
		if e := maxErr(x, y); e > 1e-9*float64(n) {
			t.Errorf("n=%d: round trip error %v", n, e)
		}
	}
}

func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	for _, n := range []int{16, 100, 128, 500} {
		x := randComplex(n, rng)
		y := Forward(x)
		var ex, ey float64
		for i := range x {
			ex += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			ey += real(y[i])*real(y[i]) + imag(y[i])*imag(y[i])
		}
		ey /= float64(n)
		if math.Abs(ex-ey) > 1e-8*ex {
			t.Errorf("n=%d: Parseval violated: %v vs %v", n, ex, ey)
		}
	}
}

func TestForwardLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 11))
		n := 3 + int(seed%61)
		a := randComplex(n, r)
		b := randComplex(n, r)
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a[i] + b[i]
		}
		fa, fb, fs := Forward(a), Forward(b), Forward(sum)
		for i := range fs {
			if cmplx.Abs(fs[i]-(fa[i]+fb[i])) > 1e-8*float64(n) {
				return false
			}
		}
		return true
	}
	_ = rng
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestForwardRealMatchesComplex(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 13))
	x := make([]float64, 100)
	c := make([]complex128, 100)
	for i := range x {
		x[i] = rng.NormFloat64()
		c[i] = complex(x[i], 0)
	}
	a := ForwardReal(x)
	b := Forward(c)
	if e := maxErr(a, b); e > 1e-10 {
		t.Errorf("ForwardReal differs from Forward: %v", e)
	}
}

func TestPeriodogramSinusoid(t *testing.T) {
	// A pure sinusoid at Fourier frequency j0 concentrates all power there.
	const n = 1024
	const j0 = 37
	x := make([]float64, n)
	for t := range x {
		x[t] = math.Sin(2 * math.Pi * float64(j0) * float64(t) / n)
	}
	freqs, ords := Periodogram(x)
	if len(freqs) != (n-1)/2 {
		t.Fatalf("got %d ordinates, want %d", len(freqs), (n-1)/2)
	}
	best := 0
	for j := range ords {
		if ords[j] > ords[best] {
			best = j
		}
	}
	if best != j0-1 {
		t.Errorf("peak at index %d (freq %v), want %d", best, freqs[best], j0-1)
	}
	// All other ordinates should be negligible.
	for j, v := range ords {
		if j != best && v > 1e-10*ords[best] {
			t.Errorf("leakage at j=%d: %v", j, v)
		}
	}
}

func TestPeriodogramTotalPower(t *testing.T) {
	// Sum of periodogram ordinates ≈ variance·n/(4π·(n/2))·... use the exact
	// identity Σ_{j=1}^{n-1} |X_j|²/n = Σ (x_t - mean)² and check through it.
	rng := rand.New(rand.NewPCG(20, 21))
	n := 512
	x := make([]float64, n)
	var mean float64
	for i := range x {
		x[i] = rng.NormFloat64()
		mean += x[i]
	}
	mean /= float64(n)
	var ss float64
	for _, v := range x {
		ss += (v - mean) * (v - mean)
	}
	_, ords := Periodogram(x)
	var sum float64
	for _, v := range ords {
		sum += v
	}
	// For even n the Nyquist ordinate j=n/2 is excluded by our convention;
	// account for it: total = Σ_{j=1}^{n-1} |F_j|² / (2πn) where F is the
	// DFT of the demeaned series; by conjugate symmetry = 2·sum + Nyquist.
	d := make([]float64, n)
	for i, v := range x {
		d[i] = v - mean
	}
	f := ForwardReal(d)
	nyq := 0.0
	if n%2 == 0 {
		re, im := real(f[n/2]), imag(f[n/2])
		nyq = (re*re + im*im) / (2 * math.Pi * float64(n))
	}
	total := 2*sum + nyq
	want := ss / (2 * math.Pi)
	if math.Abs(total-want) > 1e-8*want {
		t.Errorf("total periodogram power %v, want %v", total, want)
	}
}

func TestAutocorrelationMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewPCG(30, 31))
	n := 300
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64() + 0.8*math.Sin(float64(i)/7)
	}
	const maxLag = 50
	got, err := Autocorrelation(x, maxLag)
	if err != nil {
		t.Fatal(err)
	}
	// Direct biased estimator.
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	var c0 float64
	for _, v := range x {
		c0 += (v - mean) * (v - mean)
	}
	for k := 0; k <= maxLag; k++ {
		var ck float64
		for t := 0; t+k < n; t++ {
			ck += (x[t] - mean) * (x[t+k] - mean)
		}
		want := ck / c0
		if math.Abs(got[k]-want) > 1e-9 {
			t.Errorf("lag %d: got %v want %v", k, got[k], want)
		}
	}
	if math.Abs(got[0]-1) > 1e-12 {
		t.Errorf("r(0) = %v, want 1", got[0])
	}
}

func TestAutocorrelationErrors(t *testing.T) {
	if _, err := Autocorrelation(nil, 0); err == nil {
		t.Error("expected error for empty series")
	}
	if _, err := Autocorrelation([]float64{1, 2, 3}, 3); err == nil {
		t.Error("expected error for maxLag >= n")
	}
	if _, err := Autocorrelation([]float64{1, 2, 3}, -1); err == nil {
		t.Error("expected error for negative maxLag")
	}
}

func TestAutocorrelationConstantSeries(t *testing.T) {
	x := []float64{5, 5, 5, 5, 5}
	r, err := Autocorrelation(x, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r[0] != 1 {
		t.Errorf("r(0) = %v, want 1", r[0])
	}
	for k := 1; k <= 3; k++ {
		if r[k] != 0 {
			t.Errorf("r(%d) = %v, want 0", k, r[k])
		}
	}
}

func BenchmarkForwardPow2(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	x := randComplex(1<<14, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Forward(x)
	}
}

func BenchmarkForwardBluestein(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	x := randComplex(17100, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Forward(x)
	}
}

// BenchmarkPlanBluestein5120 is the Paxson chunk's inverse transform on
// a warm plan: the per-chunk cost the streaming engines pay.
func BenchmarkPlanBluestein5120(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	x0 := randComplex(5120, rng)
	x := make([]complex128, len(x0))
	p := NewPlan(5120, DirInverse)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(x, x0) // repeated inverse transforms would decay to subnormals
		p.Transform(x)
	}
}
