package queue

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"
)

func TestCBRRateZeroDelayIsPeak(t *testing.T) {
	w := Workload{Bytes: []float64{100, 300, 200}, Interval: 0.1}
	r, err := CBRRate(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-w.PeakRate()) > 1e-6*w.PeakRate() {
		t.Errorf("zero-delay CBR rate %v, want peak %v", r, w.PeakRate())
	}
}

func TestCBRRateLargeDelayApproachesMean(t *testing.T) {
	w := layeredTestWorkload(5000, 10)
	r, err := CBRRate(w, 1e6) // essentially unbounded smoothing
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-w.MeanRate()) > 0.01*w.MeanRate() {
		t.Errorf("unbounded-delay CBR rate %v, want mean %v", r, w.MeanRate())
	}
}

func TestCBRRateMonotoneInDelay(t *testing.T) {
	w := layeredTestWorkload(10000, 11)
	prev := math.Inf(1)
	for _, d := range []float64{0, 0.01, 0.1, 1, 10} {
		r, err := CBRRate(w, d)
		if err != nil {
			t.Fatal(err)
		}
		if r > prev*(1+1e-9) {
			t.Errorf("CBR rate rose with delay %v: %v > %v", d, r, prev)
		}
		if r < w.MeanRate()-1 {
			t.Errorf("CBR rate %v below mean", r)
		}
		prev = r
	}
}

func TestCBRRateFeasibility(t *testing.T) {
	// The returned rate must actually satisfy the delay bound, and a
	// slightly smaller rate must violate it.
	w := layeredTestWorkload(8000, 12)
	const delay = 0.05
	r, err := CBRRate(w, delay)
	if err != nil {
		t.Fatal(err)
	}
	check := func(rate float64) bool {
		service := rate / 8 * w.Interval
		limit := rate / 8 * delay
		var q float64
		for _, a := range w.Bytes {
			q = math.Max(0, q+a-service)
			if q > limit {
				return false
			}
		}
		return true
	}
	if !check(r * (1 + 1e-6)) {
		t.Error("returned rate infeasible")
	}
	if check(r * 0.99) {
		t.Error("1% smaller rate should be infeasible")
	}
	if _, err := CBRRate(w, -1); err == nil {
		t.Error("negative delay should fail")
	}
	if _, err := CBRRate(Workload{}, 1); err == nil {
		t.Error("invalid workload should fail")
	}
}

// cbrRateBisection is CBRRate as it stood before the zero-loss dual
// replaced it, kept verbatim as the reference: a 60-step bisection
// between the mean and peak rates on the exact backlog recursion.
func cbrRateBisection(w Workload, maxDelay float64) float64 {
	mean, peak := w.MeanRate(), w.PeakRate()
	if mean == 0 {
		return 0
	}
	feasible := func(rateBps float64) bool {
		service := rateBps / 8 * w.Interval
		maxBacklog := rateBps / 8 * maxDelay
		var q float64
		for _, a := range w.Bytes {
			q = math.Max(0, q+a-service)
			if q > maxBacklog {
				return false
			}
		}
		return true
	}
	if feasible(mean) {
		return mean
	}
	lo, hi := mean, peak
	if !feasible(hi) {
		hi = peak * (1 + 1e-9)
		for !feasible(hi) {
			hi *= 1.01
		}
	}
	for i := 0; i < 60 && hi-lo > 1e-6*hi; i++ {
		mid := (lo + hi) / 2
		if feasible(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// TestCBRRateMatchesBisection checks the dual-based CBRRate against the
// bisection it replaced, from no smoothing to smoothing longer than the
// workload, on bursty and trace workloads.
func TestCBRRateMatchesBisection(t *testing.T) {
	tr := testTrace(t, 3000)
	for _, w := range []Workload{
		layeredTestWorkload(8000, 12),
		{Bytes: tr.Frames, Interval: 1 / tr.FrameRate},
		{Bytes: tr.Slices, Interval: 1 / (tr.FrameRate * float64(tr.SlicesPerFrame))},
	} {
		for _, d := range []float64{0, 1e-3, 1e-2, 0.1, 1, 10, 1e6} {
			got, err := CBRRate(w, d)
			if err != nil {
				t.Fatal(err)
			}
			want := cbrRateBisection(w, d)
			if math.Abs(got-want) > 1e-6*want {
				t.Errorf("%d intervals, delay %v: CBRRate %v, bisection %v (rel %.2g)",
					len(w.Bytes), d, got, want, math.Abs(got-want)/want)
			}
		}
	}
}

func TestZeroLossCapacityExactHandCase(t *testing.T) {
	// Arrivals 100/300/100 per 0.1 s, buffer 100 bytes.
	// S = 0,100,400,500. C*·Δt/8 = max over pairs of (S_j-S_i-100)/(j-i):
	// j=2,i=1: (300-100)/1 = 200 → C* = 200·8/0.1 = 16000 bps.
	w := Workload{Bytes: []float64{100, 300, 100}, Interval: 0.1}
	c, err := ZeroLossCapacityExact(w, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-16000) > 1e-6 {
		t.Errorf("exact zero-loss capacity %v, want 16000", c)
	}
}

func TestZeroLossCapacityExactMatchesBisection(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(13, 14))
	bytes := make([]float64, 20000)
	for i := range bytes {
		bytes[i] = 500 + 1500*rng.Float64()
		if i%777 < 15 {
			bytes[i] *= 3
		}
	}
	w := Workload{Bytes: bytes, Interval: 0.01}
	for _, q := range []float64{0, 1000, 10000, 100000} {
		exact, err := ZeroLossCapacityExact(w, q)
		if err != nil {
			t.Fatal(err)
		}
		// Verify with the simulator: no loss at exact, loss slightly below.
		r, err := Simulate(w, exact*(1+1e-9), q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.LostBytes > 1e-6 {
			t.Errorf("Q=%v: loss %v at the exact capacity", q, r.LostBytes)
		}
		if exact > 0 {
			r2, err := Simulate(w, exact*0.999, q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if r2.LostBytes == 0 {
				t.Errorf("Q=%v: no loss 0.1%% below the exact capacity", q)
			}
		}
		// And against the bisection search.
		loss := func(c float64) (float64, error) {
			r, err := Simulate(w, c, q, Options{})
			if err != nil {
				return 0, err
			}
			return r.Pl, nil
		}
		bisect, err := MinCapacityCtx(ctx, loss, w.MeanRate()*0.5, w.PeakRate()*1.05, LossTarget{Pl: 0})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(bisect-exact) > 2e-3*exact {
			t.Errorf("Q=%v: bisection %v vs exact %v", q, bisect, exact)
		}
	}
}

// zeroLossGoldenCases returns the fixed (workload, buffer) cases the
// ZeroLossCapacityExact golden is recorded over: hand cases, bursty and
// heavy-tailed random workloads at frame and slice intervals, and the
// golden trace at both granularities, each against buffers from zero to
// several times the workload's total bytes.
func zeroLossGoldenCases(t *testing.T) (ws []Workload, buffers [][]float64) {
	t.Helper()
	ws = []Workload{
		{Bytes: []float64{100, 300, 100}, Interval: 0.1},
		{Bytes: []float64{5, 5, 5}, Interval: 1},
		{Bytes: []float64{1000}, Interval: 0.04},
		{Bytes: []float64{0, 0, 7, 0}, Interval: 0.5},
		layeredTestWorkload(2000, 15),
		layeredTestWorkload(5000, 10),
	}
	rng := rand.New(rand.NewPCG(0x2e70, 0x1055))
	for _, n := range []int{2, 3, 10, 64, 777, 3000} {
		for _, dt := range []float64{1.0 / 24, 1.0 / 144} {
			b := make([]float64, n)
			for i := range b {
				b[i] = 2000 / math.Pow(1-rng.Float64(), 0.7) // Pareto-like tail
			}
			ws = append(ws, Workload{Bytes: b, Interval: dt})
		}
	}
	tr := goldenTrace(t)
	ws = append(ws,
		Workload{Bytes: tr.Frames, Interval: 1 / tr.FrameRate},
		Workload{Bytes: tr.Slices, Interval: 1 / (tr.FrameRate * float64(tr.SlicesPerFrame))})
	for _, w := range ws {
		peak, total := 0.0, w.TotalBytes()
		for _, v := range w.Bytes {
			peak = math.Max(peak, v)
		}
		bs := []float64{0, 1, 100}
		for _, f := range []float64{0.01, 0.1, 0.5, 1, 2, 10, 100} {
			bs = append(bs, f*peak)
		}
		bs = append(bs, 0.5*total, total, 3*total)
		buffers = append(buffers, bs)
	}
	return ws, buffers
}

// Float64bits of ZeroLossCapacityExact over zeroLossGoldenCases, folded
// by goldenHash, captured from the convex-hull code before it was
// generalized into zeroLossRate. Never regenerate from current code.
const (
	goldenZeroLossCases = 260
	goldenZeroLossHash  = 0xd1ac1e2be24fa4ba
)

// TestZeroLossCapacityExactGolden pins ZeroLossCapacityExact bit for bit:
// the T = 0 query of the zero-loss dual divides by the integer gaps
// exactly as the dedicated hull did.
func TestZeroLossCapacityExactGolden(t *testing.T) {
	ws, buffers := zeroLossGoldenCases(t)
	var got []float64
	for i, w := range ws {
		for _, b := range buffers[i] {
			c, err := ZeroLossCapacityExact(w, b)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, c)
		}
	}
	if len(got) != goldenZeroLossCases {
		t.Fatalf("%d cases, want %d", len(got), goldenZeroLossCases)
	}
	if h := goldenHash(got); h != goldenZeroLossHash {
		t.Errorf("zero-loss capacity hash = %#x, want %#x", h, uint64(goldenZeroLossHash))
	}
}

// FuzzZeroLoss checks the zero-loss dual against the simulator on
// arbitrary short workloads (one byte per interval, so cumulative sums
// are exact), buffers B and delays T: with buffer B + T·C/8, the fluid
// queue loses at most 1e-9 of the bytes just above the dual rate and
// loses some bytes just below it.
func FuzzZeroLoss(f *testing.F) {
	f.Add([]byte{100, 255, 3, 0, 200}, uint16(50), uint16(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint16(0), uint16(250))
	f.Add([]byte{0, 0, 9}, uint16(0), uint16(0))
	f.Add([]byte{255, 255, 255, 255}, uint16(1000), uint16(60000))
	f.Fuzz(func(t *testing.T, data []byte, buffer, delayMs uint16) {
		if len(data) == 0 || len(data) > 256 {
			return
		}
		w := Workload{Bytes: make([]float64, len(data)), Interval: 1.0 / 24}
		for i, b := range data {
			w.Bytes[i] = float64(b)
		}
		bufferBytes, delay := float64(buffer), float64(delayMs)/1000
		rate, err := zeroLossRate(w, bufferBytes, delay)
		if err != nil {
			t.Fatal(err)
		}
		if !(rate >= 0) || math.IsInf(rate, 0) {
			t.Fatalf("dual rate %v", rate)
		}
		if rate == 0 { // no pair of intervals outruns the buffer
			return
		}
		lossAt := func(c float64) *Result {
			r, err := Simulate(w, c, bufferBytes+delay*c/8, Options{})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		if r := lossAt(rate * (1 + 1e-9)); r.LostBytes > 1e-9*r.TotalBytes {
			t.Errorf("lost %v of %v bytes just above the dual rate %v", r.LostBytes, r.TotalBytes, rate)
		}
		if r := lossAt(rate * (1 - 1e-6)); !(r.LostBytes > 0) {
			t.Errorf("no loss just below the dual rate %v", rate)
		}
	})
}

func TestZeroLossCapacityExactZeroBufferIsPeak(t *testing.T) {
	w := layeredTestWorkload(2000, 15)
	c, err := ZeroLossCapacityExact(w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-w.PeakRate()) > 1e-6*w.PeakRate() {
		t.Errorf("zero-buffer capacity %v, want peak %v", c, w.PeakRate())
	}
	if _, err := ZeroLossCapacityExact(w, -1); err == nil {
		t.Error("negative buffer should fail")
	}
	if _, err := ZeroLossCapacityExact(Workload{}, 0); err == nil {
		t.Error("invalid workload should fail")
	}
}

func TestZeroLossCapacityExactHugeBufferIsZeroish(t *testing.T) {
	// A buffer larger than the whole trace's bytes never overflows at
	// any positive capacity, so C* = 0 (the max in the formula is ≤ 0).
	w := Workload{Bytes: []float64{5, 5, 5}, Interval: 1}
	c, err := ZeroLossCapacityExact(w, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if c != 0 {
		t.Errorf("capacity %v, want 0", c)
	}
}

func TestCBRvsVBRComparison(t *testing.T) {
	ctx := context.Background()
	// The paper's motivation: at equal (small) delay budget, CBR needs
	// more bandwidth than a VBR allocation tolerating small loss.
	w := layeredTestWorkload(20000, 16)
	const delay = 0.002
	cbr, err := CBRRate(w, delay)
	if err != nil {
		t.Fatal(err)
	}
	loss := func(c float64) (float64, error) {
		r, err := Simulate(w, c, delay*c/8, Options{})
		if err != nil {
			return 0, err
		}
		return r.Pl, nil
	}
	vbr, err := MinCapacityCtx(ctx, loss, w.MeanRate()*0.5, w.PeakRate()*1.05, LossTarget{Pl: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if vbr >= cbr {
		t.Errorf("VBR with loss tolerance (%v) not cheaper than CBR (%v)", vbr, cbr)
	}
}
