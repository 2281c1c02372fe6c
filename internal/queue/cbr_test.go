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
