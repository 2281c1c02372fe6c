package queue

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func constWorkload(n int, bytes, interval float64) Workload {
	b := make([]float64, n)
	for i := range b {
		b[i] = bytes
	}
	return Workload{Bytes: b, Interval: interval}
}

func TestWorkloadValidate(t *testing.T) {
	if err := (Workload{}).Validate(); err == nil {
		t.Error("empty workload should fail")
	}
	if err := (Workload{Bytes: []float64{1}, Interval: 0}).Validate(); err == nil {
		t.Error("zero interval should fail")
	}
	if err := (Workload{Bytes: []float64{-1}, Interval: 1}).Validate(); err == nil {
		t.Error("negative bytes should fail")
	}
	if err := (Workload{Bytes: []float64{math.NaN()}, Interval: 1}).Validate(); err == nil {
		t.Error("NaN should fail")
	}
	w := constWorkload(10, 100, 0.5)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.TotalBytes() != 1000 {
		t.Errorf("total %v", w.TotalBytes())
	}
	// 100 bytes per 0.5 s = 1600 bps.
	if math.Abs(w.MeanRate()-1600) > 1e-9 {
		t.Errorf("mean rate %v", w.MeanRate())
	}
	if math.Abs(w.PeakRate()-1600) > 1e-9 {
		t.Errorf("peak rate %v", w.PeakRate())
	}
}

func TestSimulateNoLossAtSufficientCapacity(t *testing.T) {
	w := constWorkload(100, 1000, 0.01) // 800 kbps offered
	r, err := Simulate(w, 800_000, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Pl != 0 || r.LostBytes != 0 {
		t.Errorf("loss at exactly sufficient capacity: %v", r.Pl)
	}
}

func TestSimulateLossConservation(t *testing.T) {
	// Arrivals = served + lost + final backlog; with capacity at half the
	// offered load and zero buffer, exactly half is lost.
	w := constWorkload(1000, 1000, 0.01)
	r, err := Simulate(w, 400_000, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Pl-0.5) > 1e-9 {
		t.Errorf("Pl = %v, want 0.5", r.Pl)
	}
	if r.TotalBytes != 1_000_000 {
		t.Errorf("total %v", r.TotalBytes)
	}
}

func TestSimulateBufferAbsorbsBurst(t *testing.T) {
	// One big burst into an otherwise idle stream: buffer ≥ burst excess
	// loses nothing; smaller buffer loses the difference.
	bytes := make([]float64, 100)
	bytes[50] = 10000
	w := Workload{Bytes: bytes, Interval: 0.01}
	cap := 800_000.0 // drains 1000 bytes per interval
	big, err := Simulate(w, cap, 9000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if big.LostBytes != 0 {
		t.Errorf("big buffer lost %v", big.LostBytes)
	}
	small, err := Simulate(w, cap, 4000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(small.LostBytes-5000) > 1e-6 {
		t.Errorf("small buffer lost %v, want 5000", small.LostBytes)
	}
}

func TestSimulateMonotoneInCapacityAndBuffer(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	bytes := make([]float64, 5000)
	for i := range bytes {
		bytes[i] = 500 + 1500*rng.Float64()
	}
	w := Workload{Bytes: bytes, Interval: 0.01}
	var prev float64 = math.Inf(1)
	for _, c := range []float64{600_000, 800_000, 1_000_000, 1_200_000} {
		r, err := Simulate(w, c, 2000, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Pl > prev+1e-12 {
			t.Errorf("loss not monotone in capacity at %v: %v > %v", c, r.Pl, prev)
		}
		prev = r.Pl
	}
	prev = math.Inf(1)
	for _, q := range []float64{0, 1000, 5000, 20000} {
		r, err := Simulate(w, 850_000, q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Pl > prev+1e-12 {
			t.Errorf("loss not monotone in buffer at %v", q)
		}
		prev = r.Pl
	}
}

func TestSimulateWESAtLeastOverall(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	bytes := make([]float64, 10000)
	for i := range bytes {
		bytes[i] = 500 + 1500*rng.Float64()
		if i%2000 < 50 { // periodic congestion bursts
			bytes[i] *= 3
		}
	}
	w := Workload{Bytes: bytes, Interval: 0.01}
	r, err := Simulate(w, 1_400_000, 3000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Pl <= 0 {
		t.Skip("no loss at this operating point")
	}
	if r.PlWES < r.Pl {
		t.Errorf("worst-second loss %v below overall %v", r.PlWES, r.Pl)
	}
}

func TestSimulateWindowSeries(t *testing.T) {
	w := constWorkload(100, 1000, 0.01)
	r, err := Simulate(w, 400_000, 0, Options{WindowIntervals: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.WindowLoss) != 10 {
		t.Fatalf("windows %d", len(r.WindowLoss))
	}
	for _, v := range r.WindowLoss {
		if math.Abs(v-0.5) > 1e-9 {
			t.Errorf("window loss %v, want 0.5", v)
		}
	}
}

func TestSimulateValidation(t *testing.T) {
	w := constWorkload(10, 100, 0.01)
	if _, err := Simulate(w, 0, 100, Options{}); err == nil {
		t.Error("zero capacity should fail")
	}
	if _, err := Simulate(w, 1000, -1, Options{}); err == nil {
		t.Error("negative buffer should fail")
	}
	if _, err := Simulate(Workload{}, 1000, 0, Options{}); err == nil {
		t.Error("invalid workload should fail")
	}
}

func TestSimulateCellsMatchesFluidWithLargeBuffer(t *testing.T) {
	// With a buffer much larger than a cell and smooth arrivals the two
	// granularities must agree closely on loss.
	rng := rand.New(rand.NewPCG(5, 6))
	bytes := make([]float64, 3000)
	for i := range bytes {
		bytes[i] = 800 + 700*rng.Float64()
	}
	w := Workload{Bytes: bytes, Interval: 0.00139} // slice-like interval
	capacity := w.MeanRate() * 1.05
	buffer := 20000.0
	fluid, err := Simulate(w, capacity, buffer, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cells, err := SimulateCells(w, capacity, buffer, UniformSpacing, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fluid.Pl-cells.Pl) > 0.02 {
		t.Errorf("fluid Pl %v vs cell Pl %v", fluid.Pl, cells.Pl)
	}
}

func TestSimulateCellsBatchWorseThanUniform(t *testing.T) {
	// Batch arrivals at interval start need more buffer: with a small
	// buffer, StartOfInterval must lose at least as much as uniform
	// spacing. This is the §5.1 argument for pipelined coders.
	rng := rand.New(rand.NewPCG(7, 8))
	bytes := make([]float64, 2000)
	for i := range bytes {
		bytes[i] = 2000 + 2000*rng.Float64()
	}
	w := Workload{Bytes: bytes, Interval: 0.04}
	capacity := w.MeanRate() * 1.2
	buffer := 500.0 // ~10 cells
	uni, err := SimulateCells(w, capacity, buffer, UniformSpacing, Options{})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := SimulateCells(w, capacity, buffer, StartOfInterval, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Pl < uni.Pl-1e-9 {
		t.Errorf("batch Pl %v < uniform Pl %v", batch.Pl, uni.Pl)
	}
}

func TestSimulateCellsRandomSpacing(t *testing.T) {
	// Random spacing should be close to uniform spacing in overall loss
	// (the paper found the distinction minor), strictly better than
	// batching, and reproducible by seed.
	rng := rand.New(rand.NewPCG(17, 18))
	bytes := make([]float64, 3000)
	for i := range bytes {
		bytes[i] = 2000 + 2000*rng.Float64()
	}
	w := Workload{Bytes: bytes, Interval: 0.04}
	capacity := w.MeanRate() * 1.15
	buffer := 600.0
	uni, err := SimulateCells(w, capacity, buffer, UniformSpacing, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := SimulateCells(w, capacity, buffer, RandomSpacing, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := SimulateCells(w, capacity, buffer, StartOfInterval, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// With a buffer of only ~12 cells the burstiness ordering is strict:
	// evenly spaced ≤ randomly clumped ≤ batched at interval start.
	if rnd.Pl < uni.Pl-1e-9 {
		t.Errorf("random spacing (%v) beat uniform (%v)", rnd.Pl, uni.Pl)
	}
	if batch.Pl < rnd.Pl-1e-9 {
		t.Errorf("batching (%v) beat random spacing (%v)", batch.Pl, rnd.Pl)
	}
	// The uniform/random gap stays within an order of magnitude — the
	// paper found the spacing choice secondary to buffer size.
	if rnd.Pl > 10*uni.Pl+1e-6 {
		t.Errorf("random %v vs uniform %v: implausibly large gap", rnd.Pl, uni.Pl)
	}
	rnd2, err := SimulateCells(w, capacity, buffer, RandomSpacing, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rnd.Pl != rnd2.Pl {
		t.Error("same seed should reproduce")
	}
}

func TestSimulateCellsValidation(t *testing.T) {
	w := constWorkload(10, 100, 0.01)
	if _, err := SimulateCells(w, 0, 100, UniformSpacing, Options{}); err == nil {
		t.Error("zero capacity should fail")
	}
	if _, err := SimulateCells(w, 1000, -1, UniformSpacing, Options{}); err == nil {
		t.Error("negative buffer should fail")
	}
	if _, err := SimulateCells(w, 1000, 100, Spacing(9), Options{}); err == nil {
		t.Error("unknown spacing should fail")
	}
}

func TestSimulateConservationProperty(t *testing.T) {
	// Invariant for any workload/capacity/buffer: arrivals = served +
	// lost + final backlog, with backlog ≤ buffer and loss ≥ 0. Served
	// is reconstructed by replaying the recursion.
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 77))
		n := 10 + int(seed%300)
		bytes := make([]float64, n)
		for i := range bytes {
			bytes[i] = rng.Float64() * 3000
		}
		w := Workload{Bytes: bytes, Interval: 0.005 + rng.Float64()*0.05}
		capacity := w.MeanRate() * (0.3 + 1.5*rng.Float64())
		buffer := rng.Float64() * 10000
		r, err := Simulate(w, capacity, buffer, Options{})
		if err != nil {
			return false
		}
		if r.LostBytes < 0 || r.MaxBacklog > buffer+1e-9 {
			return false
		}
		// Replay to get the final backlog.
		service := capacity / 8 * w.Interval
		var q float64
		for _, a := range bytes {
			net := q + a - service
			if net > buffer {
				q = buffer
			} else if net > 0 {
				q = net
			} else {
				q = 0
			}
		}
		served := r.TotalBytes - r.LostBytes - q
		// Served cannot exceed capacity × time and cannot be negative.
		if served < -1e-6 || served > service*float64(n)+1e-6 {
			return false
		}
		return math.Abs(r.Pl-(r.LostBytes/r.TotalBytes)) < 1e-12 || r.TotalBytes == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestZeroLossExactMatchesSimulationProperty(t *testing.T) {
	// For random workloads and buffers, the exact capacity is always
	// loss-free in simulation and within tolerance of the infimum.
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		n := 50 + int(seed%500)
		bytes := make([]float64, n)
		for i := range bytes {
			bytes[i] = rng.Float64() * 2000
			if rng.Float64() < 0.02 {
				bytes[i] *= 5
			}
		}
		w := Workload{Bytes: bytes, Interval: 0.01}
		buffer := rng.Float64() * 20000
		exact, err := ZeroLossCapacityExact(w, buffer)
		if err != nil {
			return false
		}
		if exact == 0 {
			return true // buffer swallows everything
		}
		r, err := Simulate(w, exact*(1+1e-9), buffer, Options{})
		if err != nil {
			return false
		}
		return r.LostBytes < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMinCapacityBisection(t *testing.T) {
	ctx := context.Background()
	// Synthetic monotone loss curve: loss = max(0, 1 - c/1e6).
	loss := func(c float64) (float64, error) {
		return math.Max(0, 1-c/1e6), nil
	}
	c, err := MinCapacityCtx(ctx, loss, 1e5, 2e6, LossTarget{Pl: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-750_000) > 1000 {
		t.Errorf("capacity %v, want 750000", c)
	}
	// Zero-loss target.
	c0, err := MinCapacityCtx(ctx, loss, 1e5, 2e6, LossTarget{Pl: 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c0-1e6) > 2000 {
		t.Errorf("zero-loss capacity %v, want 1e6", c0)
	}
	// Unreachable target.
	if _, err := MinCapacityCtx(ctx, loss, 1e5, 5e5, LossTarget{Pl: 0.1}); err == nil {
		t.Error("unreachable target should fail")
	}
	// Already satisfied at lower bound.
	cl, err := MinCapacityCtx(ctx, loss, 1.5e6, 2e6, LossTarget{Pl: 0.5})
	if err != nil || cl != 1.5e6 {
		t.Errorf("lower-bound shortcut: %v %v", cl, err)
	}
	if _, err := MinCapacityCtx(ctx, loss, -1, 1e6, LossTarget{}); err == nil {
		t.Error("bad bracket should fail")
	}
}

func TestLossTargetString(t *testing.T) {
	if got := (LossTarget{Pl: 0}).String(); got != "Pl=0" {
		t.Errorf("got %q", got)
	}
	if got := (LossTarget{Pl: 1e-4}).String(); got != "Pl=1e-04" {
		t.Errorf("got %q", got)
	}
	if got := (LossTarget{Pl: 1e-3, UseWES: true}).String(); got != "Pl-WES=1e-03" {
		t.Errorf("got %q", got)
	}
}

func TestKnee(t *testing.T) {
	// A synthetic L-shaped curve on log axes: flat then steep, knee at
	// the transition.
	var points []QCPoint
	for i := 0; i < 10; i++ {
		tm := math.Pow(10, -4+float64(i)*0.4)
		c := 1e6
		if tm < 1e-2 {
			c = 1e6 * math.Pow(1e-2/tm, 0.8)
		}
		points = append(points, QCPoint{TmaxSec: tm, PerSourceBps: c})
	}
	k, err := Knee(points)
	if err != nil {
		t.Fatal(err)
	}
	if k.TmaxSec < 1e-3 || k.TmaxSec > 1e-1 {
		t.Errorf("knee at %v, want near 1e-2", k.TmaxSec)
	}
	if _, err := Knee(points[:2]); err == nil {
		t.Error("too few points should fail")
	}
}

func TestRealizedGain(t *testing.T) {
	g, err := RealizedGain(4e6, 10e6, 2e6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-0.75) > 1e-12 {
		t.Errorf("gain %v, want 0.75", g)
	}
	if _, err := RealizedGain(1, 2, 3); err == nil {
		t.Error("peak < mean should fail")
	}
}
