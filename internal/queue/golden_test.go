package queue

import (
	"context"
	"math"
	"math/rand/v2"
	"os"
	"testing"

	"vbr/internal/trace"
)

// This file pins the legacy trace-multiplexer path bitwise to its
// behavior before the Source-interface refactor. The constants below
// are Float64bits captured by running the pre-refactor code on the
// fixed scenario; any change to lag sampling, aggregation order (float
// addition does not commute), or the loss averaging would change them.
// They must never be regenerated from current code — that would turn
// the regression test into a tautology.

// goldenHash folds a float64 series into an FNV-1a 64 hash over each
// value's IEEE-754 bits, little-endian byte by byte.
func goldenHash(xs []float64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, v := range xs {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			h ^= (bits >> (8 * i)) & 0xff
			h *= prime
		}
	}
	return h
}

// The golden scenario: goldenTrace (synth defaults with 3000 frames,
// 6 slices/frame, 48-frame scenes, seed 1994, as the synthetic movie
// drew it when these constants were captured) multiplexed 3 ways with
// 400-frame minimum lag under seed 7.
const (
	goldenComboLag1 = 1807
	goldenComboLag2 = 2263

	goldenFrameWorkloadHash = 0xed64741db1ca4174
	goldenFrameIntervalBits = 0x3fa5555555555555 // 1/24 s
	goldenSliceWorkloadHash = 0x4db7225dca6f3c26
	goldenSliceIntervalBits = 0x3f7c71c71c71c71c // 1/144 s

	goldenCapacityBits = 0x4170cc5c19fa7220 // MeanRate()·3·1.1 bits/s

	goldenFramePlBits         = 0x3f88c6361b388575
	goldenFramePlWESBits      = 0x3fbd0d2bc3ca1724
	goldenFrameTotalBytesBits = 0x41d65eafbd80f7aa
	goldenFrameLostBytesBits  = 0x4171519380553ecd
	goldenFrameMaxBacklogBits = 0x40ed4c0000000000

	goldenSlicePlBits         = 0x3f88e5fcc35a5b88
	goldenSlicePlWESBits      = 0x3fbd1a077496367f
	goldenSliceMaxBacklogBits = 0x40ed4c0000000000
)

// goldenWindowLossBits is the combo-0 per-window loss series of the
// frame-granularity run with 500-interval windows.
var goldenWindowLossBits = [6]uint64{
	0x0,
	0x3f59b58b656f213d,
	0x3f915fa95ce5e817,
	0x3fa1f302e25714d8,
	0x3f53a136f76520f3,
	0x3f941f1fc3b3d617,
}

// goldenTrace reads the trace the queue goldens were captured on,
// frozen in testdata by trace.WriteBinary from testTrace(t, 3000), so
// a change to the synthetic movie's draws cannot move the constants
// here and in cbr_test.go.
func goldenTrace(t *testing.T) *trace.Trace {
	t.Helper()
	f, err := os.Open("testdata/golden_trace.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.ReadBinary(f)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func goldenMux(t *testing.T) *Mux {
	t.Helper()
	tr := goldenTrace(t)
	m, err := NewMuxFromConfig(MuxConfig{Trace: tr, N: 3, MinLagFrames: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestGoldenLags pins the lag-combination draw: the first combination
// drawn from PCG(seed, 0x1a65) must stay exactly what the pre-refactor
// sampler produced.
func TestGoldenLags(t *testing.T) {
	m := goldenMux(t)
	rng := rand.New(rand.NewPCG(m.Seed, 0x1a65))
	lags := m.Lags(rng)
	if len(lags) != 3 || lags[0] != 0 || lags[1] != goldenComboLag1 || lags[2] != goldenComboLag2 {
		t.Fatalf("combo-0 lags = %v, want [0 %d %d]", lags, goldenComboLag1, goldenComboLag2)
	}
}

// TestGoldenWorkloads pins the aggregate workloads: same values in the
// same float-addition order, at frame and slice granularity.
func TestGoldenWorkloads(t *testing.T) {
	ctx := context.Background()
	m := goldenMux(t)
	lags := []int{0, goldenComboLag1, goldenComboLag2}

	fw, err := m.FrameWorkload(ctx, lags)
	if err != nil {
		t.Fatal(err)
	}
	if len(fw.Bytes) != 3000 {
		t.Fatalf("frame workload has %d intervals, want 3000", len(fw.Bytes))
	}
	if bits := math.Float64bits(fw.Interval); bits != goldenFrameIntervalBits {
		t.Errorf("frame interval bits = %#x, want %#x", bits, uint64(goldenFrameIntervalBits))
	}
	if h := goldenHash(fw.Bytes); h != goldenFrameWorkloadHash {
		t.Errorf("frame workload hash = %#x, want %#x", h, uint64(goldenFrameWorkloadHash))
	}

	sw, err := m.SliceWorkload(ctx, lags)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Bytes) != 18000 {
		t.Fatalf("slice workload has %d intervals, want 18000", len(sw.Bytes))
	}
	if bits := math.Float64bits(sw.Interval); bits != goldenSliceIntervalBits {
		t.Errorf("slice interval bits = %#x, want %#x", bits, uint64(goldenSliceIntervalBits))
	}
	if h := goldenHash(sw.Bytes); h != goldenSliceWorkloadHash {
		t.Errorf("slice workload hash = %#x, want %#x", h, uint64(goldenSliceWorkloadHash))
	}
}

// TestGoldenAverageLoss pins the full multiplexer pipeline end to end:
// six lag combinations drawn, simulated and averaged, at both
// granularities, bit for bit.
func TestGoldenAverageLoss(t *testing.T) {
	ctx := context.Background()
	m := goldenMux(t)
	capacity := m.Trace.MeanRate() * 3 * 1.1
	if bits := math.Float64bits(capacity); bits != goldenCapacityBits {
		t.Fatalf("capacity bits = %#x, want %#x (trace generation changed?)", bits, uint64(goldenCapacityBits))
	}

	r, err := m.AverageLossCtx(ctx, capacity, 60000, false, Options{WindowIntervals: 500})
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, got float64, want uint64) {
		t.Helper()
		if bits := math.Float64bits(got); bits != want {
			t.Errorf("%s bits = %#x (%v), want %#x (%v)", name, bits, got, want, math.Float64frombits(want))
		}
	}
	check("frame Pl", r.Pl, goldenFramePlBits)
	check("frame PlWES", r.PlWES, goldenFramePlWESBits)
	check("frame TotalBytes", r.TotalBytes, goldenFrameTotalBytesBits)
	check("frame LostBytes", r.LostBytes, goldenFrameLostBytesBits)
	check("frame MaxBacklog", r.MaxBacklog, goldenFrameMaxBacklogBits)
	if len(r.WindowLoss) != len(goldenWindowLossBits) {
		t.Fatalf("window series has %d windows, want %d", len(r.WindowLoss), len(goldenWindowLossBits))
	}
	for i, want := range goldenWindowLossBits {
		check("window loss", r.WindowLoss[i], want)
	}

	rs, err := m.AverageLossCtx(ctx, capacity, 60000, true, Options{})
	if err != nil {
		t.Fatal(err)
	}
	check("slice Pl", rs.Pl, goldenSlicePlBits)
	check("slice PlWES", rs.PlWES, goldenSlicePlWESBits)
	check("slice MaxBacklog", rs.MaxBacklog, goldenSliceMaxBacklogBits)
}
