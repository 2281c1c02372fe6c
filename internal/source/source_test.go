package source

import (
	"context"
	"errors"
	"io"
	"math"
	"testing"

	"vbr/internal/backend"
	"vbr/internal/codec"
	"vbr/internal/core"
	"vbr/internal/errs"
	"vbr/internal/lrd"
	"vbr/internal/stream"
)

// collect draws n frames from src.
func collect(t *testing.T, src Source, n int) []float64 {
	t.Helper()
	out := make([]float64, n)
	for i := range out {
		v, err := src.Next(context.Background())
		if err != nil {
			t.Fatalf("Next(%d): %v", i, err)
		}
		out[i] = v
	}
	return out
}

// TestRegistryDeterminism is the zoo-wide property test: every
// registered model, built with its defaults, must (a) produce only
// finite non-negative frames, (b) replay bitwise-identically after
// Reset with the same seed, and (c) diverge under a different seed.
func TestRegistryDeterminism(t *testing.T) {
	const frames = 2048
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			b, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			src, err := b.New(Params{}, 42)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			first := collect(t, src, frames)
			for i, v := range first {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("frame %d invalid: %v", i, v)
				}
			}

			src.Reset(42)
			replay := collect(t, src, frames)
			for i := range first {
				if math.Float64bits(first[i]) != math.Float64bits(replay[i]) {
					t.Fatalf("Reset(same seed) diverged at frame %d: %v vs %v", i, first[i], replay[i])
				}
			}

			src.Reset(43)
			other := collect(t, src, frames)
			same := true
			for i := range first {
				if math.Float64bits(first[i]) != math.Float64bits(other[i]) {
					same = false
					break
				}
			}
			if same {
				t.Fatalf("Reset(different seed) replayed the same %d frames", frames)
			}

			meta := src.Meta()
			if meta.Name != name {
				t.Errorf("Meta().Name = %q, want %q", meta.Name, name)
			}
			if !(meta.FrameRate > 0) {
				t.Errorf("Meta().FrameRate = %v, want > 0", meta.FrameRate)
			}
			if !(meta.MeanBytes > 0) {
				t.Errorf("Meta().MeanBytes = %v, want > 0", meta.MeanBytes)
			}
		})
	}
}

// TestRegistryMeanFidelity checks each model's sample mean against its
// own Meta().MeanBytes claim — the basic admission-sizing contract.
// 2^17 frames keep the on/off baseline's cycle count high enough that
// its exponential sojourn noise stays well inside the tolerance.
func TestRegistryMeanFidelity(t *testing.T) {
	const frames = 1 << 17
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			src, err := New(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			xs := collect(t, src, frames)
			var sum float64
			for _, v := range xs {
				sum += v
			}
			mean := sum / frames
			want := src.Meta().MeanBytes
			if math.Abs(mean-want) > 0.15*want {
				t.Errorf("sample mean %.0f deviates from Meta mean %.0f by more than 15%%", mean, want)
			}
		})
	}
}

func TestParseSpec(t *testing.T) {
	specs, err := ParseSpec("farima*3 + onoff:rate=2e6,peak=1e7*2")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("got %d terms, want 2", len(specs))
	}
	if specs[0].Name != "farima" || specs[0].Count != 3 || len(specs[0].Params) != 0 {
		t.Errorf("term 0 = %+v, want farima*3 with no params", specs[0])
	}
	if specs[1].Name != "onoff" || specs[1].Count != 2 {
		t.Errorf("term 1 = %+v, want onoff*2", specs[1])
	}
	if specs[1].Params["rate"] != 2e6 || specs[1].Params["peak"] != 1e7 {
		t.Errorf("term 1 params = %v, want rate=2e6 peak=1e7", specs[1].Params)
	}

	for _, bad := range []string{"", "nosuchmodel", "gop*0", "gop:oops=1", "gop:cv", "poisson*x"} {
		if _, err := New(bad, 1); err == nil {
			t.Errorf("New(%q) succeeded, want error", bad)
		}
	}
	if _, err := New("nosuchmodel", 1); !errors.Is(err, errs.ErrUnknownModel) {
		t.Errorf("New(nosuchmodel) error = %v, want errs.ErrUnknownModel", err)
	}
}

// TestMixDeterminism checks the combinator: spec-built mixes sum their
// members, replay under Reset, and reject frame-rate mismatches.
func TestMixDeterminism(t *testing.T) {
	src, err := New("poisson*2+onoff:fps=24", 9)
	if err != nil {
		t.Fatal(err)
	}
	mix, ok := src.(*Mix)
	if !ok {
		t.Fatalf("New(mix spec) returned %T, want *Mix", src)
	}
	if len(mix.Members()) != 3 {
		t.Fatalf("mix has %d members, want 3", len(mix.Members()))
	}
	first := collect(t, src, 512)
	src.Reset(9)
	replay := collect(t, src, 512)
	for i := range first {
		if math.Float64bits(first[i]) != math.Float64bits(replay[i]) {
			t.Fatalf("mix Reset diverged at frame %d", i)
		}
	}
	meta := src.Meta()
	if meta.Name != "mix(poisson+poisson+onoff)" {
		t.Errorf("mix Meta().Name = %q", meta.Name)
	}
	wantMean := 2*5e6/(8*24) + 5e6/(8*24)
	if math.Abs(meta.MeanBytes-wantMean) > 1e-6*wantMean {
		t.Errorf("mix MeanBytes = %v, want %v", meta.MeanBytes, wantMean)
	}

	if _, err := New("poisson:fps=24+onoff:fps=72", 1); err == nil {
		t.Error("mixing different frame rates succeeded, want error")
	}
}

// TestGoPStructure checks the I/P/B cycle: I frames every gop-th frame
// are on average the largest, B frames the smallest, and frames within
// one GOP are positively correlated through the shared activity level.
func TestGoPStructure(t *testing.T) {
	src, err := New("gop", 11)
	if err != nil {
		t.Fatal(err)
	}
	const gop, frames = 12, 12 * 4096
	xs := collect(t, src, frames)

	var sumI, sumP, sumB float64
	var nI, nP, nB int
	for i, v := range xs {
		switch {
		case i%gop == 0:
			sumI, nI = sumI+v, nI+1
		case i%3 == 0:
			sumP, nP = sumP+v, nP+1
		default:
			sumB, nB = sumB+v, nB+1
		}
	}
	mI, mP, mB := sumI/float64(nI), sumP/float64(nP), sumB/float64(nB)
	if !(mI > mP && mP > mB) {
		t.Errorf("type means not ordered: I=%.0f P=%.0f B=%.0f", mI, mP, mB)
	}

	// Keyframe/busy-frame correlation: the I frame and the P/B bulk of
	// the same GOP share the activity factor, so corr(I_g, rest_g) > 0.
	nGops := frames / gop
	is := make([]float64, nGops)
	rest := make([]float64, nGops)
	for g := 0; g < nGops; g++ {
		is[g] = xs[g*gop]
		var s float64
		for k := 1; k < gop; k++ {
			s += xs[g*gop+k]
		}
		rest[g] = s / float64(gop-1)
	}
	if r := corr(is, rest); r < 0.3 {
		t.Errorf("keyframe/busy-frame correlation = %.3f, want ≥ 0.3", r)
	}
}

func corr(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	return sxy / math.Sqrt(sxx*syy)
}

// TestCascadeFidelity is the multifractal signature test. Within a
// macro-block the conservative cascade's variance–time plot decays like
// m^{-log2(4·E[W²])}: for β = 1.5, E[W²] = (β+1)/(2(2β+1)) = 0.3125, so
// Ĥ_VT ≈ 0.84 asymptotically (≈ 0.80 over the finite fit range) —
// burstiness persisting across small timescales. At and beyond the
// block size, conservation pins every block's total mass, so the
// aggregated series turns CBR-smooth and the slope collapses well below
// even the Poisson m^{-1} (Ĥ → 0). A monofractal fGN-driven stream
// holds one slope across both ranges; that small-vs-large spread is
// exactly the scaling structure the zoo gains.
func TestCascadeFidelity(t *testing.T) {
	src, err := New("cascade", 5) // default depth 12: 4096-frame macro-blocks
	if err != nil {
		t.Fatal(err)
	}
	const frames = 1 << 19
	block := 1 << 12
	xs := collect(t, src, frames)

	// Exact conservation: every macro-block carries mass mean·2^depth.
	want := src.Meta().MeanBytes * float64(block)
	for b := 0; b+block <= frames; b += block {
		var sum float64
		for _, v := range xs[b : b+block] {
			sum += v
		}
		if math.Abs(sum-want) > 1e-6*want {
			t.Fatalf("block %d mass = %v, want %v (conservation violated)", b/block, sum, want)
		}
	}

	small, err := lrd.VarianceTime(xs, 1, 1, 32)
	if err != nil {
		t.Fatal(err)
	}
	large, err := lrd.VarianceTime(xs, 1, 4*block, frames/10)
	if err != nil {
		t.Fatal(err)
	}
	if small.H < 0.72 || small.H > 0.92 {
		t.Errorf("small-timescale VT Ĥ = %.3f, want ≈ 0.80", small.H)
	}
	if large.H > 0.3 {
		t.Errorf("large-timescale VT Ĥ = %.3f, want < 0.3 (conserved blocks are CBR-smooth)", large.H)
	}
	if small.H-large.H < 0.3 {
		t.Errorf("VT Ĥ spread small−large = %.3f, want ≥ 0.3 (multifractal signature)", small.H-large.H)
	}

	// MAVAR agrees on the small-timescale scaling.
	mv, err := lrd.MAVAR(xs, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if mv.H < 0.6 {
		t.Errorf("small-τ MAVAR Ĥ = %.3f, want > 0.6", mv.H)
	}

	// Contrast: the monofractal farima member holds one slope across the
	// same timescales — its small-vs-large spread stays well below the
	// cascade's.
	fa, err := New("farima:n=262144,hurst=0.8", 5)
	if err != nil {
		t.Fatal(err)
	}
	ys := collect(t, fa, 1<<18)
	fsmall, err := lrd.VarianceTime(ys, 1, 1, 32)
	if err != nil {
		t.Fatal(err)
	}
	flarge, err := lrd.VarianceTime(ys, 1, 4*block, len(ys)/10)
	if err != nil {
		t.Fatal(err)
	}
	if spread := math.Abs(fsmall.H - flarge.H); spread > small.H-large.H-0.05 {
		t.Errorf("farima VT spread %.3f not clearly below cascade spread %.3f", spread, small.H-large.H)
	}
}

// TestOnOffEnvelope checks the bursty baseline: every frame is either 0
// or exactly the peak-rate frame size, and the duty cycle realizes the
// requested mean load.
func TestOnOffEnvelope(t *testing.T) {
	src, err := New("onoff", 3)
	if err != nil {
		t.Fatal(err)
	}
	const frames = 1 << 16
	xs := collect(t, src, frames)
	peak := src.Meta().PeakBytes
	if !(peak > 0) {
		t.Fatalf("onoff PeakBytes = %v, want > 0", peak)
	}
	var on int
	for i, v := range xs {
		if v != 0 && math.Float64bits(v) != math.Float64bits(peak) {
			t.Fatalf("frame %d = %v, want 0 or peak %v", i, v, peak)
		}
		if v != 0 {
			on++
		}
	}
	duty := float64(on) / frames
	if math.Abs(duty-0.25) > 0.05 {
		t.Errorf("duty cycle = %.3f, want ≈ 0.25 (rate/peak)", duty)
	}
}

// TestFarimaMatchesStream pins the first zoo member to the serving
// path: the farima source must replay the stream package's
// Davies–Harte output frame for frame.
func TestFarimaMatchesStream(t *testing.T) {
	ctx := context.Background()
	const n = 8192
	src, err := New("farima:n=8192,block=1024", 21)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, src, n)

	st, err := stream.OpenCtx(ctx, stream.Config{
		Model:     core.Model{MuGamma: 27791, SigmaGamma: 6254, TailSlope: 12, Hurst: 0.8},
		N:         n,
		BlockSize: 1024,
		Backend:   backend.DaviesHarte,
		Seed:      SubSeed(21, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := stream.Collect(context.Background(), st)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("farima diverged from stream at frame %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestBlocksAdapter checks the BlockSource adaptation: n frames total,
// reused buffers, io.EOF at the end, and a live monitor probe.
func TestBlocksAdapter(t *testing.T) {
	src, err := New("gop", 13)
	if err != nil {
		t.Fatal(err)
	}
	const n, block = 10_000, 1024
	ad, err := Blocks(src, n, block)
	if err != nil {
		t.Fatal(err)
	}
	if ad.Len() != n {
		t.Fatalf("Len = %d, want %d", ad.Len(), n)
	}
	total := 0
	for {
		blk, err := ad.Next(context.Background())
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(blk) > block {
			t.Fatalf("block of %d frames, want ≤ %d", len(blk), block)
		}
		total += len(blk)
	}
	if total != n {
		t.Fatalf("adapter produced %d frames, want %d", total, n)
	}
	if ad.Pos() != n {
		t.Fatalf("Pos = %d, want %d", ad.Pos(), n)
	}
	p := ad.Probe()
	if p.N != int64(n) {
		t.Errorf("Probe().N = %d, want %d", p.N, n)
	}
	if !(p.Mean > 0) {
		t.Errorf("Probe().Mean = %v, want > 0", p.Mean)
	}

	// Cancellation surfaces as errs.ErrCancelled.
	src.Reset(13)
	ad2, err := Blocks(src, n, block)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ad2.Next(ctx); !errors.Is(err, errs.ErrCancelled) {
		t.Errorf("cancelled Next error = %v, want errs.ErrCancelled", err)
	}
}

// TestFitGoP calibrates the gop model from a synthetic coded sequence
// and checks the recovered per-type means.
func TestFitGoP(t *testing.T) {
	sizes := []float64{60000, 9000, 9000, 25000, 9000, 9000, 25000, 9000, 9000, 25000, 9000, 9000}
	types := []codec.FrameType{
		codec.FrameI, codec.FrameB, codec.FrameB, codec.FrameP,
		codec.FrameB, codec.FrameB, codec.FrameP, codec.FrameB,
		codec.FrameB, codec.FrameP, codec.FrameB, codec.FrameB,
	}
	p, err := FitGoP(sizes, types)
	if err != nil {
		t.Fatal(err)
	}
	if p["imean"] != 60000 || p["pmean"] != 25000 || p["bmean"] != 9000 {
		t.Errorf("FitGoP means = %v", p)
	}
	if _, err := New("gop", 1); err != nil {
		t.Fatal(err)
	}
	src, err := Lookup("gop")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.New(p, 1); err != nil {
		t.Errorf("gop rejects FitGoP params: %v", err)
	}

	if _, err := FitGoP(nil, nil); err == nil {
		t.Error("FitGoP(nil) succeeded, want error")
	}
	if _, err := FitGoP([]float64{1}, []codec.FrameType{codec.FrameB}); err == nil {
		t.Error("FitGoP without I/P frames succeeded, want error")
	}
}

// TestLoop checks the lagged-ring primitive the legacy mux path uses.
func TestLoop(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	src, err := Loop(vals, 3, 24)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, src, 7)
	want := []float64{4, 5, 1, 2, 3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("loop frame %d = %v, want %v", i, got[i], want[i])
		}
	}
	src.Reset(0)
	if v, _ := src.Next(context.Background()); v != 4 {
		t.Errorf("after Reset first frame = %v, want 4", v)
	}
	if _, err := Loop(nil, 0, 24); err == nil {
		t.Error("Loop(nil) succeeded, want error")
	}
	if _, err := Loop(vals, -1, 24); err == nil {
		t.Error("Loop(start=-1) succeeded, want error")
	}
}
