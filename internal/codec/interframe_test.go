package codec

import (
	"context"
	"math"
	"testing"

	"vbr/internal/stats"
)

func interTestConfig() InterCoderConfig {
	return InterCoderConfig{
		CoderConfig: CoderConfig{Width: 64, Height: 64, SlicesPerFrame: 4, QuantStep: 8},
		GOPSize:     6,
		SearchRange: 2,
	}
}

func TestInterCoderConfigValidation(t *testing.T) {
	good := interTestConfig()
	if _, err := NewInterCoder(good); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.GOPSize = 0
	if _, err := NewInterCoder(bad); err == nil {
		t.Error("GOP 0 should fail")
	}
	bad = good
	bad.SearchRange = -1
	if _, err := NewInterCoder(bad); err == nil {
		t.Error("negative search range should fail")
	}
	bad = good
	bad.Width = 13
	if _, err := NewInterCoder(bad); err == nil {
		t.Error("bad dimensions should fail")
	}
	if err := DefaultInterCoderConfig().validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

// renderSequence produces a short scene with slow motion.
func renderSequence(t *testing.T, n int, activity float64) []*Frame {
	t.Helper()
	frames := make([]*Frame, n)
	for i := range frames {
		f, err := NewFrame(64, 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := RenderFrame(f, RenderParams{Activity: activity, SceneID: 99, FrameInScene: i}); err != nil {
			t.Fatal(err)
		}
		frames[i] = f
	}
	return frames
}

func TestPFramesSmallerThanIFrames(t *testing.T) {
	// The defining property of interframe coding: predicted frames of a
	// static-ish scene cost far fewer bits than intra frames.
	coder, err := NewInterCoder(interTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	seq := renderSequence(t, 12, 0.5)
	if err := coder.TrainOn(seq); err != nil {
		t.Fatal(err)
	}
	coder.Reset()
	var iBits, pBits, iCnt, pCnt int
	for i, f := range seq {
		bits, intra, err := coder.CodeFrame(f, i)
		if err != nil {
			t.Fatal(err)
		}
		var total int
		for _, b := range bits {
			total += b
		}
		if intra {
			iBits += total
			iCnt++
		} else {
			pBits += total
			pCnt++
		}
		if (i%6 == 0) != intra {
			t.Fatalf("frame %d intra flag %v inconsistent with GOP", i, intra)
		}
	}
	if iCnt == 0 || pCnt == 0 {
		t.Fatal("missing frame types")
	}
	avgI := float64(iBits) / float64(iCnt)
	avgP := float64(pBits) / float64(pCnt)
	if avgP >= 0.7*avgI {
		t.Errorf("P frames (%.0f bits) not much smaller than I frames (%.0f bits)", avgP, avgI)
	}
}

func TestMotionCompensationHelps(t *testing.T) {
	// With the renderer's phase drift, motion search should reduce
	// P-frame bits relative to pure differencing.
	seq := renderSequence(t, 8, 0.6)
	code := func(search int) float64 {
		cfg := interTestConfig()
		cfg.SearchRange = search
		coder, err := NewInterCoder(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := coder.TrainOn(seq); err != nil {
			t.Fatal(err)
		}
		coder.Reset()
		var pBits int
		for i, f := range seq {
			bits, intra, err := coder.CodeFrame(f, i)
			if err != nil {
				t.Fatal(err)
			}
			if intra {
				continue
			}
			for _, b := range bits {
				pBits += b
			}
		}
		return float64(pBits)
	}
	noMC := code(0)
	withMC := code(3)
	if withMC >= noMC {
		t.Errorf("motion compensation did not reduce bits: %v vs %v", withMC, noMC)
	}
}

func TestBestMotionFindsTranslation(t *testing.T) {
	// Construct cur as ref shifted by (+2, +1): the search must find it.
	cfg := interTestConfig()
	coder, err := NewInterCoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]float64, 64*64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			ref[y*64+x] = float64((x*7 + y*13) % 251)
		}
	}
	cur, _ := NewFrame(64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			sx, sy := x+2, y+1
			if sx >= 64 {
				sx -= 64
			}
			if sy >= 64 {
				sy -= 64
			}
			cur.Pix[y*64+x] = uint8(int(ref[sy*64+sx]))
		}
	}
	// An interior block away from wrap edges.
	dx, dy := coder.bestMotion(ref, cur, 24, 24)
	if dx != 2 || dy != 1 {
		t.Errorf("motion (%d,%d), want (2,1)", dx, dy)
	}
}

func TestInterframeTraceSignatures(t *testing.T) {
	ctx := context.Background()
	// End-to-end: the interframe trace must show (1) better compression
	// than intraframe on the same material and (2) GOP-periodic rate
	// oscillation (autocorrelation peak at the GOP lag).
	scfg := synthSmall()
	scfg.Frames = 240

	intra, err := NewCoder(CoderConfig{Width: 64, Height: 64, SlicesPerFrame: 4, QuantStep: 8})
	if err != nil {
		t.Fatal(err)
	}
	intraTr, err := intra.GenerateTrace(ctx, scfg, 12)
	if err != nil {
		t.Fatal(err)
	}

	icfg := interTestConfig()
	inter, err := NewInterCoder(icfg)
	if err != nil {
		t.Fatal(err)
	}
	interTr, err := inter.GenerateTrace(ctx, scfg, 24)
	if err != nil {
		t.Fatal(err)
	}

	mi := stats.Mean(intraTr.Frames)
	mp := stats.Mean(interTr.Frames)
	if mp >= 0.8*mi {
		t.Errorf("interframe mean %v not well below intraframe %v", mp, mi)
	}

	// GOP periodicity: acf at the GOP lag exceeds acf at GOP±2 lags.
	r, err := stats.Autocorrelation(interTr.Frames, 20)
	if err != nil {
		t.Fatal(err)
	}
	gop := icfg.GOPSize
	if !(r[gop] > r[gop-2] && r[gop] > r[gop+2]) {
		t.Errorf("no GOP periodicity: r[%d]=%v r[%d]=%v r[%d]=%v",
			gop-2, r[gop-2], gop, r[gop], gop+2, r[gop+2])
	}

	// Higher burstiness (peak/mean) than intraframe, per §2.
	si, err := stats.Summarize(intraTr.Frames)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := stats.Summarize(interTr.Frames)
	if err != nil {
		t.Fatal(err)
	}
	if sp.PeakMean <= si.PeakMean {
		t.Errorf("interframe peak/mean %v not above intraframe %v", sp.PeakMean, si.PeakMean)
	}

	if _, err := inter.GenerateTrace(ctx, scfg, 0); err == nil {
		t.Error("0 training frames should fail")
	}
}

func TestCodeFrameSizeMismatch(t *testing.T) {
	coder, _ := NewInterCoder(interTestConfig())
	small, _ := NewFrame(32, 32)
	if _, _, err := coder.CodeFrame(small, 0); err == nil {
		t.Error("size mismatch should fail")
	}
}

func TestIntLog2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 17: 5}
	for n, want := range cases {
		if got := intLog2(n); got != want {
			t.Errorf("intLog2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestTrainOnEmpty(t *testing.T) {
	coder, _ := NewInterCoder(interTestConfig())
	if err := coder.TrainOn(nil); err == nil {
		t.Error("empty training set should fail")
	}
}

func TestInterframeDeterminism(t *testing.T) {
	ctx := context.Background()
	scfg := synthSmall()
	scfg.Frames = 60
	gen := func() []float64 {
		coder, err := NewInterCoder(interTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		tr, err := coder.GenerateTrace(ctx, scfg, 12)
		if err != nil {
			t.Fatal(err)
		}
		return tr.Frames
	}
	a, b := gen(), gen()
	for i := range a {
		if math.Abs(a[i]-b[i]) > 0 {
			t.Fatal("interframe trace generation not deterministic")
		}
	}
}
