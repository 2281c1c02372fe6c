package codec

import (
	"context"
	"testing"

	"vbr/internal/stats"
)

func bTestConfig() InterCoderConfig {
	return InterCoderConfig{
		CoderConfig: CoderConfig{Width: 64, Height: 64, SlicesPerFrame: 4, QuantStep: 8},
		GOPSize:     6,
		SearchRange: 2,
		BFrames:     2,
	}
}

func TestBFrameConfigValidation(t *testing.T) {
	good := bTestConfig()
	if _, err := NewInterCoder(good); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.BFrames = -1
	if _, err := NewInterCoder(bad); err == nil {
		t.Error("negative BFrames should fail")
	}
	bad = good
	bad.BFrames = 4 // GOP 6 % 5 != 0
	if _, err := NewInterCoder(bad); err == nil {
		t.Error("GOP not divisible by BFrames+1 should fail")
	}
	if err := DefaultInterCoderConfig().validate(); err != nil {
		t.Errorf("default config with B frames invalid: %v", err)
	}
}

func TestFrameTypePattern(t *testing.T) {
	coder, err := NewInterCoder(bTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	// GOP 6, 2 B frames: display pattern I B B P B B | I B B P B B …
	want := []FrameType{'I', 'B', 'B', 'P', 'B', 'B', 'I', 'B', 'B', 'P', 'B', 'B'}
	for t2, w := range want {
		if got := coder.frameTypeAt(t2); got != w {
			t.Errorf("frame %d: type %c, want %c", t2, got, w)
		}
	}
}

func TestCodeSequenceTypesAndSizes(t *testing.T) {
	coder, err := NewInterCoder(bTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	seq := renderSequence(t, 14, 0.5)
	if err := coder.TrainOn(seq); err != nil {
		t.Fatal(err)
	}
	bits, types, err := coder.CodeSequence(seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(bits) != 14 || len(types) != 14 {
		t.Fatalf("shape %d/%d", len(bits), len(types))
	}
	var iSum, pSum, bSum float64
	var iC, pC, bC int
	for t2 := range bits {
		if bits[t2] == nil {
			t.Fatalf("frame %d not coded", t2)
		}
		var total float64
		for _, b := range bits[t2] {
			total += float64(b)
		}
		if total <= 0 {
			t.Fatalf("frame %d has %v bits", t2, total)
		}
		switch types[t2] {
		case FrameI:
			iSum += total
			iC++
		case FrameP:
			pSum += total
			pC++
		case FrameB:
			bSum += total
			bC++
		default:
			t.Fatalf("frame %d has type %c", t2, types[t2])
		}
		if want := coder.frameTypeAt(t2); t2 < 12 && types[t2] != want {
			t.Errorf("frame %d: type %c, want %c", t2, types[t2], want)
		}
	}
	if iC == 0 || pC == 0 || bC == 0 {
		t.Fatalf("frame type counts I=%d P=%d B=%d", iC, pC, bC)
	}
	// MPEG size ordering on near-static material: B ≤ P < I on average.
	avgI, avgP, avgB := iSum/float64(iC), pSum/float64(pC), bSum/float64(bC)
	if !(avgB <= avgP*1.1 && avgP < avgI) {
		t.Errorf("size ordering violated: I=%.0f P=%.0f B=%.0f", avgI, avgP, avgB)
	}
}

func TestCodeSequenceEmpty(t *testing.T) {
	coder, _ := NewInterCoder(bTestConfig())
	if _, _, err := coder.CodeSequence(nil); err == nil {
		t.Error("empty sequence should fail")
	}
}

func TestCodeBFrameNoReferences(t *testing.T) {
	coder, _ := NewInterCoder(bTestConfig())
	f, _ := NewFrame(64, 64)
	if _, err := coder.codeBFrame(f, nil, nil); err == nil {
		t.Error("B frame without references should fail")
	}
}

func TestCodeSequenceNoBFramesMatchesStreaming(t *testing.T) {
	// With BFrames = 0 the sequence coder must reproduce the plain
	// streaming CodeFrame results exactly.
	cfg := bTestConfig()
	cfg.BFrames = 0
	seq := renderSequence(t, 10, 0.4)

	a, err := NewInterCoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.TrainOn(seq); err != nil {
		t.Fatal(err)
	}
	bitsSeq, _, err := a.CodeSequence(seq)
	if err != nil {
		t.Fatal(err)
	}

	b, err := NewInterCoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.TrainOn(seq); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	for t2, f := range seq {
		bits, _, err := b.CodeFrame(f, t2)
		if err != nil {
			t.Fatal(err)
		}
		for s := range bits {
			if bits[s] != bitsSeq[t2][s] {
				t.Fatalf("frame %d slice %d: %d vs %d", t2, s, bits[s], bitsSeq[t2][s])
			}
		}
	}
}

func TestBFramesGenerateTrace(t *testing.T) {
	ctx := context.Background()
	// End-to-end with B frames: trace generated, GOP-periodic, and B
	// frames visible as the smallest frames.
	scfg := synthSmall()
	scfg.Frames = 120
	coder, err := NewInterCoder(bTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := coder.GenerateTrace(ctx, scfg, 24)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Frames) != 120 {
		t.Fatalf("frames %d", len(tr.Frames))
	}
	for i, v := range tr.Frames {
		if v <= 0 {
			t.Fatalf("frame %d empty", i)
		}
	}
	// The 3-frame reference spacing shows up as an acf peak at lag 3.
	r, err := stats.Autocorrelation(tr.Frames, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !(r[3] > r[2] && r[3] > r[4]) {
		t.Errorf("no mini-GOP periodicity: r2=%v r3=%v r4=%v", r[2], r[3], r[4])
	}
}
