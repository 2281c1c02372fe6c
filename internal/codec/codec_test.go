package codec

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"vbr/internal/errs"
	"vbr/internal/synth"
	"vbr/internal/trace"
)

func TestDCTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var src, freq, back Block
	for y := range src {
		for x := range src[y] {
			src[y][x] = rng.Float64()*255 - 128
		}
	}
	ForwardDCT(&freq, &src)
	InverseDCT(&back, &freq)
	for y := range src {
		for x := range src[y] {
			if math.Abs(back[y][x]-src[y][x]) > 1e-9 {
				t.Fatalf("round trip error at (%d,%d): %v vs %v", x, y, back[y][x], src[y][x])
			}
		}
	}
}

func TestDCTConstantBlockIsDCOnly(t *testing.T) {
	var src, freq Block
	for y := range src {
		for x := range src[y] {
			src[y][x] = 100
		}
	}
	ForwardDCT(&freq, &src)
	// DC = 8 · 100 for the orthonormal transform.
	if math.Abs(freq[0][0]-800) > 1e-9 {
		t.Errorf("DC = %v, want 800", freq[0][0])
	}
	for y := range freq {
		for x := range freq[y] {
			if x == 0 && y == 0 {
				continue
			}
			if math.Abs(freq[y][x]) > 1e-9 {
				t.Errorf("AC(%d,%d) = %v, want 0", x, y, freq[y][x])
			}
		}
	}
}

func TestDCTParseval(t *testing.T) {
	// Orthonormal transform preserves energy.
	rng := rand.New(rand.NewPCG(3, 4))
	var src, freq Block
	var es, ef float64
	for y := range src {
		for x := range src[y] {
			src[y][x] = rng.NormFloat64() * 50
			es += src[y][x] * src[y][x]
		}
	}
	ForwardDCT(&freq, &src)
	for y := range freq {
		for x := range freq[y] {
			ef += freq[y][x] * freq[y][x]
		}
	}
	if math.Abs(es-ef) > 1e-6*es {
		t.Errorf("energy not preserved: %v vs %v", es, ef)
	}
}

func TestDCTSingleGratingConcentrates(t *testing.T) {
	// A pure horizontal cosine at basis frequency u0 lights exactly one
	// coefficient row.
	const u0 = 3
	var src, freq Block
	for y := range src {
		for x := range src[y] {
			src[y][x] = 100 * math.Cos((2*float64(x)+1)*u0*math.Pi/16)
		}
	}
	ForwardDCT(&freq, &src)
	peak := math.Abs(freq[0][u0])
	for y := range freq {
		for x := range freq[y] {
			if y == 0 && x == u0 {
				continue
			}
			if math.Abs(freq[y][x]) > 1e-6*peak {
				t.Errorf("leakage at (%d,%d): %v", x, y, freq[y][x])
			}
		}
	}
}

func TestZigzagIsPermutation(t *testing.T) {
	seen := map[[2]int]bool{}
	for _, rc := range zigzag {
		if rc[0] < 0 || rc[0] >= BlockSize || rc[1] < 0 || rc[1] >= BlockSize {
			t.Fatalf("out of range: %v", rc)
		}
		if seen[rc] {
			t.Fatalf("duplicate position %v", rc)
		}
		seen[rc] = true
	}
	if len(seen) != 64 {
		t.Fatalf("covered %d positions", len(seen))
	}
	// Canonical JPEG start: (0,0), (0,1), (1,0), (2,0), (1,1), (0,2).
	want := [][2]int{{0, 0}, {0, 1}, {1, 0}, {2, 0}, {1, 1}, {0, 2}}
	for i, w := range want {
		if zigzag[i] != w {
			t.Fatalf("zigzag[%d] = %v, want %v", i, zigzag[i], w)
		}
	}
}

func TestQuantizeDequantize(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	var src Block
	for y := range src {
		for x := range src[y] {
			src[y][x] = rng.Float64()*400 - 200
		}
	}
	var levels [64]int32
	var back Block
	Quantize(&src, 10, &levels)
	Dequantize(&levels, 10, &back)
	for y := range src {
		for x := range src[y] {
			if math.Abs(back[y][x]-src[y][x]) > 5+1e-9 { // half a step
				t.Fatalf("quantization error too large at (%d,%d)", x, y)
			}
		}
	}
}

func TestRunLengthRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		var levels, back [64]int32
		// Sparse levels, as after quantization.
		for i := range levels {
			if rng.Float64() < 0.2 {
				levels[i] = int32(rng.IntN(2001) - 1000)
			}
		}
		syms := RunLengthEncode(&levels, nil)
		if len(syms) == 0 || syms[len(syms)-1] != EOB {
			return false
		}
		if !RunLengthDecode(syms, &back) {
			return false
		}
		return levels == back
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRunLengthAllZeroBlock(t *testing.T) {
	var levels [64]int32
	syms := RunLengthEncode(&levels, nil)
	if len(syms) != 1 || syms[0] != EOB {
		t.Fatalf("all-zero block should be a lone EOB, got %v", syms)
	}
}

func TestRunLengthDecodeMalformed(t *testing.T) {
	var out [64]int32
	// Missing EOB.
	if RunLengthDecode([]RunLevel{{Run: 0, Level: 5}}, &out) {
		t.Error("missing EOB should fail")
	}
	// Overflowing run.
	if RunLengthDecode([]RunLevel{{Run: 64, Level: 5}, EOB}, &out) {
		t.Error("overflow should fail")
	}
}

func TestSizeOf(t *testing.T) {
	cases := []struct {
		level int32
		want  int
	}{{0, 0}, {1, 1}, {-1, 1}, {2, 2}, {3, 2}, {-3, 2}, {4, 3}, {255, 8}, {-256, 9}, {1023, 10}}
	for _, c := range cases {
		if got := sizeOf(c.level); got != c.want {
			t.Errorf("sizeOf(%d) = %d, want %d", c.level, got, c.want)
		}
	}
}

func TestAmplitudeBitsRoundTrip(t *testing.T) {
	for level := int32(-1000); level <= 1000; level++ {
		if level == 0 {
			continue
		}
		size := sizeOf(level)
		bits := amplitudeBits(level, size)
		if got := decodeAmplitude(bits, size); got != level {
			t.Fatalf("amplitude round trip failed for %d: got %d", level, got)
		}
	}
}

func TestHuffmanRoundTripSymbols(t *testing.T) {
	// Train a table on a skewed distribution, then round-trip symbol
	// streams through the bit codec.
	freq := make([]uint64, numSyms)
	for i := range freq {
		freq[i] = uint64(1 + i%17)
	}
	freq[symEOB] = 5000
	tab, err := NewHuffmanTable(freq)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(11, 12))
	for trial := 0; trial < 100; trial++ {
		var levels [64]int32
		for i := range levels {
			if rng.Float64() < 0.25 {
				levels[i] = int32(rng.IntN(501) - 250)
			}
		}
		syms := RunLengthEncode(&levels, nil)
		w := &BitWriter{}
		bits, err := tab.EncodeSymbols(syms, w)
		if err != nil {
			t.Fatal(err)
		}
		counted, err := tab.CountBits(syms)
		if err != nil {
			t.Fatal(err)
		}
		if bits != counted {
			t.Fatalf("CountBits %d != encoded %d", counted, bits)
		}
		got, err := tab.DecodeSymbols(NewBitReader(w.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var back [64]int32
		if !RunLengthDecode(got, &back) {
			t.Fatal("decode failed")
		}
		if back != levels {
			t.Fatalf("trial %d: level mismatch", trial)
		}
	}
}

func TestHuffmanOptimality(t *testing.T) {
	// A heavily skewed distribution must give the frequent symbol a short
	// code: EOB with 90% of mass gets ≤ 2 bits.
	freq := make([]uint64, numSyms)
	for i := range freq {
		freq[i] = 1
	}
	freq[symEOB] = 1 << 40
	tab, err := NewHuffmanTable(freq)
	if err != nil {
		t.Fatal(err)
	}
	if l := tab.CodeLength(symEOB); l > 2 {
		t.Errorf("EOB code length %d, want ≤ 2", l)
	}
}

func TestHuffmanKraft(t *testing.T) {
	// Kraft equality for a complete code: Σ 2^{-len} = 1.
	freq := make([]uint64, numSyms)
	for i := range freq {
		freq[i] = uint64(1+i) * uint64(1+i%13)
	}
	tab, err := NewHuffmanTable(freq)
	if err != nil {
		t.Fatal(err)
	}
	var kraft float64
	for s := 0; s < numSyms; s++ {
		l := tab.CodeLength(s)
		if l == 0 {
			t.Fatalf("symbol %d has no code", s)
		}
		kraft += math.Pow(2, -float64(l))
	}
	if math.Abs(kraft-1) > 1e-12 {
		t.Errorf("Kraft sum %v, want 1", kraft)
	}
}

func TestBitWriterReader(t *testing.T) {
	w := &BitWriter{}
	w.WriteBits(0b101, 3)
	w.WriteBits(0b0110, 4)
	w.WriteBits(0xABCD, 16)
	if w.Len() != 23 {
		t.Fatalf("len %d", w.Len())
	}
	r := NewBitReader(w.Bytes())
	if v, _ := r.ReadBits(3); v != 0b101 {
		t.Errorf("first read %b", v)
	}
	if v, _ := r.ReadBits(4); v != 0b0110 {
		t.Errorf("second read %b", v)
	}
	if v, _ := r.ReadBits(16); v != 0xABCD {
		t.Errorf("third read %x", v)
	}
	// Exhaustion after padding bits.
	if _, err := r.ReadBits(2); err == nil {
		t.Error("reading past end should eventually fail")
	}
}

func TestFrameValidation(t *testing.T) {
	if _, err := NewFrame(0, 8); err == nil {
		t.Error("zero width should fail")
	}
	if _, err := NewFrame(12, 8); err == nil {
		t.Error("non-multiple width should fail")
	}
	f, err := NewFrame(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	f.Set(3, 2, 200)
	if f.At(3, 2) != 200 {
		t.Error("set/get failed")
	}
}

func TestRenderFrameActivityMonotonicity(t *testing.T) {
	// Higher activity must produce more coded bits — the key coupling
	// between the activity process and the bandwidth trace.
	cfg := CoderConfig{Width: 64, Height: 64, SlicesPerFrame: 4, QuantStep: 8}
	coder, err := NewCoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := NewFrame(64, 64)
	var prev int
	for i, a := range []float64{0.05, 0.35, 0.65, 0.95} {
		if err := RenderFrame(f, RenderParams{Activity: a, SceneID: 42, FrameInScene: 0}); err != nil {
			t.Fatal(err)
		}
		bits, err := coder.CodeFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		var total int
		for _, b := range bits {
			total += b
		}
		if i > 0 && total <= prev {
			t.Errorf("activity %v gave %d bits, not more than %d", a, total, prev)
		}
		prev = total
	}
}

func TestRenderFrameValidation(t *testing.T) {
	f, _ := NewFrame(16, 16)
	if err := RenderFrame(f, RenderParams{Activity: 1.5}); err == nil {
		t.Error("activity > 1 should fail")
	}
	if err := RenderFrame(f, RenderParams{Activity: math.NaN()}); err == nil {
		t.Error("NaN activity should fail")
	}
}

func TestCoderConfigValidation(t *testing.T) {
	bad := []CoderConfig{
		{Width: 0, Height: 64, SlicesPerFrame: 4, QuantStep: 8},
		{Width: 12, Height: 64, SlicesPerFrame: 4, QuantStep: 8},
		{Width: 64, Height: 64, SlicesPerFrame: 3, QuantStep: 8}, // 8 rows % 3 != 0
		{Width: 64, Height: 64, SlicesPerFrame: 4, QuantStep: 0},
	}
	for i, cfg := range bad {
		if _, err := NewCoder(cfg); err == nil {
			t.Errorf("config %d should fail: %+v", i, cfg)
		}
	}
	if err := DefaultCoderConfig().validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestFrameEncodeDecodeRoundTrip(t *testing.T) {
	cfg := CoderConfig{Width: 64, Height: 64, SlicesPerFrame: 4, QuantStep: 8}
	coder, err := NewCoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, _ := NewFrame(64, 64)
	if err := RenderFrame(src, RenderParams{Activity: 0.6, SceneID: 7, FrameInScene: 3}); err != nil {
		t.Fatal(err)
	}
	if err := coder.Train([]*Frame{src}); err != nil {
		t.Fatal(err)
	}
	stream, err := coder.EncodeFrame(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coder.DecodeFrame(stream)
	if err != nil {
		t.Fatal(err)
	}
	// Lossy only through quantization: max pixel error bounded by the
	// step size times the worst-case DCT amplification (≈ step·8).
	var maxErr, sumSq float64
	for i := range src.Pix {
		e := math.Abs(float64(src.Pix[i]) - float64(got.Pix[i]))
		maxErr = math.Max(maxErr, e)
		sumSq += e * e
	}
	rmse := math.Sqrt(sumSq / float64(len(src.Pix)))
	if rmse > 4 {
		t.Errorf("RMSE %v too high for step 8", rmse)
	}
	if maxErr > 32 {
		t.Errorf("max pixel error %v", maxErr)
	}
}

func TestCodeFrameSliceAccounting(t *testing.T) {
	cfg := CoderConfig{Width: 64, Height: 64, SlicesPerFrame: 8, QuantStep: 8}
	coder, _ := NewCoder(cfg)
	f, _ := NewFrame(64, 64)
	if err := RenderFrame(f, RenderParams{Activity: 0.5, SceneID: 1}); err != nil {
		t.Fatal(err)
	}
	bits, err := coder.CodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(bits) != 8 {
		t.Fatalf("slice count %d", len(bits))
	}
	var total int
	for _, b := range bits {
		if b <= 0 {
			t.Errorf("slice with %d bits", b)
		}
		total += b
	}
	// Cross-check against the actual bitstream length.
	stream, err := coder.EncodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	streamBits := len(stream) * 8 // padded to byte
	if total > streamBits || streamBits-total > 7 {
		t.Errorf("CountBits total %d vs stream %d bits", total, streamBits)
	}
	// Wrong-size frame rejected.
	small, _ := NewFrame(32, 32)
	if _, err := coder.CodeFrame(small); err == nil {
		t.Error("frame size mismatch should fail")
	}
}

// cancelAfter is a context whose Err turns non-nil once it has been
// called n times, so a test can cancel a run part-way without timing.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestGenerateTraceCancelledMidRun pins that both coders check the
// context once per coded frame: a context that turns cancelled 50
// checks after the activity process finished stops the frame loop with
// an error matching errs.ErrCancelled.
func TestGenerateTraceCancelledMidRun(t *testing.T) {
	scfg := synthSmall()
	probe := &cancelAfter{Context: context.Background(), n: math.MaxInt}
	if _, _, err := synth.ActivityProcess(probe, scfg); err != nil {
		t.Fatal(err)
	}
	activityChecks := math.MaxInt - probe.n
	ccfg := CoderConfig{Width: 64, Height: 64, SlicesPerFrame: 4, QuantStep: 8}
	intra, err := NewCoder(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	inter, err := NewInterCoder(InterCoderConfig{CoderConfig: ccfg, GOPSize: 12, SearchRange: 2})
	if err != nil {
		t.Fatal(err)
	}
	for name, gen := range map[string]func(context.Context) (*trace.Trace, error){
		"intra": func(ctx context.Context) (*trace.Trace, error) { return intra.GenerateTrace(ctx, scfg, 8) },
		"inter": func(ctx context.Context) (*trace.Trace, error) { return inter.GenerateTrace(ctx, scfg, 8) },
	} {
		ctx := &cancelAfter{Context: context.Background(), n: activityChecks + 50}
		if _, err := gen(ctx); !errors.Is(err, errs.ErrCancelled) {
			t.Errorf("%s: got %v, want ErrCancelled", name, err)
		}
	}
}

func TestGenerateTraceSmall(t *testing.T) {
	ctx := context.Background()
	// End-to-end: synthetic movie → real coder → trace.
	codecCfg := CoderConfig{Width: 64, Height: 64, SlicesPerFrame: 4, QuantStep: 8}
	coder, err := NewCoder(codecCfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg := synthSmall()
	tr, err := coder.GenerateTrace(ctx, scfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Frames) != scfg.Frames {
		t.Fatalf("frames %d", len(tr.Frames))
	}
	if len(tr.Slices) != scfg.Frames*4 {
		t.Fatalf("slices %d", len(tr.Slices))
	}
	s, err := tr.FrameStats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Min <= 0 {
		t.Error("coded frames must have positive size")
	}
	if s.CoV < 0.05 {
		t.Errorf("coded trace CoV %v too smooth; activity not driving bitrate", s.CoV)
	}
	// Compression must actually compress.
	ratio, err := coder.CompressionRatio(tr)
	if err != nil {
		t.Fatal(err)
	}
	if ratio < 1.5 {
		t.Errorf("compression ratio %v", ratio)
	}
	if _, err := coder.GenerateTrace(ctx, scfg, 0); err == nil {
		t.Error("0 training frames should fail")
	}
}
