package synth

import (
	"context"
	"math"
	"testing"

	"vbr/internal/dist"
	"vbr/internal/lrd"
	"vbr/internal/stats"
)

// smallConfig returns a fast configuration for unit tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Frames = 30000
	cfg.SlicesPerFrame = 10
	return cfg
}

func TestValidateConfig(t *testing.T) {
	good := smallConfig()
	if err := good.validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Frames = 1 },
		func(c *Config) { c.FrameRate = 0 },
		func(c *Config) { c.Hurst = 1.2 },
		func(c *Config) { c.MeanBytes = -1 },
		func(c *Config) { c.StdBytes = 0 },
		func(c *Config) { c.TailSlope = 0 },
		func(c *Config) { c.MeanSceneFrames = 0 },
		func(c *Config) { c.MinSceneFrames = 0 },
		func(c *Config) { c.SliceJitter = 1 },
		func(c *Config) { c.TableSize = 1 },
		func(c *Config) { c.Effects = []Effect{{PosFrac: 2}} },
	}
	for i, mutate := range cases {
		c := smallConfig()
		mutate(&c)
		if err := c.validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestGenerateShape(t *testing.T) {
	ctx := context.Background()
	cfg := smallConfig()
	tr, err := Generate(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Frames) != cfg.Frames {
		t.Fatalf("frames %d", len(tr.Frames))
	}
	if len(tr.Slices) != cfg.Frames*cfg.SlicesPerFrame {
		t.Fatalf("slices %d", len(tr.Slices))
	}
	if tr.FrameRate != 24 {
		t.Errorf("frame rate %v", tr.FrameRate)
	}
	for i, v := range tr.Frames {
		if v <= 0 {
			t.Fatalf("nonpositive frame %v at %d", v, i)
		}
	}
}

func TestGenerateCalibration(t *testing.T) {
	ctx := context.Background()
	// The headline check: the synthetic trace must land near Table 2.
	cfg := DefaultConfig()
	cfg.Frames = 60000 // ~42 min is enough to test calibration
	cfg.SlicesPerFrame = 0
	tr, err := Generate(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := tr.FrameStats()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Mean-27791)/27791 > 0.10 {
		t.Errorf("mean %v not within 10%% of 27791", s.Mean)
	}
	if math.Abs(s.Std-6254)/6254 > 0.30 {
		t.Errorf("std %v not within 30%% of 6254", s.Std)
	}
	// Burstiness: peak/mean in the neighborhood of the paper's 2.82.
	if s.PeakMean < 1.8 || s.PeakMean > 4.5 {
		t.Errorf("peak/mean %v outside [1.8, 4.5]", s.PeakMean)
	}
	// Minimum is well above zero (the paper's 8622 is ~31%% of the mean).
	if s.Min < 0.1*s.Mean {
		t.Errorf("min %v implausibly low", s.Min)
	}
}

func TestGenerateIsLRD(t *testing.T) {
	ctx := context.Background()
	cfg := smallConfig()
	cfg.SlicesPerFrame = 0
	tr, err := Generate(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vt, err := lrd.VarianceTime(tr.Frames, 10, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if vt.H < 0.65 {
		t.Errorf("variance-time H = %v; trace not LRD", vt.H)
	}
	// Autocorrelation must remain positive and significant at long lags
	// (Fig. 7's behaviour), unlike an SRD process.
	r, err := stats.Autocorrelation(tr.Frames, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if r[500] < 0.05 {
		t.Errorf("acf at lag 500 = %v; decays too fast", r[500])
	}
}

func TestGenerateHeavyTail(t *testing.T) {
	ctx := context.Background()
	cfg := smallConfig()
	cfg.SlicesPerFrame = 0
	tr, err := Generate(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With the rank-based marginal map the finite-sample marginal is the
	// hybrid exactly, so a tail regression over the upper ~0.5% (inside
	// the Pareto region) must recover the configured slope.
	a, _, err := dist.FitParetoTail(tr.Frames, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	if a < 0.6*cfg.TailSlope || a > 1.6*cfg.TailSlope {
		t.Errorf("fitted tail slope %v, configured %v", a, cfg.TailSlope)
	}
}

func TestEffectsCreateNamedPeaks(t *testing.T) {
	ctx := context.Background()
	cfg := smallConfig()
	cfg.SlicesPerFrame = 0
	tr, err := Generate(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mean := stats.Mean(tr.Frames)
	for _, e := range cfg.Effects {
		if e.Z < 4 { // only the hard peaks are guaranteed to dominate
			continue
		}
		start := int(e.PosFrac * float64(cfg.Frames))
		peak := 0.0
		for t := start; t < start+e.Duration && t < cfg.Frames; t++ {
			if tr.Frames[t] > peak {
				peak = tr.Frames[t]
			}
		}
		if peak < 1.5*mean {
			t.Errorf("effect at %v: peak %v not elevated above mean %v", e.PosFrac, peak, mean)
		}
	}
}

func TestStoryArcVisibleInMovingAverage(t *testing.T) {
	ctx := context.Background()
	cfg := smallConfig()
	cfg.SlicesPerFrame = 0
	tr, err := Generate(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 2: long-window moving average varies substantially.
	ma, err := stats.MovingAverage(tr.Frames, 4000)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := ma[0], ma[0]
	for _, v := range ma {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if (hi-lo)/stats.Mean(tr.Frames) < 0.08 {
		t.Errorf("moving average swing %v too flat; no low-frequency content", (hi-lo)/stats.Mean(tr.Frames))
	}
}

func TestDeterminism(t *testing.T) {
	ctx := context.Background()
	cfg := smallConfig()
	cfg.Frames = 5000
	a, err := Generate(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Frames {
		if a.Frames[i] != b.Frames[i] {
			t.Fatal("same seed must reproduce identical trace")
		}
	}
	cfg.Seed++
	c, err := Generate(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Frames {
		if a.Frames[i] != c.Frames[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestScenesPartition(t *testing.T) {
	ctx := context.Background()
	cfg := smallConfig()
	cfg.Frames = 20000
	_, scenes, err := ActivityProcess(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pos := 0
	var dialogue int
	for _, sc := range scenes {
		if sc.Start != pos {
			t.Fatalf("scene gap at %d (start %d)", pos, sc.Start)
		}
		if sc.Length < 1 {
			t.Fatalf("empty scene at %d", sc.Start)
		}
		if sc.Dialogue {
			dialogue++
		}
		pos += sc.Length
	}
	if pos != cfg.Frames {
		t.Fatalf("scenes cover %d of %d frames", pos, cfg.Frames)
	}
	// Mean scene length should be near the configured 240 frames.
	meanLen := float64(cfg.Frames) / float64(len(scenes))
	if meanLen < 100 || meanLen > 500 {
		t.Errorf("mean scene length %v far from 240", meanLen)
	}
	// Roughly DialogueProb of scenes are dialogue.
	frac := float64(dialogue) / float64(len(scenes))
	if frac < 0.05 || frac > 0.5 {
		t.Errorf("dialogue fraction %v far from %v", frac, cfg.DialogueProb)
	}
}

func TestActivityProcessStandardized(t *testing.T) {
	ctx := context.Background()
	cfg := smallConfig()
	cfg.Frames = 20000
	z, _, err := ActivityProcess(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m := stats.Mean(z); math.Abs(m) > 1e-9 {
		t.Errorf("mean %v", m)
	}
	if v := stats.Variance(z); math.Abs(v-1) > 1e-9 {
		t.Errorf("variance %v", v)
	}
}

func TestMarginalMapMatchesDistribution(t *testing.T) {
	cfg := smallConfig()
	// Pure Gaussian input (no scene structure) should map to the hybrid
	// distribution closely.
	z := make([]float64, 50000)
	for i := range z {
		// Deterministic normal scores: Φ⁻¹((i+0.5)/n) shuffled not needed
		// since the marginal map is pointwise.
		z[i] = float64(i)
	}
	// Use equiprobable points to probe the map directly.
	for i := range z {
		z[i] = -4 + 8*float64(i)/float64(len(z)-1)
	}
	y, err := MarginalMap(z, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Monotone.
	for i := 1; i < len(y); i++ {
		if y[i] < y[i-1]-1e-9 {
			t.Fatalf("marginal map not monotone at %d", i)
		}
	}
	// Median maps near the hybrid median.
	mid := y[len(y)/2]
	if math.Abs(mid-27791) > 0.1*27791 {
		t.Errorf("median maps to %v, want ≈ 27791", mid)
	}
}

func TestStoryArcBounds(t *testing.T) {
	for u := 0.0; u <= 1.0; u += 0.001 {
		v := storyArc(u)
		if v < -1.2 || v > 1.2 {
			t.Fatalf("storyArc(%v) = %v out of range", u, v)
		}
	}
	if storyArc(0) != 0.9 || storyArc(1) != 1.0 {
		t.Error("endpoint values changed")
	}
}
