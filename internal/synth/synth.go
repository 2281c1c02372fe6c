// Package synth generates the scene-structured synthetic "movie" activity
// trace that substitutes for the paper's 2-hour Star Wars capture (the
// published dataset at thumper.bellcore.com is long gone and this module
// is offline).
//
// The construction mirrors the intuition of §3.2.1 of the paper — "within
// each scene there is random movement ... changes of camera angle alter
// the general level ... scenes occur in clusters" — and is built so that
// every statistical property the paper measures is present by
// construction:
//
//  1. A fractional ARIMA(0, d, 0) process with d = H − 1/2, the model's
//     own Gaussian process (§4), provides the long-range dependent
//     activity backbone (clustering of scene complexity across all time
//     scales).
//  2. The backbone is held approximately constant within scenes whose
//     durations are lognormally distributed, giving the "practically
//     constant level" short-range behaviour §4.2 describes; a fraction of
//     scenes alternate between two levels like cross-cut dialogue shots.
//  3. A small deterministic "story arc" adds the Fig. 2 low-frequency
//     shape (intense intro, placid second quarter, climactic finale), and
//     a configurable list of special-effect events reproduces Fig. 1's
//     named peaks ("jump to hyperspace", planet explosion, finale).
//  4. The resulting Gaussian series is re-standardized and mapped through
//     the inverse hybrid Gamma/Pareto CDF (Eq. 13) so the marginal
//     distribution has the Gamma body and Pareto tail of Figs. 4–6 with
//     the Table 2 moments.
//
// Because the marginal transform is monotone it preserves the ordinal
// (and to close approximation the linear) correlation structure, so the
// measured H of the output matches the backbone's H — the same argument
// the paper makes for its own generator.
package synth

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"vbr/internal/backend"
	"vbr/internal/dist"
	"vbr/internal/fgn"
	"vbr/internal/trace"
)

// Effect is a deterministic special-effects event: a burst of very high
// spatial complexity (e.g. the paper's "jump to hyperspace").
type Effect struct {
	PosFrac  float64 // position in the movie as a fraction of its length
	Duration int     // frames
	Z        float64 // activity level in standard-normal units (3.5–4.5 ≈ Pareto tail)
}

// Config parameterizes the synthetic movie.
type Config struct {
	Frames         int     // number of frames (the paper's trace: 171,000)
	FrameRate      float64 // frames per second (24)
	SlicesPerFrame int     // slices per frame (30); 0 disables slice data

	Hurst     float64 // long-range dependence of the activity backbone
	MeanBytes float64 // μ_Γ: Gamma-body mean, bytes per frame
	StdBytes  float64 // σ_Γ: Gamma-body standard deviation
	TailSlope float64 // m_T: Pareto tail index of the marginal

	MeanSceneFrames float64 // average scene duration in frames
	SceneSigma      float64 // lognormal σ of scene durations
	MinSceneFrames  int     // shortest allowed scene
	WithinSceneJit  float64 // AR(1) jitter amplitude inside a scene (Z units)
	FrameNoise      float64 // white frame-to-frame noise (grain/coder noise, Z units)
	DialogueProb    float64 // fraction of scenes that alternate two levels
	DialogueDelta   float64 // level separation of alternating shots (Z units)

	ArcAmplitude float64  // story-arc modulation amplitude (Z units)
	Effects      []Effect // deterministic special-effect bursts

	SliceJitter float64 // within-frame slice size jitter in [0,1)
	TableSize   int     // quantile-table resolution for the marginal map

	// Backend selects the engine behind the activity backbone; every
	// engine draws fARIMA(0, d, 0).
	// DefaultConfig picks Davies–Harte (exact and fast at movie length);
	// the zero value is Hosking, the exact reference (O(n log² n)). Auto defers
	// to the batch policy: exact below the cutoff, Paxson above.
	Backend backend.Backend

	Seed uint64
}

// DefaultConfig returns the configuration calibrated to Tables 1–2 of the
// paper: 171,000 frames at 24 fps, 30 slices per frame, H = 0.8,
// μ = 27,791 and σ = 6,254 bytes/frame, and a Pareto tail slope of 12
// (which puts ≈1% of mass in the tail and reproduces the observed
// peak/mean ratio of ≈2.8 at this trace length).
func DefaultConfig() Config {
	return Config{
		Frames:          171000,
		FrameRate:       24,
		SlicesPerFrame:  30,
		Hurst:           0.8,
		MeanBytes:       27791,
		StdBytes:        6254,
		TailSlope:       12,
		MeanSceneFrames: 240, // 10 seconds
		SceneSigma:      0.8,
		MinSceneFrames:  12, // half a second
		WithinSceneJit:  0.18,
		FrameNoise:      0.22,
		DialogueProb:    0.2,
		DialogueDelta:   0.35,
		ArcAmplitude:    0.35,
		Effects: []Effect{
			{PosFrac: 0.004, Duration: 1008, Z: 2.8}, // opening text crawl, 42 s
			{PosFrac: 0.45, Duration: 120, Z: 4.2},   // jump to hyperspace
			{PosFrac: 0.50, Duration: 96, Z: 4.5},    // planet explosion
			{PosFrac: 0.55, Duration: 120, Z: 4.2},   // jump from hyperspace
			{PosFrac: 0.958, Duration: 240, Z: 4.4},  // Death Star explosion, 10 s
		},
		SliceJitter: 0.3,
		TableSize:   10000, // the paper's marginal-map table size
		Backend:     backend.DaviesHarte,
		Seed:        1994,
	}
}

// validate checks a Config for structural sanity.
func (c *Config) validate() error {
	switch {
	case c.Frames < 2:
		return fmt.Errorf("synth: need ≥ 2 frames, got %d", c.Frames)
	case c.FrameRate <= 0:
		return fmt.Errorf("synth: frame rate must be positive, got %v", c.FrameRate)
	case !(c.Hurst > 0 && c.Hurst < 1):
		return fmt.Errorf("synth: Hurst must be in (0,1), got %v", c.Hurst)
	case c.MeanBytes <= 0 || c.StdBytes <= 0:
		return fmt.Errorf("synth: mean/std must be positive, got %v/%v", c.MeanBytes, c.StdBytes)
	case c.TailSlope <= 0:
		return fmt.Errorf("synth: tail slope must be positive, got %v", c.TailSlope)
	case c.MeanSceneFrames < 1:
		return fmt.Errorf("synth: mean scene length must be ≥ 1 frame, got %v", c.MeanSceneFrames)
	case c.MinSceneFrames < 1:
		return fmt.Errorf("synth: min scene length must be ≥ 1 frame, got %d", c.MinSceneFrames)
	case c.FrameNoise < 0:
		return fmt.Errorf("synth: frame noise must be ≥ 0, got %v", c.FrameNoise)
	case c.SliceJitter < 0 || c.SliceJitter >= 1:
		return fmt.Errorf("synth: slice jitter must be in [0,1), got %v", c.SliceJitter)
	case c.TableSize < 2:
		return fmt.Errorf("synth: table size must be ≥ 2, got %d", c.TableSize)
	}
	if err := c.Backend.Validate(); err != nil {
		return fmt.Errorf("synth: %w", err)
	}
	for i, e := range c.Effects {
		if e.PosFrac < 0 || e.PosFrac > 1 || e.Duration < 0 {
			return fmt.Errorf("synth: effect %d malformed (%+v)", i, e)
		}
	}
	return nil
}

// Scene is one shot of the synthetic movie (exported for tests and for
// the codec package, which renders frames scene by scene).
type Scene struct {
	Start    int
	Length   int
	Dialogue bool
}

// Generate builds the synthetic VBR trace. The context reaches the
// Gaussian backbone, so an exact Hosking run at paper scale stays cancellable.
func Generate(ctx context.Context, cfg Config) (*trace.Trace, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	z, _, err := ActivityProcess(ctx, cfg)
	if err != nil {
		return nil, err
	}

	frames, err := MarginalMap(z, cfg)
	if err != nil {
		return nil, err
	}

	tr := &trace.Trace{Frames: frames, FrameRate: cfg.FrameRate}
	if cfg.SlicesPerFrame > 0 {
		rng := rand.New(rand.NewPCG(cfg.Seed, 0x51ce5))
		if err := tr.SlicesFromFrames(cfg.SlicesPerFrame, cfg.SliceJitter, rng.Float64); err != nil {
			return nil, err
		}
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// ActivityProcess builds the standardized Gaussian activity series
// (backbone + scene structure + story arc + effects) and the scene list.
// It is exported separately so the codec package can drive procedural
// frame rendering from the same process. Cancellation is checked by the
// backbone generator, the only stage that is not linear in n.
func ActivityProcess(ctx context.Context, cfg Config) ([]float64, []Scene, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	n := cfg.Frames
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xacc))

	var backbone []float64
	var err error
	switch cfg.Backend.Resolve(n, false) {
	case backend.Hosking:
		backbone, err = fgn.HoskingCtx(ctx, n, cfg.Hurst, rng)
	case backend.Paxson:
		backbone, err = fgn.PaxsonCtx(ctx, n, cfg.Hurst, rng)
	default:
		backbone, err = fgn.DaviesHarteCtx(ctx, n, cfg.Hurst, rng)
	}
	if err != nil {
		return nil, nil, err
	}
	fgn.Standardize(backbone)

	scenes := cutScenes(cfg, rng)

	z := make([]float64, n)
	for _, sc := range scenes {
		end := sc.Start + sc.Length
		// Scene level: backbone averaged over the scene, re-inflated
		// toward unit variance (averaging m LRD points shrinks the std by
		// ≈ m^{H-1}, so divide it back out).
		var level float64
		for t := sc.Start; t < end; t++ {
			level += backbone[t]
		}
		level /= float64(sc.Length)
		level /= math.Pow(float64(sc.Length), cfg.Hurst-1)

		// Dialogue scenes alternate between two sub-levels (cross-cut
		// camera shots); shot lengths 1–5 seconds.
		offset := 0.0
		shotLeft := 0
		sign := 1.0
		ar := 0.0
		for t := sc.Start; t < end; t++ {
			if sc.Dialogue {
				if shotLeft == 0 {
					shotLeft = int(cfg.FrameRate) * (1 + rng.IntN(5))
					sign = -sign
					offset = sign * cfg.DialogueDelta
				}
				shotLeft--
			}
			ar = 0.9*ar + cfg.WithinSceneJit*rng.NormFloat64()
			z[t] = level + offset + ar + cfg.FrameNoise*rng.NormFloat64()
		}
	}

	// Story arc: smooth low-frequency modulation matching Fig. 2's shape.
	for t := 0; t < n; t++ {
		z[t] += cfg.ArcAmplitude * storyArc(float64(t)/float64(n-1))
	}

	// Special effects: deterministic high-complexity bursts.
	for _, e := range cfg.Effects {
		start := int(e.PosFrac * float64(n))
		for t := start; t < start+e.Duration && t < n; t++ {
			if z[t] < e.Z {
				z[t] = e.Z + 0.2*rng.NormFloat64()
			}
		}
	}

	fgn.Standardize(z)
	return z, scenes, nil
}

// cutScenes partitions the movie into scenes with lognormal durations.
func cutScenes(cfg Config, rng *rand.Rand) []Scene {
	// Median chosen so that E[length] = MeanSceneFrames for lognormal:
	// mean = median·exp(σ²/2).
	median := cfg.MeanSceneFrames / math.Exp(cfg.SceneSigma*cfg.SceneSigma/2)
	var scenes []Scene
	pos := 0
	for pos < cfg.Frames {
		l := int(math.Round(median * math.Exp(cfg.SceneSigma*rng.NormFloat64())))
		if l < cfg.MinSceneFrames {
			l = cfg.MinSceneFrames
		}
		if pos+l > cfg.Frames {
			l = cfg.Frames - pos
		}
		scenes = append(scenes, Scene{
			Start:    pos,
			Length:   l,
			Dialogue: rng.Float64() < cfg.DialogueProb,
		})
		pos += l
	}
	return scenes
}

// storyArc is a fixed smooth curve over [0,1] encoding the narrative shape
// the paper reads off Fig. 2: intense introduction, placid second quarter,
// building conflict, slight pause, climactic finale.
func storyArc(u float64) float64 {
	// Piecewise-linear knots smoothed by cosine interpolation.
	knots := []struct{ u, v float64 }{
		{0.00, 0.9}, {0.10, 0.4}, {0.30, -0.9}, {0.50, 0.0},
		{0.70, 0.5}, {0.80, 0.1}, {0.93, 0.9}, {1.00, 1.0},
	}
	if u <= knots[0].u {
		return knots[0].v
	}
	for i := 1; i < len(knots); i++ {
		if u <= knots[i].u {
			a, b := knots[i-1], knots[i]
			t := (u - a.u) / (b.u - a.u)
			s := 0.5 - 0.5*math.Cos(math.Pi*t)
			return a.v + s*(b.v-a.v)
		}
	}
	return knots[len(knots)-1].v
}

// MarginalMap transforms the activity series to bytes-per-frame values
// with the hybrid Gamma/Pareto marginal. It uses the *rank-based* variant
// of the paper's Eq. 13 transform: the i-th smallest activity value is
// assigned the ((i+½)/n)-quantile of F_{Γ/P}, so the finite-sample
// marginal of the synthetic trace matches the target distribution exactly
// (the composite activity process is only approximately Gaussian, and the
// plain Φ-based map would let its excess kurtosis distort the calibrated
// tail). Ties in rank order — e.g. the plateaued special-effect frames —
// are resolved by their residual noise, which spreads the effects across
// the top of the Pareto tail exactly as the movie's named peaks populate
// the empirical tail in Fig. 4.
//
// The literal Φ-based transform of Eq. 13 lives in the model package
// (core.Model.GenerateCtx), where its input really is Gaussian.
func MarginalMap(z []float64, cfg Config) ([]float64, error) {
	gp, err := dist.NewGammaParetoFromParams(dist.GammaParetoParams{MuGamma: cfg.MeanBytes, SigmaGamma: cfg.StdBytes, TailSlope: cfg.TailSlope})
	if err != nil {
		return nil, err
	}
	tab, err := gp.QuantileTable(cfg.TableSize)
	if err != nil {
		return nil, err
	}
	n := len(z)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return z[idx[a]] < z[idx[b]] })
	out := make([]float64, n)
	for rank, i := range idx {
		out[i] = tab.Value((float64(rank) + 0.5) / float64(n))
	}
	return out, nil
}
