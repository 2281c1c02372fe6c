package lrd

import (
	"math"
	"testing"
)

// goldenBar pins one calibrated error bar to exact bit patterns.
type goldenBar struct {
	estimator  string
	raw, h, ci uint64
}

// goldenEstimates pins EstimateAll's complete output on a fixed-seed
// Davies–Harte fGn series (testSeries seed derivation, n = 16384,
// aggM = 64) to exact Float64bits. Any change to an estimator's
// numerics, the fit ranges, the calibration table, or the generator's
// sampling order shows up here as a bit-level diff — deliberate changes
// regenerate the constants, silent drift fails the build. The suite
// runs on amd64 CI where Go performs no FMA contraction, so the bit
// patterns are stable across compiler releases.
var goldenEstimates = []struct {
	h      float64
	fields map[string]uint64
	bars   []goldenBar
}{
	{
		h: 0.6,
		fields: map[string]uint64{
			"VarianceTime": 0x3fe24812e3a9a068, // 0.5712980696234924
			"RS":           0x3fe4100cb4fcaaa6, // 0.6269591841604167
			"RSAggregated": 0x3fe50a1a44b88e3d, // 0.6574832288938023
			"RSSweepMin":   0x3fe3da8658388c41, // 0.6204253886284122
			"RSSweepMax":   0x3fe4225d34f35261, // 0.6291948351086597
			"Whittle":      0x3fe2b985fbedbf9f, // 0.5851468964083216
			"WhittleCI95":  0x3fb87e58dfa2bccb, // 0.09567790469985764
			"Periodogram":  0x3fe3c73ab45266f0, // 0.6180699846183568
			"MAVAR":        0x3fe2439c2465f137, // 0.5707531653311325
		},
		bars: []goldenBar{
			{"variance-time", 0x3fe24812e3a9a068, 0x3fe2c0b4d95fb999, 0x3fb02bc9b4ae2ef6}, // raw 0.5712980696234924, H 0.5860237355789649 ± 0.06316815053122213
			{"rs", 0x3fe4100cb4fcaaa6, 0x3fe360a776fab306, 0x3fa229e14f32d333},            // raw 0.6269591841604167, H 0.6055486034216251 ± 0.03547576991824144
			{"periodogram", 0x3fe3c73ab45266f0, 0x3fe3928d75fad795, 0x3fa931ce867df867},   // raw 0.6180699846183568, H 0.6116397194189057 ± 0.04920812026738091
			{"whittle", 0x3fe3ed5989c59b44, 0x3fe308e538e8782f, 0x3f89475e4f4e1bb1},       // raw 0.6227233591897421, H 0.5948358642087949 ± 0.012343155665588275
			{"mavar", 0x3fe2439c2465f137, 0x3fe3183e729ac4ca, 0x3f903c1276c1298f},         // raw 0.5707531653311325, H 0.5967094648714462 ± 0.015854156969263008
		},
	},
	{
		h: 0.8,
		fields: map[string]uint64{
			"VarianceTime": 0x3fe8a47f64f6a664, // 0.7700802776282214
			"RS":           0x3fe85e43b390dfe1, // 0.7615068919321822
			"RSAggregated": 0x3fe83d9c578ebfb3, // 0.7575208387479421
			"RSSweepMin":   0x3fe8515762aabbe6, // 0.7599293639267415
			"RSSweepMax":   0x3fe8784303dff5ab, // 0.7646803928070559
			"Whittle":      0x3feb05bb9259ee46, // 0.8444497927116081
			"WhittleCI95":  0x3fb87e58dfa2bccb, // 0.09567790469985764
			"Periodogram":  0x3fea6e8e1b3fcbb0, // 0.8259954960070583
			"MAVAR":        0x3fe8ce85f316b57e, // 0.7752103565050417
		},
		bars: []goldenBar{
			{"variance-time", 0x3fe8a47f64f6a664, 0x3fe9747ac503bd3a, 0x3fb07b95bbe5c4c8}, // raw 0.7700802776282214, H 0.7954686973516012 ± 0.06438575589506279
			{"rs", 0x3fe85e43b390dfe1, 0x3fe8b9ab2a9814a8, 0x3fa28caa13dd08ce},            // raw 0.7615068919321822, H 0.7726646263041816 ± 0.03622943394158683
			{"periodogram", 0x3fea6e8e1b3fcbb0, 0x3fea4e25b7948311, 0x3fa569cc30b3dc4e},   // raw 0.8259954960070583, H 0.8220394692944827 ± 0.0418227967692749
			{"whittle", 0x3feb1f5cca9678c6, 0x3fe8e7d3824ad730, 0x3f86d4b087bed115},       // raw 0.8475784260552011, H 0.7782990975162871 ± 0.01114786066305177
			{"mavar", 0x3fe8ce85f316b57e, 0x3fe97d5d6740e422, 0x3f93a63e9e72f322},         // raw 0.7752103565050417, H 0.7965533272428085 ± 0.019188860341034737
		},
	},
	{
		h: 0.9,
		fields: map[string]uint64{
			"VarianceTime": 0x3fe958e05b8c3fcb, // 0.7920991695445933
			"RS":           0x3feb067ee98a0d7b, // 0.8445429383577187
			"RSAggregated": 0x3fe99b599a0d3224, // 0.8002136238879456
			"RSSweepMin":   0x3feaea008e4c831e, // 0.8410647181773105
			"RSSweepMax":   0x3feb25f9cdc20e85, // 0.8483857172690966
			"Whittle":      0x3feff7ced91025f4, // 0.9989999999535812
			"WhittleCI95":  0x3fb87e58dfa2bccb, // 0.09567790469985764
			"Periodogram":  0x3fec03be44026100, // 0.8754569366747376
			"MAVAR":        0x3febce85c9caa6b4, // 0.8689602795831974
		},
		bars: []goldenBar{
			{"variance-time", 0x3fe958e05b8c3fcb, 0x3fea3b6406da86aa, 0x3fb026040ca5dad7}, // raw 0.7920991695445933, H 0.8197498449191774 ± 0.06308007534776593
			{"rs", 0x3feb067ee98a0d7b, 0x3fec266cd9a83bb8, 0x3fa318b75cc94732},            // raw 0.8445429383577187, H 0.8796905757061415 ± 0.03729794509548724
			{"periodogram", 0x3fec03be44026100, 0x3febc96d953b6efa, 0x3fa47a986673912b},   // raw 0.8754569366747376, H 0.868338386029307 ± 0.03999782801273207
			{"whittle", 0x3fef529b072d4dd0, 0x3fecd1f9304b925f, 0x3f86b704ef351cb9},       // raw 0.9788336887526672, H 0.9006315177217167 ± 0.011091269063980712
			{"mavar", 0x3febce85c9caa6b4, 0x3fec62a01372d7ab, 0x3f90c4c54246e036},         // raw 0.8689602795831974, H 0.8870392207961592 ± 0.016375620050638605
		},
	},
}

func TestEstimateAllGolden(t *testing.T) {
	for _, g := range goldenEstimates {
		e, err := EstimateAll(testSeries(t, g.h, 16384), 64)
		if err != nil {
			t.Fatalf("H=%g: EstimateAll: %v", g.h, err)
		}
		got := map[string]float64{
			"VarianceTime": e.VarianceTime, "RS": e.RS, "RSAggregated": e.RSAggregated,
			"RSSweepMin": e.RSSweepMin, "RSSweepMax": e.RSSweepMax,
			"Whittle": e.Whittle, "WhittleCI95": e.WhittleCI95,
			"Periodogram": e.Periodogram, "MAVAR": e.MAVAR,
		}
		for name, want := range g.fields {
			if bits := math.Float64bits(got[name]); bits != want {
				t.Errorf("H=%g: %s = %v (0x%016x), want bits 0x%016x — estimator output drifted",
					g.h, name, got[name], bits, want)
			}
		}
		if len(e.Bars) != len(g.bars) {
			t.Fatalf("H=%g: %d bars, want %d", g.h, len(e.Bars), len(g.bars))
		}
		for i, want := range g.bars {
			b := e.Bars[i]
			if b.Estimator != want.estimator {
				t.Errorf("H=%g: bar %d estimator %q, want %q", g.h, i, b.Estimator, want.estimator)
				continue
			}
			if math.Float64bits(b.Raw) != want.raw || math.Float64bits(b.H) != want.h ||
				math.Float64bits(b.CI95) != want.ci {
				t.Errorf("H=%g: bar %s = raw %v / H %v / CI %v (0x%016x/0x%016x/0x%016x), want 0x%016x/0x%016x/0x%016x",
					g.h, b.Estimator, b.Raw, b.H, b.CI95,
					math.Float64bits(b.Raw), math.Float64bits(b.H), math.Float64bits(b.CI95),
					want.raw, want.h, want.ci)
			}
		}
	}
}
