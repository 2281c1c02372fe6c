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
// Davies–Harte fARIMA(0, d, 0) series (testSeries seed derivation,
// n = 16384, aggM = 64) to exact Float64bits. The input is held to
// FarimaACF by fgn's pair oracle and its one-process test, and the bars
// by TestCommittedCalibrationTable. Any change to an estimator's
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
			"VarianceTime": 0x3fe238a7c0614225, // 0.5694159276409364
			"RS":           0x3fe3f225b841321a, // 0.6233090018009222
			"RSAggregated": 0x3fe5087eb980844d, // 0.657286989506369
			"RSSweepMin":   0x3fe3bc384bff2351, // 0.6167260631856185
			"RSSweepMax":   0x3fe403c463e87619, // 0.6254598571137563
			"Whittle":      0x3fe2b74c6d93b0e7, // 0.5848753109144383
			"WhittleCI95":  0x3fb87e58dfa2bccb, // 0.09567790469985764
			"Periodogram":  0x3fe3c25fa396bf8b, // 0.6174772448630262
			"MAVAR":        0x3fe2ef69b26089d6, // 0.5917252048423574
		},
		bars: []goldenBar{
			{"variance-time", 0x3fe238a7c0614225, 0x3fe2c0bd51609bbe, 0x3fb02cb95e48b4cd}, // raw 0.5694159276409364, H 0.5860277738000759 ± 0.0631824355302399
			{"rs", 0x3fe3f225b841321a, 0x3fe35ab9eca13986, 0x3fa20e5e885cb362},            // raw 0.6233090018009222, H 0.6048249837565869 ± 0.035265878816381116
			{"periodogram", 0x3fe3c25fa396bf8b, 0x3fe392f05e1f9dcc, 0x3fa939b662c9991d},   // raw 0.6174772448630262, H 0.6116868818616523 ± 0.04926843601133355
			{"whittle", 0x3fe332525f607801, 0x3fe32a8b3a14d794, 0x3f889e3ffa74762c},       // raw 0.5998927939251645, H 0.5989433416750551 ± 0.012020587759759747
			{"mavar", 0x3fe2ef69b26089d6, 0x3fe335a8fdac044a, 0x3f95f837bc97d43b},         // raw 0.5917252048423574, H 0.6003003077058875 ± 0.021454687963302837
		},
	},
	{
		h: 0.8,
		fields: map[string]uint64{
			"VarianceTime": 0x3fe88f7780e4152f, // 0.7675130383874257
			"RS":           0x3fe83cc5f3da447a, // 0.7574186098810423
			"RSAggregated": 0x3fe83d1ec9dec5d3, // 0.7574609701898062
			"RSSweepMin":   0x3fe82d53aa697f61, // 0.7555330589639021
			"RSSweepMax":   0x3fe85062076b1f2d, // 0.7598123688594335
			"Whittle":      0x3feb01b13684a944, // 0.8439565720375772
			"WhittleCI95":  0x3fb87e58dfa2bccb, // 0.09567790469985764
			"Periodogram":  0x3fea65741df867b6, // 0.824884470496946
			"MAVAR":        0x3fe95e0692b3ad51, // 0.7927277436514634
		},
		bars: []goldenBar{
			{"variance-time", 0x3fe88f7780e4152f, 0x3fe971aa67c91bfc, 0x3fb08caa7995955c}, // raw 0.7675130383874257, H 0.7951252009451077 ± 0.06464639156691504
			{"rs", 0x3fe83cc5f3da447a, 0x3fe8b4cd83737d37, 0x3fa2e904a29c389b},            // raw 0.7574186098810423, H 0.7720706527142401 ± 0.036934037065394075
			{"periodogram", 0x3fea65741df867b6, 0x3fea4f04f8d87539, 0x3fa56f71d799c083},   // raw 0.824884470496946, H 0.8221459255470683 ± 0.04186588055461107
			{"whittle", 0x3fe9352dde5b027f, 0x3fe93377da6fb731, 0x3f8871b0922a4995},       // raw 0.7877415984040254, H 0.7875327364288066 ± 0.011935595951659642
			{"mavar", 0x3fe95e0692b3ad51, 0x3fe9b586a8794787, 0x3f9acc1e35e0094b},         // raw 0.7927277436514634, H 0.8034089365485081 ± 0.0261692734129693
		},
	},
	{
		h: 0.9,
		fields: map[string]uint64{
			"VarianceTime": 0x3fe948ad20c93ff9, // 0.7901216163972996
			"RS":           0x3feaf451b21ae26d, // 0.8423241118062613
			"RSAggregated": 0x3fe99b3b0953df6c, // 0.8001990492038948
			"RSSweepMin":   0x3fead95a23e33101, // 0.8390322400023537
			"RSSweepMax":   0x3feb174d4aa40408, // 0.8465944726777943
			"Whittle":      0x3feff7ced91025f4, // 0.9989999999535812
			"WhittleCI95":  0x3fb87e58dfa2bccb, // 0.09567790469985764
			"Periodogram":  0x3febf9821f3a556c, // 0.8742075548094994
			"MAVAR":        0x3febdecd0285da3e, // 0.8709473656916271
		},
		bars: []goldenBar{
			{"variance-time", 0x3fe948ad20c93ff9, 0x3fea3da6918b12c2, 0x3fb03552382b2f3a}, // raw 0.7901216163972996, H 0.8200257151261996 ± 0.06331361647897618
			{"rs", 0x3feaf451b21ae26d, 0x3fec28651a225284, 0x3fa34f3d3d537302},            // raw 0.8423241118062613, H 0.8799310217314802 ± 0.037713922248917356
			{"periodogram", 0x3febf9821f3a556c, 0x3febc9df992a39ab, 0x3fa48046da363122},   // raw 0.8742075548094994, H 0.8683927527907164 ± 0.04004117406575093
			{"whittle", 0x3fecc4202ff8091c, 0x3fecc0b3ab12a289, 0x3f86fb6a7fb17091},       // raw 0.8989411293880809, H 0.8985231724992256 ± 0.01122172548473824
			{"mavar", 0x3febdecd0285da3e, 0x3fec32a2429d0450, 0x3f95aaa9ffe7cccf},         // raw 0.8709473656916271, H 0.8811808873216567 ± 0.02115884422705677
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
