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
			"VarianceTime": 0x3fe2414b701975b8, // 0.5704705419008667
			"RS":           0x3fe39bc3c5b02f20, // 0.6127642499063519
			"RSAggregated": 0x3fe3f8035818fbfe, // 0.6240250321060328
			"RSSweepMin":   0x3fe36cca50ac560e, // 0.6070300651214795
			"RSSweepMax":   0x3fe3e54ca2e1b8df, // 0.6217406445773824
			"Whittle":      0x3fe38301172ad0f8, // 0.6097417309270261
			"WhittleCI95":  0x3fb87e58dfa2bccb, // 0.09567790469985764
			"Periodogram":  0x3fe347cb92e874bf, // 0.6025140637681473
			"MAVAR":        0x3fe2671109df37c6, // 0.5750813668071195
		},
		bars: []goldenBar{
			{"variance-time", 0x3fe2414b701975b8, 0x3fe27574abd0fefb, 0x3fa86ddf3621cab0}, // raw 0.5704705419008667, H 0.5768378597058182 ± 0.04771325622359279
			{"rs", 0x3fe39bc3c5b02f20, 0x3fe2bdb0d0852fda, 0x3f9ee1ad8717ebba},            // raw 0.6127642499063519, H 0.5856556008015972 ± 0.030157767649125346
			{"periodogram", 0x3fe347cb92e874bf, 0x3fe35f7aeb22e42a, 0x3fa6ea32508e0fac},   // raw 0.6025140637681473, H 0.6054052917962782 ± 0.044755527814259594
			{"whittle", 0x3fe3f326e045571e, 0x3fe3161f9b2bf0e2, 0x3f86abbc61ccf28f},       // raw 0.6234316234865422, H 0.5964506178566149 ± 0.011069747671734546
			{"mavar", 0x3fe2671109df37c6, 0x3fe3615588993d16, 0x3f8cfb1159383d82},         // raw 0.5750813668071195, H 0.6056316059056452 ± 0.014150748763340774
		},
	},
	{
		h: 0.8,
		fields: map[string]uint64{
			"VarianceTime": 0x3fe8cafdf3c65e49, // 0.774779296992116
			"RS":           0x3fe8a713339a3235, // 0.7703948982103329
			"RSAggregated": 0x3fe7faad783fe70f, // 0.7493502949357395
			"RSSweepMin":   0x3fe8696ff35d46af, // 0.7628707650385048
			"RSSweepMax":   0x3fe8be7893ec5159, // 0.7732508553622593
			"Whittle":      0x3feb5c66b803244a, // 0.8550294488897034
			"WhittleCI95":  0x3fb87e58dfa2bccb, // 0.09567790469985764
			"Periodogram":  0x3fea735bd9565650, // 0.8265818829410794
			"MAVAR":        0x3fe95d700d784e4a, // 0.7926559699139457
		},
		bars: []goldenBar{
			{"variance-time", 0x3fe8cafdf3c65e49, 0x3fe981b6b9f5dbef, 0x3fae948067e00d98}, // raw 0.774779296992116, H 0.7970842010535061 ± 0.05972672718055633
			{"rs", 0x3fe8a713339a3235, 0x3fe8e406bdc9fa51, 0x3fa06062b082091d},            // raw 0.7703948982103329, H 0.7778352457824643 ± 0.03198536305082398
			{"periodogram", 0x3fea735bd9565650, 0x3fea499b0eea4bc9, 0x3fa9e897a34de822},   // raw 0.8265818829410794, H 0.8214850703537816 ± 0.050602663693055897
			{"whittle", 0x3feb68caba412cc6, 0x3fe928290694f082, 0x3f8821744518b56e},       // raw 0.8565419805321646, H 0.7861523750830346 ± 0.011782558783205412
			{"mavar", 0x3fe95d700d784e4a, 0x3fea090223a45e6f, 0x3f936cea49707205},         // raw 0.7926559699139457, H 0.8135996528753376 ± 0.01897016595113323
		},
	},
	{
		h: 0.9,
		fields: map[string]uint64{
			"VarianceTime": 0x3fe96cab3e79eab6, // 0.7945152492751137
			"RS":           0x3fe9fe62d59a982c, // 0.8123029872847431
			"RSAggregated": 0x3fe682fd6163d7ac, // 0.7034899618290544
			"RSSweepMin":   0x3fe9fe62d59a982c, // 0.8123029872847431
			"RSSweepMax":   0x3fea6d448a647500, // 0.8258383467652095
			"Whittle":      0x3fed7d38a6f7ae90, // 0.921535802944577
			"WhittleCI95":  0x3fb87e58dfa2bccb, // 0.09567790469985764
			"Periodogram":  0x3fec8a86ff226150, // 0.8919100745288606
			"MAVAR":        0x3fec0e9c4a0af553, // 0.8767835088871528
		},
		bars: []goldenBar{
			{"variance-time", 0x3fe96cab3e79eab6, 0x3fea27cca9956b95, 0x3faf71281dca1eb9}, // raw 0.7945152492751137, H 0.817358332841979 ± 0.06141019214288463
			{"rs", 0x3fe9fe62d59a982c, 0x3fea9e04bce6b510, 0x3fa0545d198cec95},            // raw 0.8123029872847431, H 0.8317893685795372 ± 0.031893643731074985
			{"periodogram", 0x3fec8a86ff226150, 0x3fec6199cb85b4c2, 0x3fa31384aa599cb3},   // raw 0.8919100745288606, H 0.8869141554875102 ± 0.037258287234004504
			{"whittle", 0x3fef723b942aafcd, 0x3fecfaf4a1131cf9, 0x3f8756d25ce9afc3},       // raw 0.9826944249994028, H 0.9056342264165372 ± 0.011396068058466718
			{"mavar", 0x3fec0e9c4a0af553, 0x3feca7d21a97c5cb, 0x3f905fe8ffb0fa53},         // raw 0.8767835088871528, H 0.8954859275237878 ± 0.01599086819282498
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
