package lrd

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestFGNSpectrumShape(t *testing.T) {
	// Near the origin f(λ) ~ λ^{1-2H}: check the log-log slope between
	// two small frequencies.
	for _, h := range []float64{0.6, 0.8, 0.9} {
		l1, l2 := 0.001, 0.002
		slope := (math.Log(fgnSpectrum(l2, h)) - math.Log(fgnSpectrum(l1, h))) / (math.Log(l2) - math.Log(l1))
		want := 1 - 2*h
		if math.Abs(slope-want) > 0.02 {
			t.Errorf("H=%v: origin slope %v, want %v", h, slope, want)
		}
	}
	// H = 0.5 must be flat (white noise): the spectrum ratio between two
	// frequencies is ≈ 1... for FGN H=0.5 f is exactly constant.
	r := fgnSpectrum(0.3, 0.5) / fgnSpectrum(2.5, 0.5)
	if math.Abs(r-1) > 0.01 {
		t.Errorf("H=0.5 spectrum not flat: ratio %v", r)
	}
	// Positive everywhere.
	for lam := 0.01; lam <= math.Pi; lam += 0.1 {
		if fgnSpectrum(lam, 0.8) <= 0 {
			t.Fatalf("nonpositive spectrum at %v", lam)
		}
	}
}

func TestWhittleFGNRecoversH(t *testing.T) {
	// On FGN input (its own model) the estimator should be tight and the
	// CI should cover the truth.
	for _, h := range []float64{0.6, 0.8} {
		xs := exactFGN(20000, h, rand.New(rand.NewPCG(uint64(h*100), 5)))
		res, err := WhittleFGN(xs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.H-h) > 3*res.StdErr+0.02 {
			t.Errorf("true H=%v: estimate %v ± %v", h, res.H, res.StdErr)
		}
	}
}

func TestWhittleFGNvsFarimaAgreeOnSelfSimilarInput(t *testing.T) {
	xs := exactFGN(20000, 0.8, rand.New(rand.NewPCG(7, 8)))
	a, err := Whittle(xs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := WhittleFGN(xs)
	if err != nil {
		t.Fatal(err)
	}
	// Both models share the λ^{1-2H} origin behaviour, so both estimates
	// land near the truth; but full-band Whittle sees the whole spectrum
	// and the fARIMA model absorbs FGN's high-frequency shape into d, so
	// on FGN data the FGN model must be at least as accurate — the
	// specification-check property this ablation exists to expose.
	if math.Abs(b.H-0.8) > 0.03 {
		t.Errorf("FGN-model estimate %v not tight on its own data", b.H)
	}
	if math.Abs(a.H-0.8) > 0.09 {
		t.Errorf("fARIMA-model estimate %v too far off", a.H)
	}
	if math.Abs(b.H-0.8) > math.Abs(a.H-0.8) {
		t.Errorf("FGN model (%v) less accurate than fARIMA (%v) on FGN data", b.H, a.H)
	}
}

func TestWhittleFGNErrors(t *testing.T) {
	if _, err := WhittleFGN(make([]float64, 16)); err == nil {
		t.Error("short series should fail")
	}
}

func TestWhittleFGNWhiteNoise(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	res, err := WhittleFGN(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.H-0.5) > 3*res.StdErr+0.02 {
		t.Errorf("white noise H = %v ± %v", res.H, res.StdErr)
	}
}
