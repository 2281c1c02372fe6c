package experiments

import (
	"context"
	"strings"
	"testing"

	"vbr/internal/scenes"
	"vbr/internal/synth"
)

func TestExtTransport(t *testing.T) {
	ctx := context.Background()
	s := quickSuite(t)
	r, err := s.ExtTransport(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	byScheme := map[string]ExtTransportRow{}
	for _, row := range r.Rows {
		byScheme[row.Scheme] = row
		if row.RateBps <= 0 {
			t.Errorf("%s: nonpositive rate", row.Scheme)
		}
	}
	// Zero-loss VBR must cost at least as much as lossy VBR at equal
	// delay; the clipped variant must undercut unclipped zero-loss; the
	// layered scheme runs closest to the mean.
	if byScheme["VBR (zero loss)"].RateBps < byScheme["VBR (Pl<=1e-3)"].RateBps {
		t.Error("zero-loss cheaper than lossy VBR")
	}
	if byScheme["VBR + clip at 1.8x mean"].RateBps > byScheme["VBR (zero loss)"].RateBps {
		t.Error("clipping did not reduce the zero-loss allocation")
	}
	if byScheme["layered 75% base, priority"].RateBps > byScheme["VBR (Pl<=1e-3)"].RateBps {
		t.Error("layered rate above plain VBR rate")
	}
	if !strings.Contains(r.Format(), "transport modes") {
		t.Error("format missing title")
	}
}

func TestExtAdmission(t *testing.T) {
	ctx := context.Background()
	s := quickSuite(t)
	r, err := s.ExtAdmissionCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Convo) != len(r.Ns) || len(r.Sim) != len(r.Ns) {
		t.Fatal("shape mismatch")
	}
	for i, n := range r.Ns {
		// Both allocations show multiplexing gain and stay ≥ mean rate.
		if i > 0 && r.Convo[i] > r.Convo[i-1]*1.01 {
			t.Errorf("convolution allocation rose at N=%d", n)
		}
		if r.Convo[i] < r.MeanBps*0.97 {
			t.Errorf("N=%d: convolution allocation below mean", n)
		}
		if r.Sim[i] < r.MeanBps*0.97 {
			t.Errorf("N=%d: simulated allocation below mean", n)
		}
		// The two methods agree within a factor of two: the marginal
		// table cannot see LRD, so it underestimates, but not wildly at
		// this loss target.
		ratio := r.Convo[i] / r.Sim[i]
		if ratio < 0.4 || ratio > 1.5 {
			t.Errorf("N=%d: convolution/simulation ratio %v implausible", n, ratio)
		}
	}
	if !strings.Contains(r.Format(), "convolution") {
		t.Error("format missing title")
	}
}

func TestExtSRD(t *testing.T) {
	ctx := context.Background()
	s := quickSuite(t)
	r, err := s.ExtSRDCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Both augmentations raise the lag-1 correlation.
	if r.LagOneARMA < r.LagOnePlain+0.05 {
		t.Errorf("ARMA lag-1 %v not above plain %v", r.LagOneARMA, r.LagOnePlain)
	}
	if r.LagOneMarkov < r.LagOnePlain+0.05 {
		t.Errorf("Markov lag-1 %v not above plain %v", r.LagOneMarkov, r.LagOnePlain)
	}
	// H (fitted beyond the SRD scale) stays in a common band.
	for name, h := range map[string]float64{
		"plain": r.HPlain, "arma": r.HARMA, "markov": r.HMarkov,
	} {
		if h < 0.6 || h > 1.0 {
			t.Errorf("%s H = %v outside band", name, h)
		}
	}
	if !strings.Contains(r.Format(), "augmentations") {
		t.Error("format missing title")
	}
}

func TestExtInterframe(t *testing.T) {
	ctx := context.Background()
	s := quickSuite(t)
	r, err := s.ExtInterframe(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r.InterMean >= r.IntraMean {
		t.Errorf("interframe mean %v not below intraframe %v", r.InterMean, r.IntraMean)
	}
	if r.InterPeakMean <= r.IntraPeakMean {
		t.Errorf("interframe peak/mean %v not above intraframe %v", r.InterPeakMean, r.IntraPeakMean)
	}
	if r.GOPLagACF <= r.OffGOPACF {
		t.Errorf("no GOP periodicity: %v vs %v", r.GOPLagACF, r.OffGOPACF)
	}
	if !strings.Contains(r.Format(), "interframe") {
		t.Error("format missing title")
	}
}

func TestExtScenes(t *testing.T) {
	ctx := context.Background()
	s := quickSuite(t)
	r, err := s.ExtScenesCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r.Precision < 0.6 {
		t.Errorf("precision %v", r.Precision)
	}
	// Recall spreads with a standard deviation near 0.02 across movies,
	// so its bounds apply to the mean over synth seeds 1..recallSeeds.
	// Chance matches within the 3 s window carry most of it, so each
	// movie's cuts, rebuilt as ExtScenesCtx builds them, are also scored
	// against its truth cuts shifted by shift frames, which no level
	// shift follows. A detector blind to the scenes reads the same on
	// both: evenly spaced cuts, from half to three times as many as the
	// detector finds, land within 0.005 of the shifted mean. So the mean
	// recall must beat the shifted mean by margin.
	const recallSeeds, shift, margin = 32, 240, 0.01
	score := func(seed uint64) (recall, shifted float64) {
		cfg := s.Cfg
		cfg.Seed = seed
		cfg.Frames = min(cfg.Frames, 40000)
		cfg.SlicesPerFrame = 0
		cfg.DialogueProb = 0
		z, truth, err := synth.ActivityProcess(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		frames, err := synth.MarginalMap(z, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var truthCuts, moved []int
		for _, sc := range truth[1:] {
			truthCuts = append(truthCuts, sc.Start)
			if sc.Start+shift < cfg.Frames {
				moved = append(moved, sc.Start+shift)
			}
		}
		dcfg := scenes.DefaultConfig()
		cuts, err := scenes.Cuts(frames, dcfg)
		if err != nil {
			t.Fatal(err)
		}
		_, recall = scenes.MatchStats(cuts, truthCuts, dcfg.Window)
		_, shifted = scenes.MatchStats(cuts, moved, dcfg.Window)
		return recall, shifted
	}
	if got, _ := score(s.Cfg.Seed); got != r.Recall {
		t.Fatalf("rebuilt cuts score recall %v, ExtScenesCtx %v", got, r.Recall)
	}
	var recall, recallShifted float64
	for seed := uint64(1); seed <= recallSeeds; seed++ {
		rs, rsShifted := score(seed)
		recall += rs / recallSeeds
		recallShifted += rsShifted / recallSeeds
	}
	t.Logf("mean recall over %d movies: %.4f; against truth shifted %d frames %.4f",
		recallSeeds, recall, shift, recallShifted)
	if recall < 0.1 || recall < recallShifted+margin {
		t.Errorf("mean recall over %d movies %.4f, want ≥ 0.1 and %.2f above the shifted baseline %.4f",
			recallSeeds, recall, margin, recallShifted)
	}
	if r.Detected < 2 || r.TrueScenes < 2 {
		t.Errorf("counts: detected %d true %d", r.Detected, r.TrueScenes)
	}
	if r.Model.MeanDuration <= 0 {
		t.Error("level model missing")
	}
	if !strings.Contains(r.Format(), "scene detection") {
		t.Error("format missing title")
	}
}

func TestExtTailFidelity(t *testing.T) {
	ctx := context.Background()
	s := quickSuite(t)
	r, err := s.ExtTailFidelityCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// The analytic-tail fallback keeps the fitted slope near the
		// target at every table size.
		if row.FittedSlope < 0.5*r.Target || row.FittedSlope > 2*r.Target {
			t.Errorf("table %d: fitted slope %v vs target %v", row.TableSize, row.FittedSlope, r.Target)
		}
		// The realized maximum stays within a factor of the theoretical
		// median n-sample maximum (LRD slows convergence; generous band).
		if row.Max < 0.5*r.ExpectedMax || row.Max > 3*r.ExpectedMax {
			t.Errorf("table %d: max %v vs expected %v", row.TableSize, row.Max, r.ExpectedMax)
		}
	}
	if !strings.Contains(r.Format(), "tail fidelity") {
		t.Error("format missing title")
	}
}
