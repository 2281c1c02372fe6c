package experiments

import (
	"context"
	"errors"
	"testing"

	"vbr/internal/errs"
)

// TestFig14CtxRerunIsIdentical pins what makes an interrupted sweep
// recoverable by running it again: a second sweep over the same suite
// returns every curve, point and knee bit for bit.
func TestFig14CtxRerunIsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("capacity searches are slow")
	}
	ctx := context.Background()
	s := quickSuite(t)
	first, err := s.Fig14Ctx(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.CurveErrors) != 0 {
		t.Fatalf("healthy run reported curve errors: %v", first.CurveErrors)
	}
	if want := len(s.qcNs()) * len(s.qcTargets()); len(first.Curves) != want {
		t.Fatalf("%d curves, want one per (N, target): %d", len(first.Curves), want)
	}
	rerun, err := s.Fig14Ctx(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rerun.Curves) != len(first.Curves) || len(rerun.CurveErrors) != 0 {
		t.Fatalf("rerun made %d curves (%d errors), the first run %d", len(rerun.Curves), len(rerun.CurveErrors), len(first.Curves))
	}
	for i, a := range first.Curves {
		b := rerun.Curves[i]
		if a.N != b.N || a.Target != b.Target || a.Knee != b.Knee || len(a.Points) != len(b.Points) {
			t.Fatalf("curve %d differs: N=%d %s knee %+v, rerun N=%d %s knee %+v", i, a.N, a.Target, a.Knee, b.N, b.Target, b.Knee)
		}
		for j := range a.Points {
			if a.Points[j] != b.Points[j] {
				t.Fatalf("curve %d point %d differs: %+v vs %+v", i, j, a.Points[j], b.Points[j])
			}
		}
	}
}

// errOnly drops a result, keeping the error, so the cancellation table
// can hold entry points with different result types.
func errOnly[T any](_ T, err error) error { return err }

// TestSuiteCtxCancelled pins that every Suite entry point taking a
// context honours one that is already cancelled: each returns an error
// matching errs.ErrCancelled instead of running. Each row gets its own
// unfitted suite over the shared trace, so Model and the studies that
// fit the model meet the cancelled context in the fit.
func TestSuiteCtxCancelled(t *testing.T) {
	shared := quickSuite(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		run  func(s *Suite) error
	}{
		{"Model", func(s *Suite) error { return errOnly(s.Model(ctx)) }},
		{"Fig1Ctx", func(s *Suite) error { return errOnly(s.Fig1Ctx(ctx, 100)) }},
		{"Fig2Ctx", func(s *Suite) error { return errOnly(s.Fig2Ctx(ctx)) }},
		{"Fig3Ctx", func(s *Suite) error { return errOnly(s.Fig3Ctx(ctx)) }},
		{"Fig4Ctx", func(s *Suite) error { return errOnly(s.Fig4Ctx(ctx)) }},
		{"Fig5Ctx", func(s *Suite) error { return errOnly(s.Fig5Ctx(ctx)) }},
		{"Fig6Ctx", func(s *Suite) error { return errOnly(s.Fig6Ctx(ctx)) }},
		{"Fig7Ctx", func(s *Suite) error { return errOnly(s.Fig7Ctx(ctx)) }},
		{"Fig8Ctx", func(s *Suite) error { return errOnly(s.Fig8Ctx(ctx)) }},
		{"Fig9Ctx", func(s *Suite) error { return errOnly(s.Fig9Ctx(ctx)) }},
		{"Fig10Ctx", func(s *Suite) error { return errOnly(s.Fig10Ctx(ctx)) }},
		{"Fig11Ctx", func(s *Suite) error { return errOnly(s.Fig11Ctx(ctx)) }},
		{"Fig12Ctx", func(s *Suite) error { return errOnly(s.Fig12Ctx(ctx)) }},
		{"Fig14Ctx", func(s *Suite) error { return errOnly(s.Fig14Ctx(ctx, nil)) }},
		{"Fig15Ctx", func(s *Suite) error { return errOnly(s.Fig15Ctx(ctx)) }},
		{"Fig16Ctx", func(s *Suite) error { return errOnly(s.Fig16Ctx(ctx)) }},
		{"Fig17Ctx", func(s *Suite) error { return errOnly(s.Fig17Ctx(ctx)) }},
		{"ExtTransport", func(s *Suite) error { return errOnly(s.ExtTransport(ctx)) }},
		{"ExtAdmissionCtx", func(s *Suite) error { return errOnly(s.ExtAdmissionCtx(ctx)) }},
		{"ExtSRDCtx", func(s *Suite) error { return errOnly(s.ExtSRDCtx(ctx)) }},
		{"ExtInterframe", func(s *Suite) error { return errOnly(s.ExtInterframe(ctx)) }},
		{"ExtScenesCtx", func(s *Suite) error { return errOnly(s.ExtScenesCtx(ctx)) }},
		{"ExtFaultsCtx", func(s *Suite) error { return errOnly(s.ExtFaultsCtx(ctx)) }},
		{"ExtTailFidelityCtx", func(s *Suite) error { return errOnly(s.ExtTailFidelityCtx(ctx)) }},
		{"ExtMixCtx", func(s *Suite) error { return errOnly(s.ExtMixCtx(ctx)) }},
	}
	for _, c := range cases {
		s := &Suite{Scale: shared.Scale, Cfg: shared.Cfg, Trace: shared.Trace, UseSlices: shared.UseSlices}
		if err := c.run(s); !errors.Is(err, errs.ErrCancelled) {
			t.Errorf("%s: got %v, want ErrCancelled", c.name, err)
		}
	}
}

func TestExtFaultsDeterministicAndMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("capacity search is slow")
	}
	ctx := context.Background()
	s := quickSuite(t)
	a, err := s.ExtFaultsCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.ExtFaultsCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 4 || len(b.Rows) != 4 {
		t.Fatalf("row counts: %d, %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Fatalf("row %d not reproducible: %+v vs %+v", i, a.Rows[i], b.Rows[i])
		}
	}
	// The healthy baseline meets its target; every fault scenario loses
	// at least as much, and the severest (with outages) loses the most.
	healthy := a.Rows[0]
	if healthy.Pl > 1.5e-3 {
		t.Errorf("healthy baseline Pl %v far above sizing target", healthy.Pl)
	}
	for _, row := range a.Rows[1:] {
		if row.Pl < healthy.Pl {
			t.Errorf("%s: Pl %v below healthy %v", row.Scenario, row.Pl, healthy.Pl)
		}
	}
	worst := a.Rows[3]
	if worst.Pl <= a.Rows[1].Pl {
		t.Errorf("outage scenario Pl %v not above rare-brownout %v", worst.Pl, a.Rows[1].Pl)
	}
	if out := a.Format(); len(out) == 0 {
		t.Error("empty format")
	}
}
