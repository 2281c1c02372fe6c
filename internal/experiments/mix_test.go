package experiments

import (
	"context"
	"math"
	"strings"
	"testing"
)

// TestExtMix runs the heterogeneous-mix Q-C study end to end: one
// knee curve per mix, each monotone non-increasing in the buffer
// delay and bracketed by the population's realized rate envelope.
func TestExtMix(t *testing.T) {
	ctx := context.Background()
	s, err := NewSuite(ctx, QuickScale)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.ExtMixCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Curves) < 2 {
		t.Fatalf("got %d curves, want >= 2", len(r.Curves))
	}
	for _, c := range r.Curves {
		if len(c.Points) < 3 {
			t.Fatalf("%s: %d points, want >= 3", c.Spec, len(c.Points))
		}
		if !(c.PeakBps > c.MeanBps) || !(c.MeanBps > 0) {
			t.Errorf("%s: degenerate envelope mean=%v peak=%v", c.Spec, c.MeanBps, c.PeakBps)
		}
		n := float64(c.N)
		for i, p := range c.Points {
			if math.IsNaN(p.PerSourceBps) || !(p.PerSourceBps > 0) {
				t.Fatalf("%s point %d: bad allocation %v", c.Spec, i, p.PerSourceBps)
			}
			if p.PerSourceBps*n > c.PeakBps*1.05+1 {
				t.Errorf("%s point %d: allocation %v above peak envelope", c.Spec, i, p.PerSourceBps*n)
			}
			if i > 0 && p.PerSourceBps > c.Points[i-1].PerSourceBps*1.0001 {
				t.Errorf("%s: allocation increased with buffer: %v -> %v",
					c.Spec, c.Points[i-1].PerSourceBps, p.PerSourceBps)
			}
		}
		if !(c.Knee.TmaxSec > 0) {
			t.Errorf("%s: no knee located", c.Spec)
		}
	}
	out := r.Format()
	for _, want := range []string{"knee", "T_max (ms)", "C/N (Mb/s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
}
