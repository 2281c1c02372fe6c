package fgn

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"vbr/internal/errs"
	"vbr/internal/obs"
)

// countCtx is a context whose Err() becomes non-nil after limit calls —
// a deterministic way to interrupt the Hosking recursion at a known
// outer iteration.
type countCtx struct {
	context.Context
	calls, limit int
}

func (c *countCtx) Err() error {
	c.calls++
	if c.calls > c.limit {
		return context.Canceled
	}
	return nil
}

func TestHoskingCtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewPCG(1, 2))
	_, err := HoskingCtx(ctx, 1000, 0.8, rng)
	if !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("got %v, want ErrCancelled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not carry context.Canceled: %v", err)
	}
}

// TestHoskingCtxCancelPromptly is the acceptance check: cancelling a
// paper-scale 171,000-point generation returns well before the O(n²)
// recursion could complete.
func TestHoskingCtxCancelPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		rng := rand.New(rand.NewPCG(1994, 5))
		_, err := HoskingCtx(ctx, 171000, 0.8, rng)
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, errs.ErrCancelled) {
			t.Fatalf("got %v, want ErrCancelled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("generation did not stop within 10s of cancellation")
	}
	if el := time.Since(start); el > 11*time.Second {
		t.Fatalf("cancellation took %v, not prompt", el)
	}
}

// TestHoskingResumeBitwiseIdentical interrupts a generation mid-run,
// snapshots the recursion, resumes from the snapshot, and requires the
// result to be bit-for-bit equal to an uninterrupted run with the same
// seed.
func TestHoskingResumeBitwiseIdentical(t *testing.T) {
	const n, h = 3000, 0.8
	seed := func() *rand.PCG { return rand.NewPCG(42, 0x6a55) }

	want, st, err := HoskingCheckpointed(context.Background(), n, h, seed(), nil, 0, nil)
	if err != nil || st != nil {
		t.Fatalf("uninterrupted run: err=%v st=%v", err, st)
	}

	cctx := &countCtx{Context: context.Background(), limit: 1500}
	x, st, err := HoskingCheckpointed(cctx, n, h, seed(), nil, 0, nil)
	if !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("interrupted run: got %v, want ErrCancelled", err)
	}
	if x != nil {
		t.Fatal("interrupted run returned a series")
	}
	if st == nil {
		t.Fatal("interrupted run returned no snapshot")
	}
	if st.K <= 1 || st.K >= n {
		t.Fatalf("snapshot at K=%d, want mid-run", st.K)
	}
	if len(st.X) != st.K || len(st.PhiPrev) != st.K || len(st.RNG) == 0 {
		t.Fatalf("snapshot inconsistent: |X|=%d |φ|=%d |RNG|=%d", len(st.X), len(st.PhiPrev), len(st.RNG))
	}

	got, st2, err := HoskingCheckpointed(context.Background(), n, h, rand.NewPCG(0, 0), st, 0, nil)
	if err != nil || st2 != nil {
		t.Fatalf("resumed run: err=%v st=%v", err, st2)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resumed output differs at %d: %v != %v", i, got[i], want[i])
		}
	}
}

func TestHoskingResumeValidation(t *testing.T) {
	const n, h = 500, 0.8
	cctx := &countCtx{Context: context.Background(), limit: 200}
	_, st, err := HoskingCheckpointed(cctx, n, h, rand.NewPCG(3, 4), nil, 0, nil)
	if !errors.Is(err, errs.ErrCancelled) || st == nil {
		t.Fatalf("setup: err=%v st=%v", err, st)
	}

	if _, _, err := HoskingCheckpointed(context.Background(), n+1, h, rand.NewPCG(0, 0), st, 0, nil); !errors.Is(err, errs.ErrCheckpointMismatch) {
		t.Errorf("wrong n: got %v, want ErrCheckpointMismatch", err)
	}
	if _, _, err := HoskingCheckpointed(context.Background(), n, 0.7, rand.NewPCG(0, 0), st, 0, nil); !errors.Is(err, errs.ErrCheckpointMismatch) {
		t.Errorf("wrong H: got %v, want ErrCheckpointMismatch", err)
	}

	bad := *st
	bad.X = bad.X[:len(bad.X)-1]
	if _, _, err := HoskingCheckpointed(context.Background(), n, h, rand.NewPCG(0, 0), &bad, 0, nil); !errors.Is(err, errs.ErrCheckpointCorrupt) {
		t.Errorf("truncated X: got %v, want ErrCheckpointCorrupt", err)
	}
	bad2 := *st
	bad2.RNG = nil
	if _, _, err := HoskingCheckpointed(context.Background(), n, h, rand.NewPCG(0, 0), &bad2, 0, nil); !errors.Is(err, errs.ErrCheckpointCorrupt) {
		t.Errorf("missing RNG: got %v, want ErrCheckpointCorrupt", err)
	}

	// Values no recursion produces: each would resume into NaNs or a
	// silently wrong series.
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name  string
		apply func(*HoskingState)
	}{
		{"NaN D", func(s *HoskingState) { s.DPrev = nan }},
		{"zero D", func(s *HoskingState) { s.DPrev = 0 }},
		{"+Inf D", func(s *HoskingState) { s.DPrev = inf }},
		{"NaN N", func(s *HoskingState) { s.NPrev = nan }},
		{"-Inf N", func(s *HoskingState) { s.NPrev = -inf }},
		{"+Inf v", func(s *HoskingState) { s.V = inf }},
		{"NaN v", func(s *HoskingState) { s.V = nan }},
		{"v above 1", func(s *HoskingState) { s.V = 1.5 }},
		{"negative v", func(s *HoskingState) { s.V = -0.25 }},
		{"NaN in X", func(s *HoskingState) { s.X[7] = nan }},
		{"Inf in φ", func(s *HoskingState) { s.PhiPrev[3] = -inf }},
	} {
		bad := *st
		bad.X = append([]float64(nil), st.X...)
		bad.PhiPrev = append([]float64(nil), st.PhiPrev...)
		tc.apply(&bad)
		x, _, err := HoskingCheckpointed(context.Background(), n, h, rand.NewPCG(0, 0), &bad, 0, nil)
		if !errors.Is(err, errs.ErrCheckpointCorrupt) {
			t.Errorf("%s: got %v (%d points), want ErrCheckpointCorrupt", tc.name, err, len(x))
		}
	}
	// The untouched snapshot still resumes.
	if _, _, err := HoskingCheckpointed(context.Background(), n, h, rand.NewPCG(0, 0), st, 0, nil); err != nil {
		t.Errorf("valid snapshot rejected: %v", err)
	}
}

// progressLog records every progress event.
type progressLog struct{ events []obs.Event }

func (p *progressLog) Emit(ev obs.Event) { p.events = append(p.events, ev) }

// TestHoskingCheckpointedSnapshots resumes every periodic snapshot and
// requires the uninterrupted run's bits; it also pins where the marks
// fall (snapshot and progress on the same point) and that a failing
// SnapshotFunc aborts the run with its error and the snapshot.
func TestHoskingCheckpointedSnapshots(t *testing.T) {
	const h = 0.8
	seed := func() *rand.PCG { return rand.NewPCG(5, 0x6a55) }
	resumesExactly := func(t *testing.T, want []float64, st *HoskingState) {
		t.Helper()
		got, _, err := HoskingCheckpointed(context.Background(), len(want), h, rand.NewPCG(0, 0), st, 0, nil)
		if err != nil {
			t.Fatalf("resume from K=%d: %v", st.K, err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("resume from K=%d differs at %d", st.K, i)
			}
		}
	}
	run := func(t *testing.T, ctx context.Context, n, every int, save SnapshotFunc) []float64 {
		t.Helper()
		want, _, err := HoskingCheckpointed(context.Background(), n, h, seed(), nil, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		x, st, err := HoskingCheckpointed(ctx, n, h, seed(), nil, every, save)
		if err != nil || st != nil {
			t.Fatalf("checkpointed run: err=%v st=%v", err, st)
		}
		for i := range want {
			if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
				t.Fatalf("snapshots perturbed the output at %d", i)
			}
		}
		return want
	}

	t.Run("every-250", func(t *testing.T) {
		const n, every = 3000, 250
		var saved []*HoskingState
		want := run(t, context.Background(), n, every, func(st *HoskingState) error {
			saved = append(saved, st)
			return nil
		})
		if len(saved) != 11 {
			t.Fatalf("saved %d snapshots, want 11", len(saved))
		}
		for i, st := range saved {
			if wantK := 1 + (i+1)*every; st.K != wantK {
				t.Fatalf("snapshot %d at K=%d, want %d", i, st.K, wantK)
			}
			resumesExactly(t, want, st)
		}
	})

	t.Run("snapshot-on-progress-mark", func(t *testing.T) {
		const n = 4500
		reg, sink := obs.NewRegistry(), &progressLog{}
		ctx := obs.With(context.Background(), obs.New(reg, sink))
		var saved []*HoskingState
		want := run(t, ctx, n, progressEvery, func(st *HoskingState) error {
			saved = append(saved, st)
			return nil
		})
		if len(saved) != 1 || saved[0].K != 1+progressEvery {
			t.Fatalf("saved %d snapshots, want one at K=%d", len(saved), 1+progressEvery)
		}
		resumesExactly(t, want, saved[0])
		wantEvents := []obs.Event{{Stage: "fgn.hosking", Done: 1 + progressEvery, Total: n}, {Stage: "fgn.hosking", Done: n, Total: n}}
		if len(sink.events) != len(wantEvents) || sink.events[0] != wantEvents[0] || sink.events[1] != wantEvents[1] {
			t.Errorf("progress events %v, want %v", sink.events, wantEvents)
		}
		snap := reg.Snapshot()
		if got := snap.Counters["fgn.hosking.points"]; got != n {
			t.Errorf("fgn.hosking.points = %d, want %d", got, n)
		}
		if got := snap.Counters["checkpoint.snapshots"]; got != 1 {
			t.Errorf("checkpoint.snapshots = %d, want 1", got)
		}
	})

	t.Run("failing-save", func(t *testing.T) {
		const n, every = 3000, 250
		diskFull := errors.New("disk full")
		want, _, err := HoskingCheckpointed(context.Background(), n, h, seed(), nil, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		x, st, err := HoskingCheckpointed(context.Background(), n, h, seed(), nil, every, func(*HoskingState) error { return diskFull })
		if !errors.Is(err, diskFull) || x != nil {
			t.Fatalf("got err=%v with %d points, want the save error and no series", err, len(x))
		}
		if st == nil || st.K != 1+every {
			t.Fatalf("got snapshot %v, want the one at K=%d", st, 1+every)
		}
		resumesExactly(t, want, st)
	})
}

// TestHoskingCtxMatchesPlain ensures the refactored shared recursion did
// not change the legacy entry point's output.
func TestHoskingCtxMatchesPlain(t *testing.T) {
	ctx := context.Background()
	const n, h = 800, 0.8
	a, err := HoskingCtx(ctx, n, h, rand.New(rand.NewPCG(9, 9)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := HoskingCtx(context.Background(), n, h, rand.New(rand.NewPCG(9, 9)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outputs differ at %d", i)
		}
	}
}
