package fgn

import (
	"context"
	"errors"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"vbr/internal/errs"
	"vbr/internal/obs"
)

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
// long generation returns well before it could complete. At 2^22
// points the run takes several seconds (about 5.5 s on a 2-vCPU
// x86-64 host), so the cancellation lands inside it.
func TestHoskingCtxCancelPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		rng := rand.New(rand.NewPCG(1994, 5))
		_, err := HoskingCtx(ctx, 1<<22, 0.8, rng)
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

// progressLog records every progress event.
type progressLog struct{ events []obs.Event }

func (p *progressLog) Emit(ev obs.Event) { p.events = append(p.events, ev) }

// TestHoskingProgressMarks pins where a batch run reports progress and
// flushes its point counter: every progressEvery points counted from
// the first conditioned point, so at 1 + 4,096, 1 + 8,192, …, and at
// the last point.
func TestHoskingProgressMarks(t *testing.T) {
	const n = 2*progressEvery + 500
	reg, sink := obs.NewRegistry(), &progressLog{}
	ctx := obs.With(context.Background(), obs.New(reg, sink))
	if _, err := HoskingCtx(ctx, n, 0.8, rand.New(rand.NewPCG(5, 0x6a55))); err != nil {
		t.Fatal(err)
	}
	want := []obs.Event{
		{Stage: "fgn.hosking", Done: 1 + progressEvery, Total: n},
		{Stage: "fgn.hosking", Done: 1 + 2*progressEvery, Total: n},
		{Stage: "fgn.hosking", Done: n, Total: n},
	}
	if !slices.Equal(sink.events, want) {
		t.Errorf("progress events %v, want %v", sink.events, want)
	}
	if got := reg.Snapshot().Counters["fgn.hosking.points"]; got != n {
		t.Errorf("fgn.hosking.points = %d, want %d", got, n)
	}
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
