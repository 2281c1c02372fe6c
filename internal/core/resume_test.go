package core

import (
	"context"
	"errors"
	"testing"

	"vbr/internal/backend"
	"vbr/internal/errs"
)

// interruptCtx cancels deterministically after limit Err() calls.
type interruptCtx struct {
	context.Context
	calls, limit int
}

func (c *interruptCtx) Err() error {
	c.calls++
	if c.calls > c.limit {
		return context.Canceled
	}
	return nil
}

func testModel() Model {
	return Model{MuGamma: 27791, SigmaGamma: 6254, TailSlope: 12.6, Hurst: 0.8}
}

func TestGenerateResumableMatchesGenerate(t *testing.T) {
	ctx := context.Background()
	m := testModel()
	opts := DefaultGenOptions()
	opts.Seed = 7
	const n = 2000

	want, err := m.GenerateCtx(ctx, n, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Uninterrupted resumable run.
	got, st, err := m.GenerateResumable(context.Background(), n, opts, nil)
	if err != nil || st != nil {
		t.Fatalf("uninterrupted resumable run: err=%v st=%v", err, st)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("uninterrupted resumable output differs at %d: %v vs %v", i, got[i], want[i])
		}
	}

	// Interrupted halfway, then resumed: still bitwise-identical.
	cctx := &interruptCtx{Context: context.Background(), limit: n / 2}
	_, snap, err := m.GenerateResumable(cctx, n, opts, nil)
	if !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("interrupted run: err=%v, want ErrCancelled", err)
	}
	if snap == nil || snap.K <= 0 || snap.K >= n {
		t.Fatalf("interrupted run returned unusable snapshot: %+v", snap)
	}
	resumed, st2, err := m.GenerateResumable(context.Background(), n, opts, snap)
	if err != nil || st2 != nil {
		t.Fatalf("resume: err=%v", err)
	}
	for i := range want {
		if resumed[i] != want[i] {
			t.Fatalf("resumed output differs at %d: %v vs %v", i, resumed[i], want[i])
		}
	}
}

func TestGenerateResumableRejectsDaviesHarte(t *testing.T) {
	m := testModel()
	opts := DefaultGenOptions()
	opts.Backend = backend.DaviesHarte
	if _, _, err := m.GenerateResumable(context.Background(), 100, opts, nil); err == nil {
		t.Fatal("expected an error for the non-checkpointable generator")
	}
}

func TestGenerateCtxCancelled(t *testing.T) {
	m := testModel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.GenerateCtx(ctx, 5000, DefaultGenOptions()); !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("GenerateCtx: got %v, want ErrCancelled", err)
	}
	if _, err := m.GenerateIIDCtx(ctx, 100000, DefaultGenOptions()); !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("GenerateIIDCtx: got %v, want ErrCancelled", err)
	}
	if _, err := m.GenerateGaussianCtx(ctx, 5000, DefaultGenOptions()); !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("GenerateGaussianCtx: got %v, want ErrCancelled", err)
	}
}

func TestValidateMatchesSentinel(t *testing.T) {
	bad := Model{MuGamma: -1, SigmaGamma: 1, TailSlope: 1, Hurst: 0.8}
	if err := bad.Validate(); !errors.Is(err, errs.ErrInvalidModel) {
		t.Fatalf("got %v, want ErrInvalidModel", err)
	}
}
