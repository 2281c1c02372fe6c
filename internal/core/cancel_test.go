package core

import (
	"context"
	"errors"
	"testing"

	"vbr/internal/errs"
)

func testModel() Model {
	return Model{MuGamma: 27791, SigmaGamma: 6254, TailSlope: 12.6, Hurst: 0.8}
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
