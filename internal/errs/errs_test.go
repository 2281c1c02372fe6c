package errs

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestCancelledMatchesBothSentinels(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Cancelled(ctx)
	if !errors.Is(err, ErrCancelled) {
		t.Errorf("Cancelled() does not match ErrCancelled: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Cancelled() does not match context.Canceled: %v", err)
	}
}

func TestCancelledDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	<-ctx.Done()
	err := Cancelled(ctx)
	if !errors.Is(err, ErrCancelled) {
		t.Errorf("deadline Cancelled() does not match ErrCancelled: %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline Cancelled() does not match DeadlineExceeded: %v", err)
	}
}

func TestWrappedSentinelsSurviveFmtErrorf(t *testing.T) {
	cases := []struct {
		name     string
		sentinel error
	}{
		{"trace", ErrInvalidTrace},
		{"model", ErrInvalidModel},
		{"workload", ErrInvalidWorkload},
		{"lags", ErrInfeasibleLags},
		{"target", ErrTargetUnreachable},
		{"combos", ErrAllCombosFailed},
	}
	for _, c := range cases {
		wrapped := fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", c.sentinel))
		if !errors.Is(wrapped, c.sentinel) {
			t.Errorf("%s: double-wrapped error does not match sentinel", c.name)
		}
		if errors.Is(wrapped, ErrCancelled) && c.sentinel != ErrCancelled {
			t.Errorf("%s: unexpected cross-match with ErrCancelled", c.name)
		}
	}
}
