// Package errs defines the sentinel errors shared across the vbr
// subsystems, so callers can classify failures with errors.Is/errors.As
// instead of string matching. Packages wrap these with fmt.Errorf("...:
// %w", ...) to add context while keeping the sentinel reachable.
package errs

import (
	"context"
	"errors"
	"fmt"
)

var (
	// ErrCancelled reports that an operation was interrupted by context
	// cancellation or deadline expiry before completing. Errors carrying
	// it also match the originating context error (context.Canceled or
	// context.DeadlineExceeded).
	ErrCancelled = errors.New("operation cancelled")

	// ErrInvalidTrace reports a structurally invalid bandwidth trace
	// (no frames, inconsistent slice data, negative or non-finite sizes).
	ErrInvalidTrace = errors.New("invalid trace")

	// ErrInvalidModel reports model parameters outside their legal
	// ranges (μ_Γ, σ_Γ, m_T ≤ 0 or H outside (0,1)).
	ErrInvalidModel = errors.New("invalid model parameters")

	// ErrInvalidWorkload reports an arrival process the queueing
	// simulator cannot run (empty, non-positive interval, bad arrivals).
	ErrInvalidWorkload = errors.New("invalid workload")

	// ErrInfeasibleLags reports that N lags at the required minimum
	// pairwise spacing cannot be placed on the trace circle (§5.1).
	ErrInfeasibleLags = errors.New("infeasible lag placement")

	// ErrTargetUnreachable reports a capacity search whose loss target
	// is still violated at the top of the bracket.
	ErrTargetUnreachable = errors.New("loss target unreachable within capacity bracket")

	// ErrAllCombosFailed reports a multiplexer run in which every lag
	// combination failed, leaving no survivors to average over.
	ErrAllCombosFailed = errors.New("all lag combinations failed")

	// ErrInvalidSeries reports a sample series an estimator cannot work
	// on: too short, constant, containing NaN/Inf values, or otherwise
	// degenerate for the statistic being fitted.
	ErrInvalidSeries = errors.New("invalid sample series")

	// ErrUnknownModel reports a traffic-model name or spec that no
	// registered scenario-zoo builder recognizes. CLI front ends map it
	// to a usage error (exit 2); the HTTP layer maps it to 400.
	ErrUnknownModel = errors.New("unknown traffic model")

	// ErrUnknownBackend reports a generation-backend value — enum or
	// string — that names none of the registered Gaussian engines
	// (hosking, davies-harte, paxson, auto). Like ErrUnknownModel it is
	// a request-shaped failure: CLI front ends map it to a usage error
	// (exit 2) and the HTTP layer maps it to 400.
	ErrUnknownBackend = errors.New("unknown generation backend")
)

// Cancelled wraps ctx's error so that the result matches both
// ErrCancelled and the context error. It must only be called when
// ctx.Err() != nil.
func Cancelled(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrCancelled, ctx.Err())
}
