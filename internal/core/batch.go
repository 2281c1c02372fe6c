package core

import (
	"context"
	"errors"
	"fmt"

	"vbr/internal/errs"
	"vbr/internal/genpool"
	"vbr/internal/obs"
	"vbr/internal/runner"
)

// GenerateBatch produces k independent realizations of the model, each
// n frames, fanning the work over min(GOMAXPROCS, k) workers of
// runner.Run. The traces are independently seeded by a deterministic
// derivation from opts.Seed (splitmix64 over the trace index), so the
// result depends only on (model, k, n, opts) — never on scheduling —
// and trace i of a batch equals a solo GenerateCtx call with the
// derived seed.
//
// The workers share one generation pool: the Hosking coefficients (or
// the Davies–Harte eigenvalue vector) and the Eq. 13
// mapping table are computed once and reused by every trace, which is
// where the batch speedup over k sequential GenerateCtx calls comes from.
// opts.Pool is used when set (sharing warmth with other callers);
// otherwise a private pool spans just this batch.
//
// The first failure cancels the remaining work; the error identifies
// the trace ("core: batch trace %d: ...") and wraps the cause. A trace
// that panics fails the same way, as a *runner.PanicError.
func (m Model) GenerateBatch(ctx context.Context, k, n int, opts GenOptions) ([][]float64, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("core: batch size must be ≥ 1, got %d", k)
	}
	if n < 1 {
		return nil, fmt.Errorf("core: length must be ≥ 1, got %d", n)
	}
	if opts.Pool == nil {
		opts.Pool = genpool.New(0)
	}

	scope := obs.From(ctx)
	defer scope.Span("core.batch")()
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := runner.Run(bctx, k, runner.Options{
		Label: func(i int) string { return fmt.Sprintf("core: batch trace %d", i) },
	}, func(ctx context.Context, i int) ([]float64, error) {
		failed := true
		defer func() {
			if failed {
				cancel() // the first failure, a panic included, stops the batch
			}
		}()
		o := opts
		o.Seed = BatchSeed(opts.Seed, i)
		tr, err := m.GenerateCtx(ctx, n, o)
		if err != nil {
			return nil, err
		}
		failed = false
		scope.Count("core.batch.traces", 1)
		return tr, nil
	})
	failures := runner.Errors(results)
	for _, err := range failures {
		// A trace cut short by another's failure reports a cancellation;
		// the failure that caused it is the error to return.
		if !errors.Is(err, errs.ErrCancelled) {
			return nil, err
		}
	}
	if len(failures) > 0 {
		return nil, failures[0]
	}
	out := make([][]float64, k)
	for i, r := range results {
		out[i] = r.Value
	}
	return out, nil
}

// BatchSeed derives the seed of trace i in a batch from the batch seed:
// the splitmix64 output function over base + (i+1)·golden-ratio
// increments. The derivation is part of the API contract — trace i of
// GenerateBatch(seed) is bitwise-identical to GenerateCtx with
// Seed = BatchSeed(seed, i) — so callers can regenerate any single
// batch member without rerunning the batch.
func BatchSeed(base uint64, i int) uint64 {
	z := base + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
