package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"vbr/internal/errs"
	"vbr/internal/genpool"
	"vbr/internal/obs"
)

// GenerateBatch produces k independent realizations of the model, each
// n frames, fanning the work over min(GOMAXPROCS, k) workers. The
// traces are independently seeded by a deterministic derivation from
// opts.Seed (splitmix64 over the trace index), so the result depends
// only on (model, k, n, opts) — never on scheduling — and trace i of a
// batch equals a solo GenerateCtx call with the derived seed.
//
// The workers share one generation pool: the Hosking coefficients (or
// the Davies–Harte eigenvalue vector) and the Eq. 13
// mapping table are computed once and reused by every trace, which is
// where the batch speedup over k sequential GenerateCtx calls comes from.
// opts.Pool is used when set (sharing warmth with other callers);
// otherwise a private pool spans just this batch.
//
// The first failure cancels the remaining work; the error identifies
// the trace ("core: batch trace %d: ...") and wraps the cause.
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

	workers := runtime.GOMAXPROCS(0)
	if workers > k {
		workers = k
	}
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()

	out := make([][]float64, k)
	idx := make(chan int)
	var wg sync.WaitGroup
	var once sync.Once
	var firstErr error
	fail := func(err error) {
		once.Do(func() {
			firstErr = err
			cancel()
		})
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				o := opts
				o.Seed = BatchSeed(opts.Seed, i)
				tr, err := m.GenerateCtx(bctx, n, o)
				if err != nil {
					fail(fmt.Errorf("core: batch trace %d: %w", i, err))
					return
				}
				out[i] = tr
				scope.Count("core.batch.traces", 1)
			}
		}()
	}
feed:
	for i := 0; i < k; i++ {
		select {
		case idx <- i:
		case <-bctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, errs.Cancelled(ctx)
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
