// Fixture for the ctxcheck analyzer, type-checked under the package
// path vbr/internal/queue so the scope rules apply.
package fixture

import "context"

// Bad loops, returns an error, and cannot be cancelled.
func Bad(xs []float64) error { // want "exported Bad contains a loop but takes no context.Context"
	for range xs {
	}
	return nil
}

// Good is a context-free wrapper for GoodCtx. It has no loop, so rule A
// passes it, but a *Ctx sibling no longer sanctions its root context.
func Good(xs []float64) error {
	return GoodCtx(context.Background(), xs) // want "context.Background.. outside internal/cli and func main severs cancellation"
}

// GoodCtx accepts a context, so its loop is cancellable.
func GoodCtx(ctx context.Context, xs []float64) error {
	for range xs {
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	return nil
}

// Sum loops but has no error result: there is no channel to surface
// ctx.Err(), so rule A skips it.
func Sum(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v
	}
	return s
}

func severed() context.Context {
	return context.Background() // want "context.Background.. outside internal/cli and func main severs cancellation"
}
