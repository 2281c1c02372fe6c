// Fixture for the ctxcheck analyzer in a main package: func main may
// make the program's root context; no other function may.
package main

import "context"

func main() {
	ctx := context.Background()
	_ = run(ctx)
	go func() {
		_ = run(context.Background()) // still inside func main
	}()
}

func run(ctx context.Context) error {
	return ctx.Err()
}

// helper shares the package with main but is not the entry point.
func helper() error {
	return run(context.Background()) // want "context.Background.. outside internal/cli and func main severs cancellation"
}

type app struct{}

// main as a method is not the program entry point either.
func (app) main() {
	_ = run(context.Background()) // want "context.Background.. outside internal/cli and func main severs cancellation"
}

var _ = helper
var _ = app.main
