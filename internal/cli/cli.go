// Package cli provides the shared process scaffolding of the command
// binaries: a signal-aware context, error-to-exit-code mapping, and a
// typed usage error. Commands are written as run(ctx, args, stdout,
// stderr) error functions so deferred cleanup (file flushes and
// closes) always executes — os.Exit is called exactly once, in Main,
// after every defer has run.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"vbr/internal/errs"
)

// UsageError marks a command-line usage problem; Main exits 2.
type UsageError struct{ Msg string }

// Error implements the error interface.
func (e *UsageError) Error() string { return e.Msg }

// Usagef builds a *UsageError.
func Usagef(format string, args ...any) error {
	return &UsageError{Msg: fmt.Sprintf(format, args...)}
}

// Exit codes follow the shell convention: 2 for usage errors and 130
// (128+SIGINT) for interrupted runs.
const (
	ExitOK        = 0
	ExitFailure   = 1
	ExitUsage     = 2
	ExitInterrupt = 130
)

// ExitCode maps an error to its process exit code.
func ExitCode(err error) int {
	var ue *UsageError
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return ExitOK
	case errors.As(err, &ue):
		return ExitUsage
	case errors.Is(err, errs.ErrUnknownModel), errors.Is(err, errs.ErrUnknownBackend):
		// Request-shaped failures: the command line named a traffic
		// model or generation backend that does not exist.
		return ExitUsage
	case errors.Is(err, errs.ErrCancelled), errors.Is(err, context.Canceled):
		return ExitInterrupt
	default:
		return ExitFailure
	}
}

// Main runs a command body under a context that cancels on SIGINT or
// SIGTERM, prints a non-nil error to stderr with the command prefix, and
// returns the exit code for os.Exit. The first signal cancels the
// context so the body can unwind. The handler stays
// installed until Main returns, so later signals are absorbed instead
// of killing the process: vbrfleet's workers share its process group,
// so a terminal Ctrl-C reaches every worker before vbrfleet's drain
// sends it SIGTERM, and a default handler restored after the first
// signal would kill the worker mid-drain. A body must therefore watch
// ctx in every long loop; SIGKILL stops one that does not.
func Main(name string, body func(ctx context.Context, args []string, stdout, stderr io.Writer) error) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := body(ctx, os.Args[1:], os.Stdout, os.Stderr)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	}
	return ExitCode(err)
}

// ParseFlags parses args into fs, converting parse failures into usage
// errors (help requests pass through as flag.ErrHelp).
func ParseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return &UsageError{Msg: err.Error()}
	}
	return nil
}
