package vbr

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vbr/internal/cli"
	"vbr/internal/errs"
)

// Each cmd binary wraps errors on the way up to cli.Main, which maps
// them to exit codes with errors.Is. These tests pin the contract the
// wrapcheck analyzer enforces: every wrap layer uses %w, so sentinels
// stay visible through arbitrarily deep chains.

// cmdWrappers reproduces the wrapping idiom of each binary's error
// paths (the fmt.Errorf shapes that appear in cmd/*/main.go), so a
// future wrap added with %v instead of %w breaks this test the same
// way it would break the exit-code mapping.
var cmdWrappers = []struct {
	binary string
	wrap   func(error) error
}{
	{"vbrexperiments", func(err error) error { return fmt.Errorf("Figure 14: %w", err) }},
	{"vbrsim", func(err error) error { return fmt.Errorf("fig14 sweep: %w", err) }},
	{"vbranalyze", func(err error) error { return fmt.Errorf("reading trace: %w", err) }},
	{"vbrtrace", func(err error) error { return fmt.Errorf("writing trace: %w", err) }},
	{"vbrlint", func(err error) error { return fmt.Errorf("loading packages: %w", err) }},
}

func TestSentinelsSurviveCmdWrapping(t *testing.T) {
	sentinels := []error{
		errs.ErrCancelled,
		errs.ErrInvalidTrace,
		errs.ErrInvalidModel,
		errs.ErrInvalidWorkload,
		errs.ErrInfeasibleLags,
		errs.ErrInvalidSeries,
	}
	for _, w := range cmdWrappers {
		for _, sentinel := range sentinels {
			// One layer, as run() wraps a library error, and two layers,
			// as a library wrap followed by a run() wrap.
			once := w.wrap(sentinel)
			twice := w.wrap(fmt.Errorf("library layer: %w", sentinel))
			if !errors.Is(once, sentinel) {
				t.Errorf("%s: single wrap hides %v", w.binary, sentinel)
			}
			if !errors.Is(twice, sentinel) {
				t.Errorf("%s: double wrap hides %v", w.binary, sentinel)
			}
		}
	}
}

// TestExitCodeThroughWrapChain checks the cli.ExitCode mapping through
// the same wrap shapes the binaries produce: cancellation stays 130 and
// ordinary failures stay 1 no matter how deep the chain.
func TestExitCodeThroughWrapChain(t *testing.T) {
	for _, w := range cmdWrappers {
		cancelled := w.wrap(fmt.Errorf("inner: %w", errs.ErrCancelled))
		if got := cli.ExitCode(cancelled); got != 130 {
			t.Errorf("%s: wrapped ErrCancelled exits %d, want 130", w.binary, got)
		}
		failed := w.wrap(fmt.Errorf("inner: %w", errs.ErrInvalidTrace))
		if got := cli.ExitCode(failed); got != 1 {
			t.Errorf("%s: wrapped ErrInvalidTrace exits %d, want 1", w.binary, got)
		}
	}
}

// TestCLISentinelErrorPath drives a real binary down a sentinel error
// path: a corrupt trace file must surface errs.ErrInvalidTrace's
// message through the wrap chain and exit 1 (not 2: the invocation is
// well-formed, the data is not).
func TestCLISentinelErrorPath(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "corrupt.bin")
	if err := os.WriteFile(bad, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := runCmdExit(t, "vbranalyze", "-in", bad, "-table2")
	if code != 1 {
		t.Errorf("vbranalyze on corrupt trace: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "vbranalyze:") {
		t.Errorf("error not reported through the CLI prefix:\n%s", out)
	}
}
