// Package backend defines the single source of truth for selecting a
// long-range-dependent Gaussian engine. One Backend is shared by the
// batch path (core.GenOptions.Backend), the streaming path
// (stream.Config.Backend), the HTTP API (?backend=), the CLI front ends
// (-backend) and the fleet's shard-routing key. The batch generator and
// the streaming layer once carried two-value enums of their own, with
// separate parsing and separate failure paths; this package replaced
// both, and their aliases are gone.
//
// Four engines are selectable:
//
//   - Hosking: the paper's exact conditional recursion, evaluated in
//     closed form in O(n log² n) — the reference every other engine is
//     validated against.
//   - DaviesHarte: exact-in-distribution O(n log n) circulant
//     embedding.
//   - Paxson: approximate O(n log n) spectral synthesis (Paxson 1997),
//     the fastest engine; statistically indistinguishable from exact
//     fGn for traffic-modeling purposes but not exact.
//   - Auto: a selection policy, not an engine — it resolves to Hosking
//     for short batch runs (exactness is free when n is small) and to
//     Paxson for long or streamed traces (bounded memory at any length
//     when streamed).
//
// The zero value is Hosking, so a zero GenOptions or stream Config
// selects the exact recursion; the integer values of Hosking and
// DaviesHarte equal those of the two enums this package replaced, so
// serialized configs keep their meaning.
package backend

import (
	"fmt"

	"vbr/internal/errs"
)

// Backend selects the Gaussian LRD engine behind generation.
type Backend int

const (
	// Hosking is the paper's exact conditional recursion (Eqs. 6–12),
	// its Levinson–Durbin coefficients taken in closed form: O(n log² n)
	// time, the reference engine.
	Hosking Backend = iota
	// DaviesHarte is the exact circulant-embedding FGN sampler:
	// O(n log n) time, O(n) memory for the 2n-point embedding.
	DaviesHarte
	// Paxson is the FFT-approximate fGn synthesis of Paxson (1997):
	// O(n log n), the fastest engine; the spectrum is sampled rather
	// than embedded, so the output is approximate (see DESIGN §15).
	Paxson
	// Auto is the selection policy: exact Hosking for short batch
	// requests, Paxson for long or streamed ones. Resolve applies it.
	Auto
)

// AutoCutoff is the batch length at which Auto switches from the exact
// Hosking recursion to Paxson synthesis. Below it exact Hosking costs a
// few milliseconds, so exactness is effectively free. Where the two
// engines' costs cross has not been measured since Hosking's closed
// form (O(n log² n) against Paxson's O(n log n)), so the value stays
// until a benchmark moves it.
const AutoCutoff = 8192

// String names the backend the way the CLI flags and the HTTP API
// spell it; Parse inverts it. Values outside the enum render as
// "backend(n)", which Parse rejects — the round-trip is total only
// over valid backends.
func (b Backend) String() string {
	switch b {
	case Hosking:
		return "hosking"
	case DaviesHarte:
		return "davies-harte"
	case Paxson:
		return "paxson"
	case Auto:
		return "auto"
	}
	return fmt.Sprintf("backend(%d)", int(b))
}

// Valid reports whether b names a registered engine or policy.
func (b Backend) Valid() bool {
	return b >= Hosking && b <= Auto
}

// Validate returns nil for a valid backend and an error wrapping
// errs.ErrUnknownBackend otherwise, so every layer — enum-typed
// options, query parameters, flags — fails through the same sentinel.
func (b Backend) Validate() error {
	if b.Valid() {
		return nil
	}
	return fmt.Errorf("backend: no engine numbered %d: %w", int(b), errs.ErrUnknownBackend)
}

// Resolve applies the Auto policy: a concrete backend resolves to
// itself, while Auto picks Paxson for streamed output (bounded-memory
// block synthesis at any length) and for batch requests past
// AutoCutoff, keeping the exact Hosking recursion for short batch runs.
func (b Backend) Resolve(n int, streaming bool) Backend {
	if b != Auto {
		return b
	}
	if streaming || n > AutoCutoff {
		return Paxson
	}
	return Hosking
}

// Parse maps the CLI/API spelling to a Backend. It accepts the
// canonical String forms plus the historical aliases ("daviesharte",
// "dh"); anything else fails with an error wrapping
// errs.ErrUnknownBackend.
func Parse(s string) (Backend, error) {
	switch s {
	case "hosking":
		return Hosking, nil
	case "davies-harte", "daviesharte", "dh":
		return DaviesHarte, nil
	case "paxson":
		return Paxson, nil
	case "auto":
		return Auto, nil
	}
	return 0, fmt.Errorf("backend: %q names no engine (want hosking, davies-harte, paxson or auto): %w", s, errs.ErrUnknownBackend)
}
