package backend

import (
	"errors"
	"testing"

	"vbr/internal/errs"
)

// TestParseStringRoundTrip pins the canonical spelling of every valid
// backend: String feeds Parse and comes back unchanged.
func TestParseStringRoundTrip(t *testing.T) {
	for _, b := range []Backend{Hosking, DaviesHarte, Paxson, Auto} {
		got, err := Parse(b.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", b.String(), err)
		}
		if got != b {
			t.Fatalf("Parse(%q) = %v, want %v", b.String(), got, b)
		}
	}
}

// TestParseAliases pins one spelling per engine: the retired aliases
// of Davies–Harte ("daviesharte", "dh") fail like any unknown name.
func TestParseAliases(t *testing.T) {
	for _, in := range []string{"daviesharte", "dh"} {
		if b, err := Parse(in); !errors.Is(err, errs.ErrUnknownBackend) {
			t.Errorf("Parse(%q) = %v, %v; want ErrUnknownBackend", in, b, err)
		}
	}
}

// TestParseUnknown pins the uniform failure path: every bad spelling
// wraps errs.ErrUnknownBackend so CLI and HTTP layers classify it the
// same way.
func TestParseUnknown(t *testing.T) {
	for _, in := range []string{"", "hoskings", "DAVIES-HARTE", "fft", "exact", "backend(2)"} {
		if _, err := Parse(in); !errors.Is(err, errs.ErrUnknownBackend) {
			t.Errorf("Parse(%q) = %v, want ErrUnknownBackend", in, err)
		}
	}
}

// TestValidate pins the enum-side failure path for out-of-range values
// such as Backend(99) arriving through a typed options struct.
func TestValidate(t *testing.T) {
	for _, b := range []Backend{Hosking, DaviesHarte, Paxson, Auto} {
		if err := b.Validate(); err != nil {
			t.Errorf("Validate(%v): %v", b, err)
		}
	}
	for _, b := range []Backend{-1, 4, 99} {
		err := b.Validate()
		if !errors.Is(err, errs.ErrUnknownBackend) {
			t.Errorf("Validate(%d) = %v, want ErrUnknownBackend", int(b), err)
		}
	}
}

// TestResolve pins the Auto policy: Paxson for streams and long batch
// requests, exact Hosking below the cutoff, and concrete backends
// untouched.
func TestResolve(t *testing.T) {
	cases := []struct {
		b         Backend
		n         int
		streaming bool
		want      Backend
	}{
		{Auto, 1024, false, Hosking},
		{Auto, AutoCutoff, false, Hosking},
		{Auto, AutoCutoff + 1, false, Paxson},
		{Auto, 171_000, false, Paxson},
		{Auto, 16, true, Paxson},
		{Hosking, 1 << 20, true, Hosking},
		{DaviesHarte, 1 << 20, false, DaviesHarte},
		{Paxson, 16, false, Paxson},
	}
	for _, c := range cases {
		if got := c.b.Resolve(c.n, c.streaming); got != c.want {
			t.Errorf("%v.Resolve(%d, %v) = %v, want %v", c.b, c.n, c.streaming, got, c.want)
		}
	}
}

// TestStringUnknown pins the out-of-range rendering so error messages
// stay self-describing.
func TestStringUnknown(t *testing.T) {
	if got := Backend(42).String(); got != "backend(42)" {
		t.Errorf("Backend(42).String() = %q", got)
	}
}
