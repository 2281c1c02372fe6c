package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches expectation comments in fixtures. The quoted text is a
// regexp the diagnostic message on that line must match. Both line
// comments (// want "...") and block comments (/* want "..." */, for
// lines whose trailing comment slot is taken by a directive under test)
// are recognized.
var wantRe = regexp.MustCompile(`want "([^"]*)"`)

// fixtureWants scans every fixture file in dir and returns the expected
// message patterns keyed by "file:line".
func fixtureWants(t *testing.T, dir string) map[string][]*regexp.Regexp {
	t.Helper()
	wants := map[string][]*regexp.Regexp{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, m[1], err)
				}
				key := fmt.Sprintf("%s:%d", path, i+1)
				wants[key] = append(wants[key], re)
			}
		}
	}
	return wants
}

// TestGolden checks each analyzer against its fixture package: every
// reported diagnostic must match a // want comment on its line, and
// every want must be hit exactly once.
func TestGolden(t *testing.T) {
	cases := []struct {
		dir        string
		importPath string // synthetic path the fixture is checked under
		analyzer   string
	}{
		{"determinism", "vbr/test/determinism", "determinism"},
		{"floateq", "vbr/test/floateq", "floateq"},
		// ctxcheck's scope rules key off the package path, so the
		// fixture impersonates a real scope package.
		{"ctxcheck", "vbr/internal/queue", "ctxcheck"},
		// Rule B's func main allowance keys off the package name.
		{"ctxmain", "vbr/test/ctxmain", "ctxcheck"},
		// Rule C keys off the server package path, so this fixture
		// impersonates it.
		{"serverctx", "vbr/internal/server", "ctxcheck"},
		{"wrapcheck", "vbr/test/wrapcheck", "wrapcheck"},
		{"seedplumb", "vbr/test/seedplumb", "seedplumb"},
		{"goleak", "vbr/test/goleak", "goleak"},
		{"lockguard", "vbr/test/lockguard", "lockguard"},
		{"atomicmix", "vbr/test/atomicmix", "atomicmix"},
		{"wgdiscipline", "vbr/test/wgdiscipline", "wgdiscipline"},
		{"hotalloc", "vbr/test/hotalloc", "hotalloc"},
		// The directive fixture reuses floateq as the carrier analyzer;
		// malformed directives surface under the "directive" name.
		{"directive", "vbr/test/directive", "floateq"},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			// A fresh loader per fixture: synthetic import paths like
			// vbr/internal/queue must not collide with real packages.
			l, err := NewLoader("")
			if err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join("testdata", "src", tc.dir)
			pkg, err := l.LoadDir(dir, tc.importPath)
			if err != nil {
				t.Fatal(err)
			}
			var selected []*Analyzer
			for _, a := range Analyzers() {
				if a.Name == tc.analyzer {
					selected = append(selected, a)
				}
			}
			if len(selected) != 1 {
				t.Fatalf("analyzer %q not registered", tc.analyzer)
			}
			diags := RunAnalyzers([]*Package{pkg}, selected)
			wants := fixtureWants(t, dir)

			matched := map[string][]bool{}
			for _, d := range diags {
				key := fmt.Sprintf("%s:%d", d.File, d.Line)
				res, ok := wants[key]
				if !ok {
					t.Errorf("unexpected diagnostic: %s", d)
					continue
				}
				if matched[key] == nil {
					matched[key] = make([]bool, len(res))
				}
				hit := false
				for i, re := range res {
					if !matched[key][i] && re.MatchString(d.Message) {
						matched[key][i] = true
						hit = true
						break
					}
				}
				if !hit {
					t.Errorf("diagnostic at %s does not match any want pattern: %s", key, d)
				}
			}
			for key, res := range wants {
				for i, re := range res {
					if matched[key] == nil || !matched[key][i] {
						t.Errorf("want %q at %s: no matching diagnostic", re, key)
					}
				}
			}
		})
	}
}

// TestFormatVerbs pins the format-string scanner the wrapcheck analyzer
// pairs verbs and arguments with.
func TestFormatVerbs(t *testing.T) {
	cases := []struct {
		format string
		want   string
	}{
		{"plain", ""},
		{"%v", "v"},
		{"%d frames in %s", "ds"},
		{"100%% done: %w", "w"},
		{"%+v %-8s %#x % d %08.3f", "vsxdf"},
		{"%*d", "*d"},
		{"%.*f", "*f"},
		{"%6.2f", "f"},
	}
	for _, c := range cases {
		got := string(formatVerbs(c.format))
		if got != c.want {
			t.Errorf("formatVerbs(%q) = %q, want %q", c.format, got, c.want)
		}
	}
}
