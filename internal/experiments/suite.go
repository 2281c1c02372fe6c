// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment returns a typed result carrying both the
// raw data series (for external plotting) and a formatted text rendering
// in the spirit of the paper's tables. The cmd/vbrexperiments binary and
// the repository's top-level benchmarks drive this package.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"

	"vbr/internal/backend"
	"vbr/internal/core"
	"vbr/internal/obs"
	"vbr/internal/synth"
	"vbr/internal/trace"
)

// span opens the per-figure wall-time span "experiments.<name>.seconds"
// on the run's observability scope (a no-op without one):
//
//	defer span(ctx, "fig14")()
func span(ctx context.Context, name string) func() {
	return obs.From(ctx).Span("experiments." + name)
}

// Scale selects the cost of the reproduction run.
type Scale int

const (
	// QuickScale uses a 30,000-frame trace (~21 minutes of video) and
	// reduced parameter grids: every experiment exercises its full code
	// path in seconds. Used by tests and benchmarks.
	QuickScale Scale = iota
	// PaperScale uses the paper's full 171,000-frame, 2-hour trace and
	// grids close to the paper's.
	PaperScale
)

// Suite holds the shared inputs of all experiments: the synthetic
// empirical trace (the Star Wars substitute) and the generation config
// that produced it.
type Suite struct {
	Scale Scale
	Cfg   synth.Config
	Trace *trace.Trace

	// UseSlices switches the queueing simulations to slice granularity
	// (the paper's resolution); frame granularity is ~30× faster with
	// the same curve shapes for buffers above a few slice times.
	UseSlices bool

	fitted *core.Model // lazily fitted model (Fig. 16)
}

// NewSuite generates the empirical-substitute trace at the given scale.
func NewSuite(ctx context.Context, scale Scale) (*Suite, error) {
	cfg := synth.DefaultConfig()
	if scale == QuickScale {
		cfg.Frames = 30000
		cfg.MeanSceneFrames = 120
	}
	tr, err := synth.Generate(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &Suite{Scale: scale, Cfg: cfg, Trace: tr}, nil
}

// LoadSuite builds a suite around a trace read from the given reader
// (vbrtrace's binary format); the scale is inferred from the trace
// length. Used by the analysis and simulation commands.
func LoadSuite(r io.Reader) (*Suite, error) {
	tr, err := trace.ReadBinary(r)
	if err != nil {
		return nil, err
	}
	scale := PaperScale
	if len(tr.Frames) < 100000 {
		scale = QuickScale
	}
	return &Suite{Scale: scale, Cfg: synth.DefaultConfig(), Trace: tr}, nil
}

// GenerateSuite builds a suite from a freshly generated Davies–Harte
// synthetic trace of the given length and seed. It is the only
// generating entry point without a context, kept with this signature
// because the separately built benchmark module (_perfbench) calls it;
// callers holding a context use GenerateSuiteBackend.
func GenerateSuite(frames int, seed uint64) (*Suite, error) {
	//vbrlint:ignore ctxcheck the benchmark module pins this signature; Davies–Harte synthesis is O(n log n)
	return GenerateSuiteBackend(context.Background(), frames, seed, backend.DaviesHarte)
}

// GenerateSuiteBackend builds a suite from a freshly generated synthetic
// trace of the given length and seed, with an explicit Gaussian backend
// behind the movie's activity backbone (the -backend flag of the
// simulation commands). Used by the analysis and simulation commands
// when no input file is supplied.
func GenerateSuiteBackend(ctx context.Context, frames int, seed uint64, b backend.Backend) (*Suite, error) {
	cfg := synth.DefaultConfig()
	cfg.Frames = frames
	cfg.Seed = seed
	cfg.Backend = b
	scale := PaperScale
	if frames < 100000 {
		scale = QuickScale
		cfg.MeanSceneFrames = 120
	}
	tr, err := synth.Generate(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &Suite{Scale: scale, Cfg: cfg, Trace: tr}, nil
}

// Model fits (once) and returns the paper's four-parameter model for this
// suite's trace; a cancelled fit is not cached.
func (s *Suite) Model(ctx context.Context) (core.Model, error) {
	if s.fitted != nil {
		return *s.fitted, nil
	}
	m, err := core.FitCtx(ctx, s.Trace.Frames, core.DefaultFitOptions())
	if err != nil {
		return core.Model{}, err
	}
	s.fitted = &m
	return m, nil
}

// table renders rows of label/value pairs with aligned columns.
func table(title string, header []string, rows [][]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}
