// Package source is the scenario zoo: a pluggable contract for
// per-frame traffic models feeding the §5 multiplexer and the vbrd
// serving layer. The paper's evaluation multiplexes homogeneous
// Gamma/Pareto-fARIMA sources; the zoo keeps that model as its first
// member and adds the scenarios the 1994 paper predates or abstracts
// away — GoP-structured codec traffic, conservative-cascade
// multifractal burstiness, Poisson and on/off "VR-frame" baselines —
// plus a Mix combinator for heterogeneous populations.
//
// A Source produces one frame's bytes per Next call, restarts
// deterministically under Reset(seed), and describes itself through a
// Meta descriptor. Models are constructible by registry name + params
// (ParseSpec syntax: "name:key=value,key=value"), so the CLI and the
// HTTP API share one vocabulary, and every member adapts to the
// serving layer's stream.BlockSource through Blocks.
package source

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"vbr/internal/core"
)

// Source is a per-frame byte supplier: one traffic model instance.
// Implementations are deterministic functions of their construction
// parameters and the most recent Reset seed, and are not safe for
// concurrent use (multiplex consumers drive one goroutine per source
// population).
type Source interface {
	// Reset restarts the model from frame zero with all randomness
	// re-derived from seed: two Resets with equal seeds replay the
	// identical frame series.
	Reset(seed uint64)
	// Next returns the next frame's size in bytes (≥ 0, finite). The
	// stream is unbounded; the consumer decides how many frames to
	// take. Errors match errs.ErrCancelled when ctx fires mid-stream.
	Next(ctx context.Context) (float64, error)
	// Meta describes the model: registry name, expected mean/peak
	// rate, frame rate and frame-type vocabulary.
	Meta() Meta
}

// Meta describes a Source for routing, display and admission sizing.
type Meta struct {
	// Name is the registry name of the model ("farima", "gop", ...).
	Name string
	// MeanBytes is the model's expected bytes per frame; 0 when the
	// model cannot state one.
	MeanBytes float64
	// PeakBytes bounds a single frame's bytes for models with a hard
	// envelope (on/off peak rate); 0 means unbounded (heavy tails).
	PeakBytes float64
	// FrameRate is the model's frames per second.
	FrameRate float64
	// FrameTags is the frame-type vocabulary the model cycles through
	// (e.g. I/P/B for GoP traffic); nil for untyped models.
	FrameTags []string
}

// MeanBps is the expected load in bits per second (0 when unknown).
func (m Meta) MeanBps() float64 { return m.MeanBytes * 8 * m.FrameRate }

// PeakBps is the peak envelope in bits per second (0 when unbounded).
func (m Meta) PeakBps() float64 { return m.PeakBytes * 8 * m.FrameRate }

// SubSeed derives the i-th child seed from a base seed by the batch
// engine's splitmix64 step, core.BatchSeed, so multi-member
// populations (mix members, multiplexer combos) get decorrelated yet
// reproducible randomness from one user-facing seed.
func SubSeed(base uint64, i int) uint64 { return core.BatchSeed(base, i) }

// Params carries a model's numeric parameters by name. Builders merge
// user params over their registered defaults; a key the model does not
// declare is a construction error, so typos fail loudly.
type Params map[string]float64

// clone copies p so builders can mutate their working set freely.
func (p Params) clone() Params {
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// merged overlays user params on the defaults, rejecting keys the
// model does not declare and non-finite values.
func (p Params) merged(user Params) (Params, error) {
	out := p.clone()
	for k, v := range user {
		if _, ok := out[k]; !ok {
			known := make([]string, 0, len(out))
			for dk := range out {
				known = append(known, dk)
			}
			sort.Strings(known)
			return nil, fmt.Errorf("source: unknown parameter %q (known: %s)", k, strings.Join(known, ", "))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("source: parameter %s must be finite, got %v", k, v)
		}
		out[k] = v
	}
	return out, nil
}

// Loop cycles over a fixed series starting at offset start, wrapping at
// the end so every value is used once per pass — the lagged-copy
// primitive the classic §5.1 trace multiplexer is built from. Reset
// rewinds to the start offset (the series itself carries no
// randomness).
func Loop(vals []float64, start int, frameRate float64) (Source, error) {
	if len(vals) == 0 {
		return nil, fmt.Errorf("source: empty series to loop over")
	}
	if start < 0 {
		return nil, fmt.Errorf("source: loop offset must be ≥ 0, got %d", start)
	}
	return &loopSource{vals: vals, start: start % len(vals), fps: frameRate}, nil
}

type loopSource struct {
	vals  []float64
	start int
	fps   float64
	i     int
}

// Reset implements Source; the seed is unused because a fixed series
// carries no randomness.
func (l *loopSource) Reset(uint64) { l.i = 0 }

//vbrlint:hotpath
func (l *loopSource) Next(ctx context.Context) (float64, error) {
	v := l.vals[(l.start+l.i)%len(l.vals)]
	l.i++
	return v, nil
}

func (l *loopSource) Meta() Meta {
	var sum, peak float64
	for _, v := range l.vals {
		sum += v
		if v > peak {
			peak = v
		}
	}
	return Meta{
		Name:      "trace-loop",
		MeanBytes: sum / float64(len(l.vals)),
		PeakBytes: peak,
		FrameRate: l.fps,
	}
}
