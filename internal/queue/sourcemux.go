package queue

import (
	"context"
	"fmt"
	"sync"

	"vbr/internal/source"
)

// Aggregator is the multiplexer contract the capacity search and the
// experiment suites consume: something that can simulate its aggregate
// workload against a (capacity, buffer) point, say how many sources it
// multiplexes, and hand over the combination workloads it averages, from
// which the search takes its zero-loss dual. The classic lagged-trace
// Mux and the scenario-zoo SourceMux both implement it, so a Q–C sweep
// runs unchanged over either population.
type Aggregator interface {
	// AverageLossCtx simulates the aggregate workload at the given
	// capacity (bits/s) and buffer (bytes), averaging losses over the
	// multiplexer's lag/seed combinations. useSlices selects slice
	// granularity where the population supports it.
	AverageLossCtx(ctx context.Context, capacityBps, bufferBytes float64, useSlices bool, opts Options) (*Result, error)
	// NSources reports how many sources share the buffer.
	NSources() int
	// Workloads returns the aggregate workload of every lag/seed
	// combination AverageLossCtx averages over, at slice granularity
	// when useSlices is set. Callers must not modify them.
	Workloads(ctx context.Context, useSlices bool) ([]Workload, error)
}

var (
	_ Aggregator = (*Mux)(nil)
	_ Aggregator = (*SourceMux)(nil)
)

// SourceMuxConfig parameterizes a scenario-zoo multiplexer: a
// population of Source models sharing one buffer.
type SourceMuxConfig struct {
	// Sources is the population; every member must report the same
	// frame rate (heterogeneous models are fine, heterogeneous clocks
	// are not).
	Sources []source.Source
	// Frames is the number of frames each simulated workload spans.
	Frames int
	// Combos is the number of independently reseeded replications to
	// average over, the zoo analogue of §5.1's lag combinations. Zero
	// selects the paper's rule: 1 for ≤ 2 sources, 6 otherwise.
	Combos int
	// Seed drives all randomness: replication c reseeds source j with
	// SubSeed(SubSeed(Seed, c), j).
	Seed uint64
}

// SourceMux multiplexes a heterogeneous population of scenario-zoo
// sources into aggregate workloads, replacing §5.1's lagged trace
// copies with independently seeded model replications. It implements
// Aggregator, so capacity searches and Q–C sweeps treat it exactly
// like the classic Mux.
type SourceMux struct {
	sources []source.Source
	frames  int
	combos  int
	seed    uint64
	fps     float64

	// Workloads are deterministic given Seed; build once, reuse across
	// the many simulations of a capacity search. The mutex makes the
	// lazy build safe under concurrent searches.
	mu     sync.Mutex
	cached []Workload
}

// NewSourceMuxFromConfig validates and constructs a zoo multiplexer.
//
//vbrlint:ignore ctxcheck bounded validation pass over the population; no generation happens here
func NewSourceMuxFromConfig(cfg SourceMuxConfig) (*SourceMux, error) {
	if len(cfg.Sources) == 0 {
		return nil, fmt.Errorf("queue: source mux needs ≥ 1 sources")
	}
	if cfg.Frames < 1 {
		return nil, fmt.Errorf("queue: source mux needs ≥ 1 frames, got %d", cfg.Frames)
	}
	if cfg.Combos < 0 {
		return nil, fmt.Errorf("queue: combos must be ≥ 0, got %d", cfg.Combos)
	}
	fps := cfg.Sources[0].Meta().FrameRate
	if !(fps > 0) {
		return nil, fmt.Errorf("queue: source %s reports frame rate %v, want > 0", cfg.Sources[0].Meta().Name, fps)
	}
	for i, s := range cfg.Sources[1:] {
		//vbrlint:ignore floateq frame rates are configuration literals sharing one clock; exact mismatch is the defect
		if got := s.Meta().FrameRate; got != fps {
			return nil, fmt.Errorf("queue: sources must share a frame rate: source 0 has %v fps, source %d (%s) has %v",
				fps, i+1, s.Meta().Name, got)
		}
	}
	combos := cfg.Combos
	if combos == 0 {
		combos = 1
		if len(cfg.Sources) > 2 {
			combos = 6
		}
	}
	return &SourceMux{
		sources: cfg.Sources,
		frames:  cfg.Frames,
		combos:  combos,
		seed:    cfg.Seed,
		fps:     fps,
	}, nil
}

// NSources implements Aggregator.
func (m *SourceMux) NSources() int { return len(m.sources) }

// Combos reports the number of reseeded replications averaged over.
func (m *SourceMux) Combos() int { return m.combos }

// FrameRate reports the population's shared frame rate.
func (m *SourceMux) FrameRate() float64 { return m.fps }

// Workloads implements Aggregator. It builds (once, then caches) the
// aggregate workload of each replication: replication c resets source j
// to SubSeed(SubSeed(seed, c), j) and the per-frame outputs are summed
// source-major via AggregateSources, fixing the float addition order.
// Zoo sources supply frames, not slices, so useSlices must be false.
func (m *SourceMux) Workloads(ctx context.Context, useSlices bool) ([]Workload, error) {
	if useSlices {
		return nil, fmt.Errorf("queue: scenario-zoo sources supply frame granularity only")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cached != nil {
		return m.cached, nil
	}
	ws := make([]Workload, 0, m.combos)
	for c := 0; c < m.combos; c++ {
		comboSeed := source.SubSeed(m.seed, c)
		for j, s := range m.sources {
			s.Reset(source.SubSeed(comboSeed, j))
		}
		w, err := AggregateSources(ctx, m.sources, m.frames, 1/m.fps)
		if err != nil {
			return nil, fmt.Errorf("queue: building replication %d: %w", c, err)
		}
		ws = append(ws, w)
	}
	m.cached = ws
	return ws, nil
}

// AverageLossCtx implements Aggregator: the fluid simulation over the
// replications' workloads, averaged over survivors. Zoo sources supply
// frames, not slices, so useSlices must be false.
func (m *SourceMux) AverageLossCtx(ctx context.Context, capacityBps, bufferBytes float64, useSlices bool, opts Options) (*Result, error) {
	ws, err := m.Workloads(ctx, useSlices)
	if err != nil {
		return nil, err
	}
	return averageOverCombos(ctx, ws, capacityBps, bufferBytes, opts)
}
