// Package stream generates the paper's §4 source model incrementally:
// instead of materializing a whole trace in memory (the batch
// core.Model.GenerateCtx path), a BlockSource hands out frame-size blocks
// one at a time under bounded memory, which is what a long-running
// serving daemon or an in-loop simulation consumer needs.
//
// Three Gaussian backends feed the Eq. 13 marginal transform. All
// three draw the paper's fARIMA(0, d, 0) process; they differ in
// exactness and cost:
//
//   - Hosking: the paper's exact recursion in its O(n log² n) closed
//     form, advanced block by block (fgn.HoskingStream). The
//     concatenated output is bitwise-identical to the batch generator
//     with the same seed; the generator's own O(n) state (one float64
//     per frame plus a transform buffer) is inherent to exactness, but
//     no extra O(n) output buffering is added.
//   - DaviesHarte: independent exact chunks of S points, each a
//     circulant embedding of the fARIMA autocorrelation
//     (S = 8,192 from 4,096 frames on; see geometry), two per O(S log S)
//     pair draw, joined by power-preserving overlap stitching, giving
//     true O(chunk) memory for arbitrarily long traces at the cost of
//     an approximate correlation structure across chunk seams.
//   - Paxson: the same overlap-stitched chunking over independent
//     FFT-approximate chunks synthesized from the fARIMA spectral
//     density — the fastest backend, approximate both within chunks
//     and across seams.
//
// The Auto policy resolves to Paxson for streams (bounded memory at any
// length); selection is shared with the batch path via internal/backend.
//
// Every stream is validated online: a Monitor tracks the running
// mean/σ and a streaming variance–time Ĥ probe, so a drifting stream
// self-reports through the obs gauges and the Probe API instead of
// silently serving bad traffic.
package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"

	"vbr/internal/backend"
	"vbr/internal/core"
	"vbr/internal/dist"
	"vbr/internal/fgn"
	"vbr/internal/genpool"
	"vbr/internal/obs"
)

// gaussStreamSalt is the PCG stream selector of the batch generator's
// Gaussian stage (core.gaussianCtx); the Hosking backend must use the
// same salt for its output to be bitwise-identical to Model.GenerateCtx.
const gaussStreamSalt = 0x6a55

// dhStreamSalt offsets the per-pair PCG streams of the Davies–Harte
// backend; chunk pair p draws from stream dhStreamSalt+p of the same
// seed, so pairs are mutually independent yet the whole trace is
// reproducible.
const dhStreamSalt = 0xd41e5

// paxsonStreamSalt is the Paxson backend's counterpart of dhStreamSalt,
// disjoint from it so the two chunked backends draw from unrelated PCG
// streams of the same seed.
const paxsonStreamSalt = 0x9ac50

// Config parameterizes a stream. The served frames are a function of
// Model, N, Seed and Backend alone: the chunk geometry, the output
// block and the Eq. 13 table are properties of the stream, not
// settings.
type Config struct {
	// Model is the four-parameter (μ_Γ, σ_Γ, m_T, H) source model.
	Model core.Model
	// N is the total number of frames the stream will produce.
	N int
	// Seed drives all randomness; equal configs yield equal streams.
	Seed uint64
	// Backend selects the Gaussian engine.
	Backend backend.Backend
	// Pool, when non-nil, serves the stream's seed-independent
	// precomputations (Hosking coefficients, the chunk engines'
	// Davies–Harte eigenvalues or Paxson spectrum with its FFT plan,
	// the Eq. 13 mapping table) from a shared cross-request cache; each
	// is looked up once, at open. The emitted frames are bitwise
	// identical with or without a pool; nil computes them cold for this
	// stream alone.
	Pool *genpool.Pool
}

// BlockLen is the most frames one Next returns: the length of the
// stream's reused buffer (N, when the stream is shorter). It is a
// buffer size only; the frames do not depend on it.
const BlockLen = 4096

// tableSize is the number of nodes of the Eq. 13 mapping table, the
// paper's 10,000.
const tableSize = 10000

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.N < 1 {
		return fmt.Errorf("stream: N must be ≥ 1, got %d", c.N)
	}
	if err := c.Backend.Validate(); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	return nil
}

// BlockSource produces consecutive blocks of a frame-size series. It is
// the contract between generation backends and serving consumers: the
// returned slice is only valid until the following Next call (sources
// reuse their block buffer — that reuse is what bounds memory), and the
// final call after the last block returns (nil, io.EOF).
type BlockSource interface {
	// Next returns the next block of frames, io.EOF after the last one,
	// or an error matching errs.ErrCancelled when ctx fires mid-stream.
	Next(ctx context.Context) ([]float64, error)
	// Pos reports how many frames have been produced so far.
	Pos() int
}

// gaussian is the internal contract of the Gaussian backends: fill dst
// from the front, report how many points were produced, io.EOF when the
// series is exhausted.
type gaussian interface {
	Next(ctx context.Context, dst []float64) (int, error)
}

// Stream is a BlockSource producing model traffic: a Gaussian backend
// block, the Eq. 13 Gamma/Pareto transform applied in place, and the
// online Monitor updated — all in O(BlockLen) working memory.
type Stream struct {
	cfg      Config
	resolved backend.Backend // concrete engine after Auto resolution
	gauss    gaussian
	tab      *dist.NormalTable
	gbuf     []float64 // backend block, transformed in place
	mon      *Monitor
	pos      int

	wantMean float64 // finite marginal mean, 0 when divergent
	wantStd  float64 // finite marginal σ, 0 when divergent
}

// driftTol is the relative deviation of the running mean (and σ) from
// the model marginal beyond which a stream self-reports drift, once at
// least driftMinFrames frames are in the monitor. The tolerance is
// deliberately loose: LRD series converge slowly (§4.2), so tight
// bounds would false-alarm on healthy streams.
//
// Hurst drift, by contrast, is a calibrated test: the monitor's MAVAR
// Ĥ carries a battery-derived 1.96σ half-width, so the stream flags
// drift when the configured H falls outside Ĥ ± hurstDriftSigma·σ.
// Five sigma keeps the per-block alarm rate negligible even though
// consecutive probes of one stream are strongly correlated, while a
// genuinely mis-generated stream (wrong H by ≳ 0.05 at 16k frames)
// still trips it within a few blocks.
const (
	driftTol        = 0.25
	driftMinFrames  = 1 << 14
	hurstDriftSigma = 5
)

// OpenCtx builds a stream for cfg. The context bounds the setup work —
// for a Hosking stream that includes extending the (shared, when
// pooled) coefficients to cfg.N, the dominant cost on a cold cache —
// and its obs scope receives the pool's hit/miss counters.
func OpenCtx(ctx context.Context, cfg Config) (*Stream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	gp, err := cfg.Model.Marginal()
	if err != nil {
		return nil, err
	}
	// A nil pool computes cold, so this single call covers both modes.
	tab, err := cfg.Pool.NormalTable(ctx, cfg.Model.MuGamma, cfg.Model.SigmaGamma, cfg.Model.TailSlope, tableSize)
	if err != nil {
		return nil, err
	}
	s := &Stream{
		cfg:  cfg,
		tab:  tab,
		gbuf: make([]float64, min(BlockLen, cfg.N)),
		mon:  NewMonitor(cfg.N),
	}
	if mu := gp.Mean(); !math.IsInf(mu, 0) && mu > 0 {
		s.wantMean = mu
	}
	if v := gp.Variance(); !math.IsInf(v, 0) && v > 0 {
		s.wantStd = math.Sqrt(v)
	}
	// A stream always has a concrete engine: Auto resolves here (to
	// Paxson — streamed output wants bounded memory at any length) and
	// the resolution is observable via Stream.Backend, which the HTTP
	// layer echoes in X-Vbr-Backend.
	s.resolved = cfg.Backend.Resolve(cfg.N, true)
	switch s.resolved {
	case backend.Hosking:
		c, err := cfg.Pool.HoskingCoeffs(ctx, cfg.Model.Hurst, cfg.N)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewPCG(cfg.Seed, gaussStreamSalt))
		if s.gauss, err = fgn.NewHoskingStreamWithCoeffs(cfg.N, c, rng); err != nil {
			return nil, err
		}
	case backend.DaviesHarte, backend.Paxson:
		size, overlap := geometry(cfg.N)
		if s.gauss, err = newStitch(ctx, cfg, s.resolved, size, overlap); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Backend returns the concrete Gaussian engine behind the stream: the
// configured backend, or what Auto resolved to at open time.
func (s *Stream) Backend() backend.Backend { return s.resolved }

// Len returns the total number of frames the stream will produce.
func (s *Stream) Len() int { return s.cfg.N }

// Pos implements BlockSource.
func (s *Stream) Pos() int { return s.pos }

// Probe returns the current online-validation snapshot.
func (s *Stream) Probe() Probe { return s.mon.Probe() }

// Next implements BlockSource: one Gaussian block, transformed to the
// Gamma/Pareto marginal in place and folded into the monitor. The obs
// scope on ctx receives per-block counters, the validation gauges
// (stream.mean, stream.std, stream.hhat) and drift warnings.
//
//vbrlint:hotpath
func (s *Stream) Next(ctx context.Context) ([]float64, error) {
	n, err := s.gauss.Next(ctx, s.gbuf)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, err
	}
	out := s.gbuf[:n]
	for i, v := range out {
		out[i] = s.tab.Value(v)
	}
	s.mon.Add(out...)
	s.pos += n

	scope := obs.From(ctx)
	scope.Count("stream.blocks", 1)
	scope.Count("stream.frames", int64(n))
	p := s.mon.Probe()
	scope.SetGauge("stream.mean", p.Mean)
	scope.SetGauge("stream.std", p.Std)
	if !math.IsNaN(p.H) {
		scope.SetGauge("stream.hhat", p.H)
	}
	if !math.IsNaN(p.HMavar) {
		scope.SetGauge("stream.hhat.mavar", p.HMavar)
	}
	if !math.IsNaN(p.HMavarErr) {
		scope.SetGauge("stream.hhat.mavar.err", p.HMavarErr)
	}
	if p.N >= driftMinFrames {
		if s.wantMean > 0 && math.Abs(p.Mean-s.wantMean) > driftTol*s.wantMean {
			scope.Count("stream.drift.mean", 1)
		}
		if s.wantStd > 0 && math.Abs(p.Std-s.wantStd) > driftTol*s.wantStd {
			scope.Count("stream.drift.std", 1)
		}
		if !math.IsNaN(p.HMavar) && !math.IsNaN(p.HMavarErr) &&
			math.Abs(p.HMavar-s.cfg.Model.Hurst) > hurstDriftSigma/1.96*p.HMavarErr {
			scope.Count("stream.drift.hurst", 1)
		}
	}
	return out, nil
}

// Collect drains src into one materialized series. It exists for
// consumers that genuinely need the whole trace at once (the queueing
// simulator, tests); streaming consumers should iterate Next instead.
func Collect(ctx context.Context, src BlockSource) ([]float64, error) {
	var out []float64
	for {
		blk, err := src.Next(ctx)
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, blk...)
	}
}
