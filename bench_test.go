// Benchmarks regenerating every table and figure of the paper, plus the
// ablation benchmarks for the design choices called out in DESIGN.md.
// Each benchmark runs the complete experiment pipeline at QuickScale
// (30,000 frames); run cmd/vbrexperiments -scale paper for the full-size
// reproduction.
package vbr

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"vbr/internal/codec"
	"vbr/internal/experiments"
	"vbr/internal/fgn"
	"vbr/internal/lrd"
	"vbr/internal/queue"
	"vbr/internal/server"
	"vbr/internal/stats"
	"vbr/internal/stream"
	"vbr/internal/synth"
)

var (
	benchOnce  sync.Once
	benchSuite *experiments.Suite
	benchErr   error
)

func suite(b *testing.B) *experiments.Suite {
	ctx := context.Background()
	b.Helper()
	benchOnce.Do(func() {
		benchSuite, benchErr = experiments.NewSuite(ctx, experiments.QuickScale)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSuite
}

func BenchmarkTable1_TraceGeneration(b *testing.B) {
	ctx := context.Background()
	cfg := synth.DefaultConfig()
	cfg.Frames = 30000
	cfg.SlicesPerFrame = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		if _, err := synth.Generate(ctx, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2_TraceStatistics(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3_HurstEstimates(b *testing.B) {
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1_TimeSeries(b *testing.B) {
	ctx := context.Background()
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig1Ctx(ctx, 2000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2_MovingAverage(b *testing.B) {
	ctx := context.Background()
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig2Ctx(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3_SegmentHistograms(b *testing.B) {
	ctx := context.Background()
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig3Ctx(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4_CCDFRightTail(b *testing.B) {
	ctx := context.Background()
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig4Ctx(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5_CDFLeftTail(b *testing.B) {
	ctx := context.Background()
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig5Ctx(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6_DensityVsHybrid(b *testing.B) {
	ctx := context.Background()
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig6Ctx(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7_Autocorrelation(b *testing.B) {
	ctx := context.Background()
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig7Ctx(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8_Periodogram(b *testing.B) {
	ctx := context.Background()
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig8Ctx(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9_MeanConvergence(b *testing.B) {
	ctx := context.Background()
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig9Ctx(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10_Aggregation(b *testing.B) {
	ctx := context.Background()
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig10Ctx(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11_VarianceTime(b *testing.B) {
	ctx := context.Background()
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig11Ctx(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12_RSPox(b *testing.B) {
	ctx := context.Background()
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig12Ctx(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14_QCCurves(b *testing.B) {
	ctx := context.Background()
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig14Ctx(ctx, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15_SMG(b *testing.B) {
	ctx := context.Background()
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig15Ctx(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig16_ModelComparison(b *testing.B) {
	ctx := context.Background()
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig16Ctx(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig17_ErrorProcess(b *testing.B) {
	ctx := context.Background()
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig17Ctx(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Ablation benchmarks (DESIGN.md §5).

// Hosking's exact generator, O(n log² n) in its closed form, vs the
// O(n log n) circulant embedding.
func BenchmarkAblation_Hosking10k(b *testing.B) {
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fgn.HoskingCtx(ctx, 10000, 0.8, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_DaviesHarte10k(b *testing.B) {
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fgn.DaviesHarteCtx(ctx, 10000, 0.8, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// The Paxson FFT-approximate generator at the same length as the two
// exact engines above: one spectrum evaluation plus a single inverse
// FFT per trace.
func BenchmarkPaxson10k(b *testing.B) {
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fgn.PaxsonCtx(ctx, 10000, 0.8, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// Paper-scale cold generation under the Auto policy: the full §4
// pipeline (Gaussian stage → marginal transform) for the paper's
// 171,000-frame, 2-hour trace, no pool. Auto resolves to Paxson at this length; the
// acceptance bar is under a second per trace — against the 10 hours
// the paper reports for its 1994 Hosking run.
func BenchmarkPaxson171k(b *testing.B) {
	ctx := context.Background()
	opts := DefaultGenOptions()
	opts.Backend = BackendAuto
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = uint64(i + 1)
		if _, err := benchCacheModel.GenerateCtx(ctx, 171_000, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// Direct O(n·lag) autocorrelation vs the FFT path.
func BenchmarkAblation_ACFDirect(b *testing.B) {
	s := suite(b)
	frames := s.Trace.Frames
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.AutocorrelationDirect(frames, 2000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_ACFFFT(b *testing.B) {
	s := suite(b)
	frames := s.Trace.Frames
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.Autocorrelation(frames, 2000); err != nil {
			b.Fatal(err)
		}
	}
}

// Fluid vs cell-exact queueing at slice granularity.
func benchWorkload(b *testing.B) queue.Workload {
	b.Helper()
	s := suite(b)
	mux, err := queue.NewMuxFromConfig(queue.MuxConfig{Trace: s.Trace, N: 1, MinLagFrames: 0, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	w, err := mux.SliceWorkload(context.Background(), []int{0})
	if err != nil {
		b.Fatal(err)
	}
	return w
}

func BenchmarkAblation_QueueFluid(b *testing.B) {
	w := benchWorkload(b)
	c := w.MeanRate() * 1.2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := queue.Simulate(w, c, 20000, queue.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_QueueCells(b *testing.B) {
	w := benchWorkload(b)
	c := w.MeanRate() * 1.2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := queue.SimulateCells(w, c, 20000, queue.UniformSpacing, queue.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Marginal-transform table resolution (the paper uses 10,000 points):
// the build cost of the Gaussian-axis table Eq. 13 reads.
func BenchmarkAblation_QuantileTable1k(b *testing.B) { benchQuantileTable(b, 1000) }

func BenchmarkAblation_QuantileTable10k(b *testing.B) { benchQuantileTable(b, 10000) }

func BenchmarkAblation_QuantileTable100k(b *testing.B) { benchQuantileTable(b, 100000) }

func benchQuantileTable(b *testing.B, size int) {
	gp, err := NewGammaParetoFromParams(GammaParetoParams{MuGamma: 27791, SigmaGamma: 6254, TailSlope: 12})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gp.NormalTable(size); err != nil {
			b.Fatal(err)
		}
	}
}

// Zero-loss capacity: bisection vs the exact convex-hull dual.
func BenchmarkAblation_ZeroLossBisection(b *testing.B) {
	ctx := context.Background()
	w := benchWorkload(b)
	lo, hi := w.MeanRate()*0.5, w.PeakRate()*1.05
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loss := func(c float64) (float64, error) {
			r, err := queue.Simulate(w, c, 20000, queue.Options{})
			if err != nil {
				return 0, err
			}
			return r.Pl, nil
		}
		if _, err := queue.MinCapacityCtx(ctx, loss, lo, hi, queue.LossTarget{Pl: 0}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_ZeroLossExact(b *testing.B) {
	w := benchWorkload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := queue.ZeroLossCapacityExact(w, 20000); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Extension benchmarks.

func BenchmarkExt_TransportModes(b *testing.B) {
	ctx := context.Background()
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ExtTransport(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExt_BufferlessAdmission(b *testing.B) {
	ctx := context.Background()
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ExtAdmissionCtx(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExt_SRDAugmentation(b *testing.B) {
	ctx := context.Background()
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ExtSRDCtx(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExt_InterframeCoding(b *testing.B) {
	ctx := context.Background()
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ExtInterframe(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExt_TailFidelity(b *testing.B) {
	ctx := context.Background()
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ExtTailFidelityCtx(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExt_SceneDetection(b *testing.B) {
	ctx := context.Background()
	s := suite(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ExtScenesCtx(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Generation-cache benchmarks (DESIGN.md §10): the same Model.GenerateCtx
// call cold (no pool: coefficient schedule and mapping table rebuilt
// every time) and warm (pool pre-filled by one prior call). The warm
// path must stay well ahead of cold — the CI baseline pins the ratio.

var benchCacheModel = Model{MuGamma: 27791, SigmaGamma: 6254, TailSlope: 12, Hurst: 0.8}

func BenchmarkColdGenerate(b *testing.B) {
	ctx := context.Background()
	opts := DefaultGenOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = uint64(i + 1)
		if _, err := benchCacheModel.GenerateCtx(ctx, 10000, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWarmGenerate(b *testing.B) {
	ctx := context.Background()
	opts := DefaultGenOptions()
	opts.Pool = NewGenPool(0)
	if _, err := benchCacheModel.GenerateCtx(ctx, 10000, opts); err != nil {
		b.Fatal(err) // fill the pool
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = uint64(i + 1)
		if _, err := benchCacheModel.GenerateCtx(ctx, 10000, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// Paper-scale streaming through the chunked engines: a 171,000-frame
// stream opened on a warm pool and drained, which is the work vbrd does
// per default /v1/trace request (4,096-frame blocks out of 8,192-point
// chunks, two per pair draw). ns/frame and B/frame put the pair draws'
// cost and their allocation-free steady state on a per-frame scale.
func BenchmarkStreamDaviesHarte171k(b *testing.B) { benchStream(b, BackendDaviesHarte) }

func BenchmarkStreamPaxson171k(b *testing.B) { benchStream(b, BackendPaxson) }

func benchStream(b *testing.B, engine Backend) {
	ctx := context.Background()
	const n = 171_000
	cfg := stream.Config{Model: benchCacheModel, N: n, Backend: engine, Pool: NewGenPool(0)}
	drain := func() {
		st, err := stream.OpenCtx(ctx, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := st.Next(ctx); errors.Is(err, io.EOF) {
				return
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
	drain() // fill the pool
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocated := ms.TotalAlloc
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		drain()
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	frames := float64(b.N) * n
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/frames, "ns/frame")
	b.ReportMetric(float64(ms.TotalAlloc-allocated)/frames, "B/frame")
}

// The first block of a stream, the generation cost behind a request's
// time to first byte: OpenCtx on a warm pool plus the first Next
// (4,096 frames), which draws the stream's first chunk pair. The 171k
// stream benchmarks average this over the whole stream.
func BenchmarkStreamFirstBlock(b *testing.B) {
	ctx := context.Background()
	for _, engine := range []Backend{BackendDaviesHarte, BackendPaxson} {
		b.Run(engine.String(), func(b *testing.B) {
			cfg := stream.Config{Model: benchCacheModel, N: 171_000, Backend: engine, Pool: NewGenPool(0)}
			first := func() {
				st, err := stream.OpenCtx(ctx, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if benchBlock, err = st.Next(ctx); err != nil {
					b.Fatal(err)
				}
			}
			first() // fill the pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i + 1)
				first()
			}
		})
	}
}

var benchBlock []float64

// The served NDJSON path: Handler().ServeHTTP of a 171,000-frame Paxson
// NDJSON request on a warm pool into a ResponseWriter that drops the
// body, the work _perfbench's server.handler probe times. Its ns/frame
// less BenchmarkStreamPaxson171k's is the wire encode.
func BenchmarkTraceNDJSON(b *testing.B) {
	const n = 171_000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h := server.New(ctx, server.Config{Pool: NewGenPool(0)}).Handler()
	serve := func(seed int) {
		w := &discardWriter{header: http.Header{}}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/trace?n=%d&format=ndjson&backend=paxson&seed=%d", n, seed), nil))
		if w.status != http.StatusOK {
			b.Fatalf("handler answered HTTP %d", w.status)
		}
	}
	serve(0) // fill the pool
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocated := ms.TotalAlloc
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(i + 1)
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	frames := float64(b.N) * n
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/frames, "ns/frame")
	b.ReportMetric(float64(ms.TotalAlloc-allocated)/frames, "B/frame")
}

// discardWriter is an http.ResponseWriter that drops the body, so a
// handler is timed without a socket.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *discardWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return len(p), nil
}

func (w *discardWriter) Flush() {}

// The online validation a stream does per frame: 171,000 frames of
// Davies–Harte stream output folded into a fresh Monitor a 4,096-frame
// block per call, with one Probe per block, as Stream.Next does.
func BenchmarkMonitorAdd(b *testing.B) {
	ctx := context.Background()
	const n, block = 171_000, 4096
	st, err := stream.OpenCtx(ctx, stream.Config{Model: benchCacheModel, N: n, Backend: BackendDaviesHarte, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ys, err := stream.Collect(ctx, st)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mo := stream.NewMonitor(n)
		for lo := 0; lo < n; lo += block {
			mo.Add(ys[lo:min(lo+block, n)]...)
			benchProbe = mo.Probe()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*n), "ns/frame")
}

var benchProbe stream.Probe

// Eight independently seeded traces through the worker-pool batch
// engine sharing one pool, vs. what eight cold GenerateCtx calls would
// cost (8× BenchmarkColdGenerate at n=4096).
func BenchmarkBatchGenerate(b *testing.B) {
	ctx := context.Background()
	opts := DefaultGenOptions()
	opts.Pool = NewGenPool(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = uint64(i + 1)
		if _, err := benchCacheModel.GenerateBatch(ctx, 8, 4096, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// The real intraframe coder: one 504×480 frame through DCT, quantizer,
// run-length and Huffman coding (Table 1's pipeline).
func BenchmarkAblation_CodecFrame(b *testing.B) {
	cfg := codec.DefaultCoderConfig()
	coder, err := codec.NewCoder(cfg)
	if err != nil {
		b.Fatal(err)
	}
	frame, err := codec.NewFrame(cfg.Width, cfg.Height)
	if err != nil {
		b.Fatal(err)
	}
	if err := codec.RenderFrame(frame, codec.RenderParams{Activity: 0.5, SceneID: 1}); err != nil {
		b.Fatal(err)
	}
	if err := coder.Train([]*codec.Frame{frame}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coder.CodeFrame(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Estimator-battery benchmarks: the batch MAVAR estimator, its
// per-observation streaming update (the monitor hotpath — must stay
// allocation-free), and the full five-estimator EstimateAll bundle with
// calibrated error bars.

func benchFGN(b *testing.B, n int) []float64 {
	ctx := context.Background()
	b.Helper()
	rng := rand.New(rand.NewPCG(2, 2))
	xs, err := fgn.DaviesHarteCtx(ctx, n, 0.8, rng)
	if err != nil {
		b.Fatal(err)
	}
	return xs
}

func BenchmarkMAVAR(b *testing.B) {
	xs := benchFGN(b, 65536)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lrd.MAVAR(xs, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOnlineMAVARAdd(b *testing.B) {
	o := lrd.NewOnlineMAVAR(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Add(float64(i&1023) - 511.5)
	}
}

func BenchmarkEstimateAll(b *testing.B) {
	xs := benchFGN(b, 65536)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lrd.EstimateAll(xs, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// The per-frame hot path of every registered scenario-zoo model — the
// cost GET /v1/trace?model= and the SourceMux pay per sample. The
// farima member's default horizon is trimmed so its epoch rollovers
// (and the Davies–Harte block synthesis they trigger) land inside the
// measured window rather than dominating a single giant setup.
func BenchmarkSourceNext(b *testing.B) {
	ctx := context.Background()
	for _, name := range SourceModels() {
		spec := name
		if name == "farima" {
			spec = "farima:n=8192"
		}
		b.Run(name, func(b *testing.B) {
			src, err := NewSource(spec, 1)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := src.Next(ctx); err != nil {
				b.Fatal(err) // warm the lazy first block
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := src.Next(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
