package stream

import (
	"context"
	"errors"
	"io"
	"math"
	"math/rand/v2"
	"runtime"
	"testing"

	"vbr/internal/backend"
	"vbr/internal/core"
	"vbr/internal/errs"
	"vbr/internal/lrd"
)

// paperModel mirrors the Table 4 Star Wars parameters used across the
// repo's tests.
func paperModel() core.Model {
	return core.Model{MuGamma: 27791, SigmaGamma: 6254, TailSlope: 12, Hurst: 0.8}
}

func collect(t *testing.T, cfg Config) []float64 {
	ctx := context.Background()
	t.Helper()
	s, err := OpenCtx(ctx, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	out, err := Collect(context.Background(), s)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if len(out) != cfg.N {
		t.Fatalf("collected %d frames, want %d", len(out), cfg.N)
	}
	if s.Pos() != cfg.N {
		t.Fatalf("Pos()=%d after drain, want %d", s.Pos(), cfg.N)
	}
	return out
}

// TestHoskingStreamBitwiseMatchesBatch is the block-boundary correctness
// contract for the exact backend: streaming must not change a single
// bit relative to the batch generator. Standardize is off because it is
// a whole-series operation by definition; the streamed pipeline is
// otherwise the full Gaussian→Eq. 13 path.
func TestHoskingStreamBitwiseMatchesBatch(t *testing.T) {
	ctx := context.Background()
	const n, seed = 3000, 7
	m := paperModel()
	batch, err := m.GenerateCtx(ctx, n, core.GenOptions{
		Backend: backend.Hosking, TableSize: 10000, Standardize: false, Seed: seed,
	})
	if err != nil {
		t.Fatalf("batch Generate: %v", err)
	}
	streamed := collect(t, Config{Model: m, N: n, BlockSize: 256, Seed: seed, Backend: backend.Hosking})
	for i := range batch {
		if math.Float64bits(batch[i]) != math.Float64bits(streamed[i]) {
			t.Fatalf("frame %d differs: batch %v stream %v", i, batch[i], streamed[i])
		}
	}
}

// TestHoskingStreamBlockSizeInvariance: the block size is a transport
// detail and must not alter the series.
func TestHoskingStreamBlockSizeInvariance(t *testing.T) {
	const n, seed = 1200, 3
	m := paperModel()
	ref := collect(t, Config{Model: m, N: n, BlockSize: n, Seed: seed, Backend: backend.Hosking})
	for _, bs := range []int{1, 97, 256, 5000} {
		got := collect(t, Config{Model: m, N: n, BlockSize: bs, Seed: seed, Backend: backend.Hosking})
		for i := range ref {
			if math.Float64bits(ref[i]) != math.Float64bits(got[i]) {
				t.Fatalf("block size %d: frame %d differs (%v vs %v)", bs, i, got[i], ref[i])
			}
		}
	}
}

// TestDaviesHarteStreamHurst: stitching seams must not destroy the
// long-range dependence. The test compares the streamed series against
// an equally long batch Davies–Harte run: stitching must not move Ĥ
// beyond the combined confidence intervals. Whittle reads 0.797 on the
// stream and 0.804 on the batch run for H = 0.8: Davies–Harte draws
// Whittle's own fARIMA model, so the heavy-tailed marginal adds no
// visible bias (the 0.86 once read here was an fGn engine's model
// mismatch).
func TestDaviesHarteStreamHurst(t *testing.T) {
	ctx := context.Background()
	const n = 1 << 16
	m := paperModel()
	frames := collect(t, Config{Model: m, N: n, BlockSize: 4096, Overlap: 1024, Seed: 5, Backend: backend.DaviesHarte})
	ws, err := lrd.Whittle(frames)
	if err != nil {
		t.Fatalf("Whittle(stream): %v", err)
	}
	batch, err := m.GenerateCtx(ctx, n, core.GenOptions{
		Backend: backend.DaviesHarte, TableSize: 10000, Standardize: true, Seed: 5,
	})
	if err != nil {
		t.Fatalf("batch Generate: %v", err)
	}
	wb, err := lrd.Whittle(batch)
	if err != nil {
		t.Fatalf("Whittle(batch): %v", err)
	}
	if tol := ws.CI95 + wb.CI95 + 0.01; math.Abs(ws.H-wb.H) > tol {
		t.Errorf("stream Ĥ = %v vs batch Ĥ = %v, want within %v", ws.H, wb.H, tol)
	}
	// And the absolute estimate must still be unambiguously LRD near the
	// model's H, not pulled toward 0.5 by the seams.
	if ws.H < 0.75 || ws.H > 0.95 {
		t.Errorf("stream Ĥ = %v, want in [0.75, 0.95] for model H=%v", ws.H, m.Hurst)
	}
}

// TestDaviesHarteShortFinalBlock: N not a multiple of the block size
// must still drain exactly N frames.
func TestDaviesHarteShortFinalBlock(t *testing.T) {
	cfg := Config{Model: paperModel(), N: 10_000, BlockSize: 4096, Overlap: 512, Seed: 2, Backend: backend.DaviesHarte}
	frames := collect(t, cfg)
	for i, f := range frames {
		if math.IsNaN(f) || f < 0 {
			t.Fatalf("frame %d invalid: %v", i, f)
		}
	}
}

// TestDaviesHarteBoundedMemory is the O(block) acceptance check: a
// 400k-frame stream must not grow the live heap anywhere near the
// ~3.2 MB an O(n) float64 buffer would need. The streamed blocks are
// consumed and dropped, so only the stream's own state may be live.
func TestDaviesHarteBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("memory profile in -short mode")
	}
	ctx := context.Background()
	const n, block = 400_000, 2048
	s, err := OpenCtx(ctx, Config{Model: paperModel(), N: n, BlockSize: block, Overlap: 512, Seed: 9, Backend: backend.DaviesHarte})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc

	var maxLive uint64
	blocks := 0
	var sum float64
	for {
		blk, err := s.Next(ctx)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		for _, v := range blk {
			sum += v
		}
		blocks++
		if blocks%32 == 0 {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > maxLive {
				maxLive = ms.HeapAlloc
			}
		}
	}
	if sum <= 0 {
		t.Fatalf("stream produced non-positive total %v", sum)
	}
	if s.Pos() != n {
		t.Fatalf("Pos()=%d, want %d", s.Pos(), n)
	}
	// An O(n) pipeline holds ≥ n·8 B ≈ 3.2 MB of frames alive; the
	// stream's own state is a few block-sized buffers plus the quantile
	// table (~0.3 MB). 1.5 MB of headroom separates the two regimes.
	const limit = 1_500_000
	if maxLive > base+limit {
		t.Errorf("live heap grew by %d bytes (base %d, max %d), want < %d — stream is not O(block)",
			maxLive-base, base, maxLive, limit)
	}
}

// TestStreamCancellation: a cancelled context surfaces as
// errs.ErrCancelled from every backend, also from a stitched stream's
// Next that serves its block from the chunk already drawn.
func TestStreamCancellation(t *testing.T) {
	ctx := context.Background()
	for _, b := range []backend.Backend{backend.Hosking, backend.DaviesHarte, backend.Paxson} {
		s, err := OpenCtx(ctx, Config{Model: paperModel(), N: 50_000, BlockSize: 1024, Seed: 1, Backend: b})
		if err != nil {
			t.Fatalf("%v: Open: %v", b, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		if _, err := s.Next(ctx); err != nil {
			t.Fatalf("%v: first block: %v", b, err)
		}
		cancel()
		_, err = s.Next(ctx)
		if !errors.Is(err, errs.ErrCancelled) {
			t.Errorf("%v: after cancel got %v, want errs.ErrCancelled", b, err)
		}
	}
}

// TestStreamProbeTracksMoments: after a long Hosking stream the online
// probe must sit near the model marginal and the configured H.
func TestStreamProbeTracksMoments(t *testing.T) {
	ctx := context.Background()
	m := paperModel()
	s, err := OpenCtx(ctx, Config{Model: m, N: 1 << 16, BlockSize: 4096, Seed: 13, Backend: backend.DaviesHarte})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := Collect(context.Background(), s); err != nil {
		t.Fatalf("Collect: %v", err)
	}
	p := s.Probe()
	if p.N != 1<<16 {
		t.Fatalf("probe N=%d", p.N)
	}
	gp, err := m.Marginal()
	if err != nil {
		t.Fatalf("Marginal: %v", err)
	}
	if rel := math.Abs(p.Mean-gp.Mean()) / gp.Mean(); rel > 0.1 {
		t.Errorf("probe mean %v vs marginal %v (rel %v)", p.Mean, gp.Mean(), rel)
	}
	sd := math.Sqrt(gp.Variance())
	if rel := math.Abs(p.Std-sd) / sd; rel > 0.25 {
		t.Errorf("probe σ %v vs marginal %v (rel %v)", p.Std, sd, rel)
	}
	if math.IsNaN(p.H) || p.Levels < 2 {
		t.Fatalf("probe Ĥ unavailable: %+v", p)
	}
	if p.H < 0.55 || p.H > 1.05 {
		t.Errorf("probe Ĥ = %v, want within drift-alarm range of H=0.8", p.H)
	}
	if math.IsNaN(p.HMavar) || p.MavarOctaves < 2 {
		t.Fatalf("probe MAVAR Ĥ unavailable: %+v", p)
	}
	if !(p.HMavarErr > 0) || p.HMavarErr > 0.2 {
		t.Errorf("probe MAVAR error bar = %v, want a finite calibrated half-width", p.HMavarErr)
	}
	// The calibrated MAVAR probe is the precise one: its 95% band around
	// the configured H=0.8 is a few hundredths wide at 64k frames. Allow
	// double the half-width for the marginal transform and stitching.
	if math.Abs(p.HMavar-0.8) > 2*p.HMavarErr+0.04 {
		t.Errorf("probe MAVAR Ĥ = %v ± %v, want near H=0.8", p.HMavar, p.HMavarErr)
	}
}

// TestMonitorIIDBaseline: white noise must probe near H = 0.5 with unit
// moments — the monitor's sanity anchor.
func TestMonitorIIDBaseline(t *testing.T) {
	mo := NewMonitor(1 << 16)
	rng := rand.New(rand.NewPCG(42, 0))
	for i := 0; i < 1<<16; i++ {
		mo.Add(rng.NormFloat64())
	}
	p := mo.Probe()
	if math.Abs(p.Mean) > 0.05 {
		t.Errorf("iid mean %v", p.Mean)
	}
	if math.Abs(p.Std-1) > 0.05 {
		t.Errorf("iid σ %v", p.Std)
	}
	if math.Abs(p.H-0.5) > 0.12 {
		t.Errorf("iid Ĥ = %v, want ≈ 0.5", p.H)
	}
}

// TestMonitorBoundedMemory pins the O(1)-state claim of the monitor
// itself: feeding 400k frames through both Ĥ probes (variance–time
// levels and the MAVAR octave accumulators) must not grow the live heap
// measurably — all state is the fixed per-level scalars allocated at
// construction.
func TestMonitorBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("memory profile in -short mode")
	}
	const n = 400_000
	mo := NewMonitor(n)
	rng := rand.New(rand.NewPCG(7, 0))

	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc

	for i := 0; i < n; i++ {
		mo.Add(rng.NormFloat64())
	}
	p := mo.Probe()

	runtime.GC()
	runtime.ReadMemStats(&ms)
	if grew := ms.HeapAlloc - base; ms.HeapAlloc > base && grew > 64<<10 {
		t.Errorf("live heap grew by %d bytes over %d frames, want ≈ 0 — monitor is not O(1)", grew, n)
	}
	if p.N != n || math.IsNaN(p.HMavar) || !(p.HMavarErr > 0) {
		t.Fatalf("probe after %d frames = %+v, want MAVAR Ĥ with calibrated error bar", n, p)
	}
	// White noise is H = 0.5; the battery grid starts at 0.6, so the
	// corrected estimate clamps to the edge cell — still near 0.5.
	if math.Abs(p.HMavar-0.5) > 0.1 {
		t.Errorf("iid MAVAR Ĥ = %v, want ≈ 0.5", p.HMavar)
	}
}

// TestMonitorZeroAlloc pins the hotpath guarantee hotalloc enforces
// statically: per-frame Add, per-block Add and per-block Probe never
// allocate. The block fold's scratch and Probe's log-log regression
// scratch live in fixed arrays, so validating a stream adds no GC
// pressure to the serving path.
func TestMonitorZeroAlloc(t *testing.T) {
	mo := NewMonitor(1 << 14)
	rng := rand.New(rand.NewPCG(42, 0))
	for i := 0; i < 1<<14; i++ {
		mo.Add(rng.NormFloat64())
	}
	if allocs := testing.AllocsPerRun(100, func() { mo.Add(1.0) }); allocs != 0 {
		t.Errorf("Monitor.Add allocates %v per call, want 0", allocs)
	}
	block := make([]float64, 4096)
	for i := range block {
		block[i] = rng.NormFloat64()
	}
	if allocs := testing.AllocsPerRun(100, func() { mo.Add(block...) }); allocs != 0 {
		t.Errorf("Monitor.Add of a %d-frame block allocates %v per call, want 0", len(block), allocs)
	}
	var sink Probe
	if allocs := testing.AllocsPerRun(100, func() { sink = mo.Probe() }); allocs != 0 {
		t.Errorf("Monitor.Probe allocates %v per call, want 0", allocs)
	}
	if sink.Levels < 2 {
		t.Fatalf("probe used %d levels, want ≥ 2 so the regression actually ran", sink.Levels)
	}
}

func TestConfigValidate(t *testing.T) {
	ctx := context.Background()
	base := Config{Model: paperModel(), N: 100}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero N", func(c *Config) { c.N = 0 }},
		{"negative overlap", func(c *Config) { c.Overlap = -1 }},
		{"overlap ≥ block (DH)", func(c *Config) { c.Backend = backend.DaviesHarte; c.BlockSize = 64; c.Overlap = 64 }},
		{"overlap ≥ block (Paxson)", func(c *Config) { c.Backend = backend.Paxson; c.BlockSize = 64; c.Overlap = 64 }},
		{"overlap ≥ block (Auto)", func(c *Config) { c.Backend = backend.Auto; c.BlockSize = 64; c.Overlap = 64 }},
		{"overlap ≥ block of 1 (DH)", func(c *Config) { c.Backend = backend.DaviesHarte; c.BlockSize = 1; c.Overlap = 50_000_000 }},
		{"tiny table", func(c *Config) { c.TableSize = 1 }},
		{"table over the cap", func(c *Config) { c.TableSize = MaxTableSize + 1 }},
		{"bad backend", func(c *Config) { c.Backend = backend.Backend(99) }},
		{"bad model", func(c *Config) { c.Model.Hurst = 1.5 }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if _, err := OpenCtx(ctx, cfg); err == nil {
			t.Errorf("%s: Open accepted invalid config", tc.name)
		}
	}
	// An out-of-range backend must fail through the shared sentinel so
	// CLI and HTTP classify it as a request error.
	bad := base
	bad.Backend = backend.Backend(99)
	if _, err := OpenCtx(ctx, bad); !errors.Is(err, errs.ErrUnknownBackend) {
		t.Errorf("Backend(99): got %v, want ErrUnknownBackend", err)
	}
}

func TestBackendRoundTrip(t *testing.T) {
	for _, b := range []backend.Backend{backend.Hosking, backend.DaviesHarte, backend.Paxson, backend.Auto} {
		got, err := backend.Parse(b.String())
		if err != nil || got != b {
			t.Errorf("round trip %v: got %v, %v", b, got, err)
		}
	}
	if _, err := backend.Parse("fourier"); !errors.Is(err, errs.ErrUnknownBackend) {
		t.Error("backend.Parse(junk) must fail with ErrUnknownBackend")
	}
}
