package genpool_test

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"vbr/internal/backend"
	"vbr/internal/core"
	"vbr/internal/fgn"
	"vbr/internal/genpool"
)

var testModel = core.Model{MuGamma: 27791, SigmaGamma: 6254, TailSlope: 12, Hurst: 0.8}

// bitwiseEqual fails the test at the first index where the two series
// differ in their float64 bit patterns.
func bitwiseEqual(t *testing.T, label string, cold, warm []float64) {
	t.Helper()
	if len(cold) != len(warm) {
		t.Fatalf("%s: length %d vs %d", label, len(cold), len(warm))
	}
	for i := range cold {
		if math.Float64bits(cold[i]) != math.Float64bits(warm[i]) {
			t.Fatalf("%s: bit mismatch at %d: %x vs %x", label, i, math.Float64bits(cold[i]), math.Float64bits(warm[i]))
		}
	}
}

// TestGenerateBitwiseColdVsWarm pins the tentpole invariant end to end:
// Model.GenerateCtx with a pool — cold pool, then fully warm pool — equals
// the pool-free path bit for bit, for all three Gaussian engines.
func TestGenerateBitwiseColdVsWarm(t *testing.T) {
	ctx := context.Background()
	const n = 4096
	for _, gen := range []backend.Backend{backend.Hosking, backend.DaviesHarte, backend.Paxson} {
		opts := core.DefaultGenOptions()
		opts.Backend = gen
		opts.Seed = 42
		cold, err := testModel.GenerateCtx(ctx, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		pooled := opts
		pooled.Pool = genpool.New(0)
		first, err := testModel.GenerateCtx(ctx, n, pooled) // fills the pool
		if err != nil {
			t.Fatal(err)
		}
		warm, err := testModel.GenerateCtx(ctx, n, pooled) // pure cache hits
		if err != nil {
			t.Fatal(err)
		}
		bitwiseEqual(t, "cold-pool", cold, first)
		bitwiseEqual(t, "warm-pool", cold, warm)
		st := pooled.Pool.Stats()
		if st.Hits == 0 || st.Misses == 0 {
			t.Fatalf("generator %d: expected both hits and misses, got %+v", gen, st)
		}
	}
}

// TestHoskingPrefixReuse checks the prefix-reuse rule at the pool
// level: a long schedule serves shorter requests as pure hits, and a
// longer request extends the same entry rather than adding one.
func TestHoskingPrefixReuse(t *testing.T) {
	ctx := context.Background()
	p := genpool.New(0)
	if _, err := p.HoskingCoeffs(ctx, 0.8, 2000); err != nil {
		t.Fatal(err)
	}
	c, err := p.HoskingCoeffs(ctx, 0.8, 500) // shorter: pure hit
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("after short request: %+v", st)
	}
	longer, err := p.HoskingCoeffs(ctx, 0.8, 3000) // longer: extends in place
	if err != nil {
		t.Fatal(err)
	}
	if longer != c {
		t.Fatal("longer request built a new schedule instead of extending the cached one")
	}
	if st := p.Stats(); st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("after long request: %+v", st)
	}
	if longer.Len() < 3000 {
		t.Fatalf("schedule covers %d, want ≥ 3000", longer.Len())
	}

	// The extended coefficients still generate a from-scratch run's bits.
	bitwiseEqual(t, "extended coefficients", coldHosking(t, 3000), drawHosking(t, longer, 3000))
}

// drawHosking generates n points on c with a fixed seed.
func drawHosking(t *testing.T, c *fgn.HoskingCoeffs, n int) []float64 {
	t.Helper()
	x, err := fgn.HoskingFromCoeffs(context.Background(), n, c, rand.New(rand.NewPCG(21, 22)))
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// coldHosking is drawHosking on fresh H = 0.8 coefficients.
func coldHosking(t *testing.T, n int) []float64 {
	t.Helper()
	fresh, err := fgn.NewHoskingCoeffs(0.8)
	if err != nil {
		t.Fatal(err)
	}
	return drawHosking(t, fresh, n)
}

// errAfterCtx reports Canceled from Err after limit calls while its
// Done channel stays quiet, interrupting a schedule extension a
// deterministic number of points in — the shape of a client dropping a
// pooled /v1/trace request mid-build.
type errAfterCtx struct {
	context.Context
	calls, limit int
}

func (c *errAfterCtx) Err() error {
	c.calls++
	if c.calls > c.limit {
		return context.Canceled
	}
	return nil
}

// TestHoskingCancelledExtensionThenShorter is the cross-request
// regression test for the cancelled-extension panic: a client cancels
// mid-extension, the entry stays cached, and a subsequent shorter
// request for the same H used to panic with a negative make() length,
// crashing the worker. The retry must succeed, match a fresh schedule
// bitwise, and leave the pool's byte accounting equal to what the
// entry actually holds.
func TestHoskingCancelledExtensionThenShorter(t *testing.T) {
	ctx := context.Background()
	p := genpool.New(0)
	if _, err := p.HoskingCoeffs(ctx, 0.8, 100); err != nil {
		t.Fatal(err)
	}
	// EnsureCtx checks every 1024 new points: the second check, at
	// point 1124, cancels.
	cctx := &errAfterCtx{Context: ctx, limit: 1}
	if _, err := p.HoskingCoeffs(cctx, 0.8, 2000); err == nil {
		t.Fatal("expected a cancellation error")
	}
	// Shorter than the cancelled target, longer than the covered prefix.
	c, err := p.HoskingCoeffs(ctx, 0.8, 500)
	if err != nil {
		t.Fatalf("shorter request after cancelled extension: %v", err)
	}
	bitwiseEqual(t, "retried coefficients", coldHosking(t, 500), drawHosking(t, c, 500))
	if st := p.Stats(); st.Bytes != c.Bytes() || st.Entries != 1 {
		t.Fatalf("accounting after cancelled extension: stats=%+v schedule=%d bytes", st, c.Bytes())
	}
}

// TestPaxsonSpectrumPool pins the pooled-spectrum contract: the cached
// setup draws the pool-free computation's bits, repeats are pure hits,
// and lengths that pad to one transform length share one entry (4,095
// and 4,096 points both draw from the 4,096-point setup).
func TestPaxsonSpectrumPool(t *testing.T) {
	ctx := context.Background()
	cold, err := fgn.PaxsonSpectrumCtx(ctx, 4096, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	p := genpool.New(0)
	warm, err := p.PaxsonSpectrum(ctx, 0.8, 4096)
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqual(t, "pooled spectrum", drawPaxson(t, cold, 4096), drawPaxson(t, warm, 4096))
	if _, err := p.PaxsonSpectrum(ctx, 0.8, 4096); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("after repeat request: %+v", st)
	}
	odd, err := p.PaxsonSpectrum(ctx, 0.8, 4095)
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("odd length should hit the 4,096-point entry: %+v", st)
	}
	coldOdd, err := fgn.PaxsonSpectrumCtx(ctx, 4095, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqual(t, "odd-length spectrum", drawPaxson(t, coldOdd, 4095), drawPaxson(t, odd, 4095))
	// A different H is a different identity.
	if _, err := p.PaxsonSpectrum(ctx, 0.9, 4096); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Entries != 2 {
		t.Fatalf("distinct H should add an entry: %+v", st)
	}
	// The nil pool computes cold with identical bits.
	var nilPool *genpool.Pool
	direct, err := nilPool.PaxsonSpectrum(ctx, 0.8, 4096)
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqual(t, "nil-pool spectrum", drawPaxson(t, cold, 4096), drawPaxson(t, direct, 4096))
}

// TestDaviesHarteEigenPool: Davies–Harte setups are keyed by transform
// length too, so 1,000 points draw from the 1,024-point entry, with the
// bits of a cold 1,000-point setup, and the n < 1 error still reaches
// the caller.
func TestDaviesHarteEigenPool(t *testing.T) {
	ctx := context.Background()
	p := genpool.New(0)
	if _, err := p.DaviesHarteEigen(ctx, 0.8, 1024); err != nil {
		t.Fatal(err)
	}
	warm, err := p.DaviesHarteEigen(ctx, 0.8, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("1,000 points should hit the 1,024-point entry: %+v", st)
	}
	cold, err := fgn.DaviesHarteEigenCtx(ctx, 1000, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqual(t, "1,000-point draw", drawDaviesHarte(t, cold, 1000), drawDaviesHarte(t, warm, 1000))
	for _, n := range []int{0, -1} {
		if _, err := p.DaviesHarteEigen(ctx, 0.8, n); err == nil {
			t.Errorf("Davies–Harte n=%d: no error", n)
		}
		if _, err := p.PaxsonSpectrum(ctx, 0.8, n); err == nil {
			t.Errorf("Paxson n=%d: no error", n)
		}
	}
	if st := p.Stats(); st.Entries != 1 {
		t.Fatalf("a refused length left an entry: %+v", st)
	}
}

// drawDaviesHarte is an n-point batch draw from eig at a fixed seed.
func drawDaviesHarte(t *testing.T, eig *fgn.Pair, n int) []float64 {
	t.Helper()
	x, err := fgn.DaviesHarteFromEigenCtx(context.Background(), n, eig, rand.New(rand.NewPCG(3, 4)))
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// drawPaxson is an n-point batch draw from spec at a fixed seed.
func drawPaxson(t *testing.T, spec *fgn.Pair, n int) []float64 {
	t.Helper()
	x, err := fgn.PaxsonFromSpectrumCtx(context.Background(), n, spec, rand.New(rand.NewPCG(3, 4)))
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestConcurrentHammer runs 32 goroutines against one pool mixing all
// three item kinds, prefix extensions and repeated keys. Run under
// -race this pins the pool's concurrency safety; the bitwise checks
// pin that shared schedules read consistently mid-extension.
func TestConcurrentHammer(t *testing.T) {
	ctx := context.Background()
	p := genpool.New(0)
	want := coldHosking(t, 1200)

	const workers = 32
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Interleave growing Hosking requests with the two other
			// kinds so map, LRU and byte accounting all churn together.
			n := 100 + (w%8)*150
			c, err := p.HoskingCoeffs(ctx, 0.8, n)
			if err != nil {
				errc <- err
				return
			}
			x, err := fgn.HoskingFromCoeffs(ctx, n, c, rand.New(rand.NewPCG(21, 22)))
			if err != nil {
				errc <- err
				return
			}
			for i := range x {
				if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
					errc <- fmt.Errorf("worker %d: output bits diverge at k=%d", w, i)
					return
				}
			}
			if _, err := p.DaviesHarteEigen(ctx, 0.7, 256+(w%4)*64); err != nil {
				errc <- err
				return
			}
			if _, err := p.QuantileTable(ctx, 27791, 6254, 12, 1000+(w%3)*500); err != nil {
				errc <- err
				return
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Entries == 0 || st.Bytes == 0 {
		t.Fatalf("pool ended empty: %+v", st)
	}
}

// TestEvictionBound fills a tiny pool far past its budget and checks
// that resident bytes never exceed it, that evictions happen, and that
// evicted values were still served correctly.
func TestEvictionBound(t *testing.T) {
	ctx := context.Background()
	// 64 KiB: each 1024-point entry is 49,136 B — 16 KiB of pair-draw
	// amplitudes and 32,752 B of 2048-point FFT twiddles — so at most
	// one is resident.
	const budget = 64 << 10
	p := genpool.New(budget)
	for i := 0; i < 24; i++ {
		h := 0.5 + float64(i+1)/50 // distinct keys
		eig, err := p.DaviesHarteEigen(ctx, h, 1024)
		if err != nil {
			t.Fatal(err)
		}
		if n := eig.Len(); n != 2048 {
			t.Fatalf("eigen vector %d has %d entries, want 2048", i, n)
		}
		if st := p.Stats(); st.Bytes > st.MaxBytes {
			t.Fatalf("resident bytes %d exceed budget %d", st.Bytes, st.MaxBytes)
		}
	}
	st := p.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions after overfilling: %+v", st)
	}
	if st.Bytes > budget {
		t.Fatalf("final bytes %d exceed budget %d", st.Bytes, budget)
	}
}

// TestEngineEntriesChargePlan: a Davies–Harte or Paxson entry is
// charged for its FFT plan as well as its amplitudes, and a second
// lookup returns the same shared value.
func TestEngineEntriesChargePlan(t *testing.T) {
	ctx := context.Background()
	p := genpool.New(0)
	eig, err := p.DaviesHarteEigen(ctx, 0.8, 2560)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := p.PaxsonSpectrum(ctx, 0.8, 2560)
	if err != nil {
		t.Fatal(err)
	}
	vectors := 8 * int64(eig.Len()+spec.Len())
	st := p.Stats()
	if st.Bytes != eig.Bytes()+spec.Bytes() || st.Bytes <= vectors {
		t.Fatalf("pool charges %d bytes; entries report %d + %d, vectors alone %d", st.Bytes, eig.Bytes(), spec.Bytes(), vectors)
	}
	again, err := p.DaviesHarteEigen(ctx, 0.8, 2560)
	if err != nil {
		t.Fatal(err)
	}
	if again != eig {
		t.Fatal("a hit returned a different value than the cached one")
	}
}

// TestOversizedItemNotRetained: an item larger than the whole budget is
// computed and returned, but must not take up residence.
func TestOversizedItemNotRetained(t *testing.T) {
	ctx := context.Background()
	p := genpool.New(1024) // 1 KiB: a 1024-point entry (48 KiB) cannot fit
	eig, err := p.DaviesHarteEigen(ctx, 0.8, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if n := eig.Len(); n != 2048 {
		t.Fatalf("got %d entries, want 2048", n)
	}
	if st := p.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized item was retained: %+v", st)
	}
}

// TestNilPoolComputesCold: a nil *Pool is a valid no-cache pool.
func TestNilPoolComputesCold(t *testing.T) {
	ctx := context.Background()
	var p *genpool.Pool
	c, err := p.HoskingCoeffs(ctx, 0.8, 64)
	if err != nil || c.Len() < 64 {
		t.Fatalf("nil-pool Hosking: %v (len %d)", err, c.Len())
	}
	if _, err := p.DaviesHarteEigen(ctx, 0.8, 64); err != nil {
		t.Fatalf("nil-pool eigen: %v", err)
	}
	if _, err := p.QuantileTable(ctx, 27791, 6254, 12, 100); err != nil {
		t.Fatalf("nil-pool table: %v", err)
	}
	if st := p.Stats(); st != (genpool.Stats{}) {
		t.Fatalf("nil-pool stats: %+v", st)
	}
}

// TestErrorNotCached: a failed fill must not poison the key.
func TestErrorNotCached(t *testing.T) {
	ctx := context.Background()
	p := genpool.New(0)
	if _, err := p.QuantileTable(ctx, -1, 6254, 12, 100); err == nil {
		t.Fatal("expected an error for a negative mean")
	}
	if st := p.Stats(); st.Entries != 0 {
		t.Fatalf("errored entry retained: %+v", st)
	}
}
