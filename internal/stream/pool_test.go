package stream

import (
	"context"
	"math"
	"sync"
	"testing"

	"vbr/internal/backend"
	"vbr/internal/core"
	"vbr/internal/genpool"
)

// TestStreamPooledBitwise pins the cache invariant at the stream layer:
// for both backends, a pooled stream emits exactly the frames of a
// pool-free stream — on a cold pool and again on a warm one.
func TestStreamPooledBitwise(t *testing.T) {
	base := Config{
		Model: core.Model{MuGamma: 27791, SigmaGamma: 6254, TailSlope: 12, Hurst: 0.8},
		N:     6000, Seed: 31,
	}
	ctx := context.Background()
	for _, bk := range []backend.Backend{backend.Hosking, backend.DaviesHarte} {
		cfg := base
		cfg.Backend = bk
		cold, err := OpenCtx(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Collect(ctx, cold)
		if err != nil {
			t.Fatal(err)
		}
		pool := genpool.New(0)
		for round := 0; round < 2; round++ { // cold pool, then warm
			cfg.Pool = pool
			s, err := OpenCtx(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Collect(ctx, s)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%v round %d: %d frames, want %d", bk, round, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%v round %d: frame %d differs", bk, round, i)
				}
			}
		}
		if st := pool.Stats(); st.Hits == 0 {
			t.Fatalf("%v: warm round never hit the pool: %+v", bk, st)
		}
	}
}

// TestChunkedStreamZeroAlloc pins the allocation-free chunk draw: once
// a Davies–Harte or Paxson stream is open on a warm pool and has
// emitted its first block, every further Next — chunk reseed, spectrum
// randomization, planned FFT, seam blend, marginal transform, monitor —
// allocates nothing.
func TestChunkedStreamZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	ctx := context.Background()
	pool := genpool.New(0)
	const runs = 40
	for _, b := range []backend.Backend{backend.DaviesHarte, backend.Paxson} {
		cfg := Config{Model: paperModel(), N: (runs + 4) * BlockLen, Seed: 5, Backend: b, Pool: pool}
		warm, err := OpenCtx(ctx, cfg) // fills the pool
		if err != nil {
			t.Fatal(err)
		}
		if _, err := warm.Next(ctx); err != nil {
			t.Fatal(err)
		}
		s, err := OpenCtx(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Next(ctx); err != nil {
			t.Fatal(err)
		}
		var nextErr error
		allocs := testing.AllocsPerRun(runs, func() {
			if _, err := s.Next(ctx); err != nil {
				nextErr = err
			}
		})
		if nextErr != nil {
			t.Fatalf("%v: Next: %v", b, nextErr)
		}
		if allocs != 0 {
			t.Errorf("%v: Next allocates %v per block on a warm stream, want 0", b, allocs)
		}
	}
}

// TestChunkedStreamsShareEngine: concurrent streams on one pool share
// a single cached engine value — eigenvalues or spectrum, and the FFT
// plan with its work-buffer pool — and each still emits exactly the
// frames of a pool-free stream. Under -race this pins that the shared
// value is only ever read.
func TestChunkedStreamsShareEngine(t *testing.T) {
	ctx := context.Background()
	const workers = 6
	for _, b := range []backend.Backend{backend.DaviesHarte, backend.Paxson} {
		cfg := Config{Model: paperModel(), N: 5000, Seed: 17, Backend: b}
		want := collect(t, cfg)
		cfg.Pool = genpool.New(0)
		got := make([][]float64, workers)
		errc := make(chan error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				s, err := OpenCtx(ctx, cfg)
				if err != nil {
					errc <- err
					return
				}
				if got[w], err = Collect(ctx, s); err != nil {
					errc <- err
				}
			}(w)
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatal(err)
		}
		for w := range got {
			for i := range want {
				if math.Float64bits(got[w][i]) != math.Float64bits(want[i]) {
					t.Fatalf("%v worker %d: frame %d differs from the pool-free stream", b, w, i)
				}
			}
		}
		if st := cfg.Pool.Stats(); st.Entries != 2 {
			t.Fatalf("%v: %d pool entries, want 2 (mapping table + one shared engine value)", b, st.Entries)
		}
	}
}
