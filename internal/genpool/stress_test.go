package genpool_test

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"vbr/internal/fgn"
	"vbr/internal/genpool"
)

// TestStressCoeffsExtendEvict hammers the singleflight fill path where
// it is most delicate: concurrent EnsureCtx prefix extension of shared
// HoskingCoeffs entries while a deliberately tiny byte budget forces
// eviction of those same entries mid-extension. Every entry handed out
// must still generate the bits of a cold single-threaded computation —
// eviction may drop an entry from the pool, but it must never corrupt
// coefficients a reader already holds or double-account the
// budget. Run under -race this exercises the acquire/finish/resize
// lock discipline that lockguard checks statically.
func TestStressCoeffsExtendEvict(t *testing.T) {
	ctx := context.Background()

	// Three Hurst values, each extended to maxN. Coefficients for n
	// points hold 24 bytes per point plus the spectra and FFT plans of
	// the tree levels below n, about 110 KiB at maxN; a 128 KiB budget
	// fits barely one full-size entry, forcing the three keys to evict
	// each other continuously.
	hs := []float64{0.6, 0.75, 0.9}
	const maxN = 1200
	p := genpool.New(128 << 10)

	// Cold references, computed once without the pool: the same seed
	// drawn on fresh coefficients. Output is a prefix of any longer run.
	refs := map[float64][]float64{}
	for _, h := range hs {
		c, err := fgn.NewHoskingCoeffs(h)
		if err != nil {
			t.Fatal(err)
		}
		if refs[h], err = fgn.HoskingFromCoeffs(ctx, maxN, c, rand.New(rand.NewPCG(5, 6))); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 24
	const rounds = 6
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := hs[w%len(hs)]
			want := refs[h]
			for r := 0; r < rounds; r++ {
				// Growing lengths: later rounds extend prefixes the pool
				// may have evicted and refilled in the meantime.
				n := 200 + r*((maxN-200)/(rounds-1)) + (w%4)*7
				if n > maxN {
					n = maxN
				}
				c, err := p.HoskingCoeffs(ctx, h, n)
				if err != nil {
					errc <- err
					return
				}
				x, err := fgn.HoskingFromCoeffs(ctx, n, c, rand.New(rand.NewPCG(5, 6)))
				if err != nil {
					errc <- err
					return
				}
				for i := range x {
					if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
						errc <- fmt.Errorf("worker %d round %d: H=%v output diverges at k=%d", w, r, h, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	st := p.Stats()
	if st.Bytes > st.MaxBytes {
		t.Fatalf("resident bytes %d exceed budget %d: %+v", st.Bytes, st.MaxBytes, st)
	}
	if st.Evictions == 0 {
		t.Fatalf("budget never forced an eviction — the stress shape is wrong: %+v", st)
	}
}
