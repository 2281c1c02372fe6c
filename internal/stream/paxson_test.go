package stream

import (
	"context"
	"math"
	"testing"

	"vbr/internal/backend"
	"vbr/internal/core"
	"vbr/internal/genpool"
	"vbr/internal/lrd"
)

// TestPaxsonBlockAdapterVsBatch is the block-adapter tolerance contract:
// a stitched Paxson stream and a batch Paxson generation of the same
// length must agree on Ĥ within the combined Whittle confidence
// intervals — the seams and the independent-chunk structure must not
// move the estimate beyond sampling error.
func TestPaxsonBlockAdapterVsBatch(t *testing.T) {
	ctx := context.Background()
	const n = 1 << 16
	m := paperModel()
	frames := collect(t, Config{Model: m, N: n, BlockSize: 4096, Overlap: 1024, Seed: 5, Backend: backend.Paxson})
	ws, err := lrd.Whittle(frames)
	if err != nil {
		t.Fatalf("Whittle(stream): %v", err)
	}
	batch, err := m.GenerateCtx(ctx, n, core.GenOptions{
		Backend: backend.Paxson, TableSize: 10000, Standardize: true, Seed: 5,
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
	if ws.H < 0.75 || ws.H > 0.95 {
		t.Errorf("stream Ĥ = %v, want in [0.75, 0.95] for model H=%v", ws.H, m.Hurst)
	}
}

// TestPaxsonShortFinalBlock: N not a multiple of the block size must
// still drain exactly N valid frames.
func TestPaxsonShortFinalBlock(t *testing.T) {
	cfg := Config{Model: paperModel(), N: 10_000, BlockSize: 4096, Overlap: 512, Seed: 2, Backend: backend.Paxson}
	frames := collect(t, cfg)
	for i, f := range frames {
		if math.IsNaN(f) || f < 0 {
			t.Fatalf("frame %d invalid: %v", i, f)
		}
	}
}

// TestStreamAutoResolvesToPaxson pins the streaming half of the Auto
// policy: a stream is long-running by construction, so Auto always
// resolves to Paxson, and the resolution is visible via Backend() (the
// value the HTTP layer echoes). Concrete backends pass through.
func TestStreamAutoResolvesToPaxson(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		in   backend.Backend
		want backend.Backend
	}{
		{backend.Auto, backend.Paxson},
		{backend.Paxson, backend.Paxson},
		{backend.DaviesHarte, backend.DaviesHarte},
		{backend.Hosking, backend.Hosking},
	}
	for _, c := range cases {
		s, err := OpenCtx(ctx, Config{Model: paperModel(), N: 64, Seed: 1, Backend: c.in})
		if err != nil {
			t.Fatalf("OpenCtx(%v): %v", c.in, err)
		}
		if got := s.Backend(); got != c.want {
			t.Errorf("OpenCtx(%v).Backend() = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestPaxsonStreamPooledBitwise: serving the chunk spectrum from a
// shared pool must not change a single output bit, and a second stream
// on the same pool must hit the cache (the stream looks its spectrum
// up once, at open, so one cached value serves every stream of the
// same H and chunk length).
func TestPaxsonStreamPooledBitwise(t *testing.T) {
	cfg := Config{Model: paperModel(), N: 1 << 14, BlockSize: 2048, Overlap: 512, Seed: 9, Backend: backend.Paxson}
	cold := collect(t, cfg)
	pooled := cfg
	pooled.Pool = genpool.New(0)
	for round := 0; round < 2; round++ { // cold pool, then warm
		warm := collect(t, pooled)
		for i := range cold {
			if math.Float64bits(cold[i]) != math.Float64bits(warm[i]) {
				t.Fatalf("round %d: frame %d differs: cold %v pooled %v", round, i, cold[i], warm[i])
			}
		}
	}
	// Two lookups per stream (mapping table, spectrum): the first
	// stream misses both, the second hits both.
	if st := pooled.Pool.Stats(); st.Hits != 2 || st.Misses != 2 {
		t.Errorf("want 2 hits and 2 misses over two streams, got %+v", st)
	}
}

// TestPaxsonStreamDeterministic: same config, same bits.
// FuzzStreamGeometry pins that the block size does not change them.
func TestPaxsonStreamDeterministic(t *testing.T) {
	cfg := Config{Model: paperModel(), N: 8192, BlockSize: 1024, Overlap: 256, Seed: 21, Backend: backend.Paxson}
	a := collect(t, cfg)
	b := collect(t, cfg)
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("frame %d not deterministic", i)
		}
	}
}

// TestPaxsonStreamIndependentOfDH: a Paxson stream and a Davies–Harte
// stream with the same seed draw from disjoint PCG stream salts; their
// Gaussian stages must not be correlated copies of each other.
func TestPaxsonStreamIndependentOfDH(t *testing.T) {
	base := Config{Model: paperModel(), N: 4096, BlockSize: 1024, Overlap: 256, Seed: 3}
	px := base
	px.Backend = backend.Paxson
	dh := base
	dh.Backend = backend.DaviesHarte
	a := collect(t, px)
	b := collect(t, dh)
	same := 0
	for i := range a {
		if math.Float64bits(a[i]) == math.Float64bits(b[i]) {
			same++
		}
	}
	if same > len(a)/100 {
		t.Errorf("%d of %d frames identical across backends sharing a seed", same, len(a))
	}
}

// TestPaxsonStreamBoundedMemory mirrors the Davies–Harte bound: the
// stitched Paxson backend holds only chunk-sized state.
func TestPaxsonStreamBoundedMemory(t *testing.T) {
	ctx := context.Background()
	s, err := OpenCtx(ctx, Config{Model: paperModel(), N: 200_000, BlockSize: 2048, Overlap: 512, Seed: 1, Backend: backend.Paxson})
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := s.Next(ctx); err != nil {
			break
		}
	}
	if s.Pos() != 200_000 {
		t.Fatalf("drained %d frames, want 200000", s.Pos())
	}
}
