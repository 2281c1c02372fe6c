package stream

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"io"
	"math"
	"testing"

	"vbr/internal/backend"
)

// TestSynthLen pins the chunk synthesis length S, and the overlap L,
// that each stream length gets: 8,192-point chunks overlapping by 1,024
// frames from 4,096 frames on, and below that one chunk at the next
// power of two ≥ N + ⌊N/4⌋ with L = ⌊N/4⌋, long enough that the stream
// never blends.
func TestSynthLen(t *testing.T) {
	for _, c := range []struct{ n, size, overlap int }{
		{1, 1, 0},
		{100, 128, 25},
		{3072, 4096, 768},
		{4095, 8192, 1023},
		{4096, 8192, 1024},
		{1 << 20, 8192, 1024},
	} {
		size, overlap := geometry(c.n)
		if size != c.size || overlap != c.overlap {
			t.Errorf("geometry(%d) = (%d, %d), want (%d, %d)", c.n, size, overlap, c.size, c.overlap)
		}
		if c.n < 4096 && size-overlap < c.n {
			t.Errorf("geometry(%d): stride %d < N, so the stream blends", c.n, size-overlap)
		}
	}
}

// fnv1a folds a series into an FNV-1a 64 hash over each value's
// IEEE-754 bits, little-endian, as the queue goldens do.
func fnv1a(xs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestChunkedStreamGolden pins the stitched streams' output bits at the
// geometry of every stream of 4,096 frames or more (8,192-point chunks,
// a 1,024-frame overlap, a 7,168-frame chunk stride): three chunks,
// from two pair draws, and two seams per 20,000-frame stream, one seam
// inside a pair and one across pairs. It pins the Gaussian stage (the stitch output
// before Eq. 13) apart from the served frames, so a change to the
// marginal map alone re-pins only the second hash. The chunks are pair
// draws, whose amplitudes fgn's pair oracles hold to FarimaACF and to
// the fARIMA spectral density.
// The constants were captured once from this code and change only
// deliberately, with the change that alters the stream bits; vbrd and
// the fleet serve these same bytes, so regenerating them is a wire
// change.
func TestChunkedStreamGolden(t *testing.T) {
	for _, c := range []struct {
		b           backend.Backend
		gauss, want uint64
	}{
		{backend.DaviesHarte, 0xfc9e79aa37ddbd4e, 0x7232ae368636a407},
		{backend.Paxson, 0x3ed647f7a46c5c51, 0x23afe99cd08f8965},
	} {
		cfg := Config{Model: paperModel(), N: 20_000, Seed: 1994, Backend: c.b}
		if got := fnv1a(collectGauss(t, cfg, BlockLen)); got != c.gauss {
			t.Errorf("%v: Gaussian-stage hash %#x, want %#x", c.b, got, c.gauss)
		}
		if got := fnv1a(collect(t, cfg)); got != c.want {
			t.Errorf("%v: stream hash %#x, want %#x", c.b, got, c.want)
		}
	}
}

// collectGauss drains the Gaussian stage of a stream opened for cfg,
// the backend's output before the marginal map, through a buffer of
// bufLen points.
func collectGauss(t *testing.T, cfg Config, bufLen int) []float64 {
	t.Helper()
	ctx := context.Background()
	s, err := OpenCtx(ctx, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var out []float64
	buf := make([]float64, bufLen)
	for {
		k, err := s.gauss.Next(ctx, buf)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("Gaussian stage: %v", err)
		}
		out = append(out, buf[:k]...)
	}
	if len(out) != cfg.N {
		t.Fatalf("Gaussian stage gave %d points, want %d", len(out), cfg.N)
	}
	return out
}

// TestBlockClampedToN: a stream shorter than BlockLen sizes its buffer
// to N, so a short request allocates nothing extra, and a stitched one
// draws one chunk of the next power of two ≥ N + ⌊N/4⌋.
func TestBlockClampedToN(t *testing.T) {
	ctx := context.Background()
	for _, b := range []backend.Backend{backend.Hosking, backend.DaviesHarte, backend.Paxson} {
		s, err := OpenCtx(ctx, Config{Model: paperModel(), N: 100, Seed: 1, Backend: b})
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		if len(s.gbuf) != 100 {
			t.Errorf("%v: buffer %d, want 100", b, len(s.gbuf))
		}
		if st, ok := s.gauss.(*stitch); ok && (st.size != 128 || st.overlap != 25) {
			t.Errorf("%v: chunk of %d points overlapping by %d, want 128 and 25", b, st.size, st.overlap)
		}
		blk, err := s.Next(ctx)
		if err != nil || len(blk) != 100 {
			t.Fatalf("%v: first block %d frames (%v), want 100", b, len(blk), err)
		}
		if _, err := s.Next(ctx); !errors.Is(err, io.EOF) {
			t.Errorf("%v: second Next = %v, want io.EOF", b, err)
		}
	}
}

// FuzzStreamGeometry drives every engine over arbitrary lengths:
// OpenCtx rejects exactly N < 1, every accepted stream drains exactly
// N finite, non-negative frames in blocks of at most BlockLen, and the
// buffer is only a buffer: the Gaussian stage drained through drain
// points at a time gives the bits it gives through BlockLen.
func FuzzStreamGeometry(f *testing.F) {
	f.Add(1000, 1, uint8(0))
	f.Add(100, 7, uint8(1))
	f.Add(1, 1, uint8(2))
	f.Add(4095, 4096, uint8(0))
	f.Add(4096, 1000, uint8(1))
	f.Add(8192, 7168, uint8(0))
	f.Add(-4, 5, uint8(1))
	f.Fuzz(func(t *testing.T, n, drain int, engine uint8) {
		n %= 1<<13 + 1 // n ≤ 2¹³ keeps every draw small and still crosses a seam
		drain = 1 + int(uint(drain)%(2*BlockLen))
		b := []backend.Backend{backend.DaviesHarte, backend.Paxson, backend.Hosking}[engine%3]
		cfg := Config{Model: paperModel(), N: n, Seed: 7, Backend: b}

		ctx := context.Background()
		s, err := OpenCtx(ctx, cfg)
		if err != nil {
			if n >= 1 {
				t.Fatalf("%v n=%d: rejected a valid length: %v", b, n, err)
			}
			return
		}
		if n < 1 {
			t.Fatalf("%v n=%d: accepted an invalid length", b, n)
		}
		got := 0
		for {
			blk, err := s.Next(ctx)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("%v n=%d: Next: %v", b, n, err)
			}
			if len(blk) > BlockLen {
				t.Fatalf("%v n=%d: block of %d frames", b, n, len(blk))
			}
			for i, v := range blk {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("%v n=%d: frame %d = %v", b, n, got+i, v)
				}
			}
			got += len(blk)
		}
		if got != n {
			t.Fatalf("%v n=%d: drained %d frames", b, n, got)
		}
		if fnv1a(collectGauss(t, cfg, drain)) != fnv1a(collectGauss(t, cfg, BlockLen)) {
			t.Fatalf("%v n=%d: a %d-point buffer changed the Gaussian stage", b, n, drain)
		}
	})
}
