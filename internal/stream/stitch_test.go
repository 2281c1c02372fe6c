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

// TestSynthLen pins the chunk synthesis-length rule: the next power of
// two at or above block+overlap.
func TestSynthLen(t *testing.T) {
	for _, c := range []struct{ block, overlap, want int }{
		{4096, 1024, 8192},
		{3072, 1024, 4096},
		{2048, 512, 4096},
		{1, 0, 1},
	} {
		if got := synthLen(c.block, c.overlap); got != c.want {
			t.Errorf("synthLen(%d, %d) = %d, want %d", c.block, c.overlap, got, c.want)
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
// default geometry (4,096-frame blocks, 1,024-frame overlap, 8,192-point
// chunks, a 7,168-frame chunk stride): three chunks, from two pair
// draws, and two seams per 20,000-frame stream, one seam inside a pair
// and one across pairs. It pins the Gaussian stage (the stitch output
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
		if got := fnv1a(collectGauss(t, cfg)); got != c.gauss {
			t.Errorf("%v: Gaussian-stage hash %#x, want %#x", c.b, got, c.gauss)
		}
		if got := fnv1a(collect(t, cfg)); got != c.want {
			t.Errorf("%v: stream hash %#x, want %#x", c.b, got, c.want)
		}
	}
}

// collectGauss drains the Gaussian stage of a stream opened for cfg:
// the backend's blocks before the marginal map.
func collectGauss(t *testing.T, cfg Config) []float64 {
	t.Helper()
	ctx := context.Background()
	s, err := OpenCtx(ctx, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var out []float64
	buf := make([]float64, s.cfg.BlockSize)
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

// TestBlockClampedToN: a block longer than the stream is clamped to N
// before anything is sized from it, so a hostile block size allocates
// nothing extra, and the overlap default follows the clamped block.
func TestBlockClampedToN(t *testing.T) {
	ctx := context.Background()
	for _, b := range []backend.Backend{backend.Hosking, backend.DaviesHarte, backend.Paxson} {
		s, err := OpenCtx(ctx, Config{Model: paperModel(), N: 100, BlockSize: 200_000_000, Seed: 1, Backend: b})
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		if s.cfg.BlockSize != 100 || s.cfg.Overlap != 25 || len(s.gbuf) != 100 {
			t.Errorf("%v: block %d, overlap %d, buffer %d; want block 100, overlap 25, buffer 100",
				b, s.cfg.BlockSize, s.cfg.Overlap, len(s.gbuf))
		}
		if st, ok := s.gauss.(*stitch); ok && st.size != 128 {
			t.Errorf("%v: chunk of %d points, want 128", b, st.size)
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

// FuzzStreamGeometry drives the stitched backends over arbitrary
// block and overlap sizes: OpenCtx rejects exactly the invalid
// geometries, every accepted stream drains exactly n finite,
// non-negative frames in blocks no longer than n, and the block is
// only a buffering choice: re-opened with block = S − L, the chunk
// stride, and the same explicit overlap L, the stream emits the same
// bits. A zero overlap cannot be requested explicitly (0 selects the
// default), so those geometries skip the re-open.
func FuzzStreamGeometry(f *testing.F) {
	f.Add(1000, 0, 0, false)
	f.Add(100, 1, 50_000_000, false)
	f.Add(100, 200_000_000, 0, true)
	f.Add(1, 1, 0, true)
	f.Add(8192, 4096, 1024, false)
	f.Add(5000, 3, 2, true)
	f.Add(-4, 0, 0, true)
	f.Fuzz(func(t *testing.T, n, block, overlap int, paxson bool) {
		n %= 1<<13 + 1 // n ≤ 2¹³ keeps every chunk draw small
		b := backend.DaviesHarte
		if paxson {
			b = backend.Paxson
		}
		eff := block
		if eff == 0 {
			eff = 4096
		}
		eff = min(eff, n)
		valid := n >= 1 && eff >= 1 && (overlap == 0 || overlap > 0 && overlap < eff)

		ctx := context.Background()
		s, err := OpenCtx(ctx, Config{Model: paperModel(), N: n, BlockSize: block, Overlap: overlap, Seed: 7, Backend: b})
		if err != nil {
			if valid {
				t.Fatalf("%v n=%d block=%d overlap=%d: rejected a valid geometry: %v", b, n, block, overlap, err)
			}
			return
		}
		if !valid {
			t.Fatalf("%v n=%d block=%d overlap=%d: accepted an invalid geometry", b, n, block, overlap)
		}
		var out []float64
		for {
			blk, err := s.Next(ctx)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("%v n=%d block=%d overlap=%d: Next: %v", b, n, block, overlap, err)
			}
			if len(blk) > n {
				t.Fatalf("%v n=%d block=%d overlap=%d: block of %d frames", b, n, block, overlap, len(blk))
			}
			for i, v := range blk {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("%v n=%d block=%d overlap=%d: frame %d = %v", b, n, block, overlap, len(out)+i, v)
				}
			}
			out = append(out, blk...)
		}
		if len(out) != n {
			t.Fatalf("%v n=%d block=%d overlap=%d: drained %d frames", b, n, block, overlap, len(out))
		}
		l := s.cfg.Overlap
		if l == 0 {
			return
		}
		stride := synthLen(s.cfg.BlockSize, l) - l
		r, err := OpenCtx(ctx, Config{Model: paperModel(), N: n, BlockSize: stride, Overlap: l, Seed: 7, Backend: b})
		if err != nil {
			t.Fatalf("%v n=%d block=%d overlap=%d: re-open with block %d: %v", b, n, block, overlap, stride, err)
		}
		again, err := Collect(ctx, r)
		if err != nil {
			t.Fatalf("%v n=%d block=%d overlap=%d: re-opened stream: %v", b, n, block, overlap, err)
		}
		if len(again) != n || fnv1a(again) != fnv1a(out) {
			t.Fatalf("%v n=%d block=%d overlap=%d: block %d changed the output", b, n, block, overlap, stride)
		}
	})
}
