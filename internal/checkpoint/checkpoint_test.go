package checkpoint

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"vbr/internal/errs"
	"vbr/internal/fgn"
)

// interruptCtx cancels deterministically after limit Err() calls.
type interruptCtx struct {
	context.Context
	calls, limit int
}

func (c *interruptCtx) Err() error {
	c.calls++
	if c.calls > c.limit {
		return context.Canceled
	}
	return nil
}

// liveState interrupts a real Hosking run to obtain a genuine snapshot.
func liveState(tb testing.TB) *fgn.HoskingState {
	tb.Helper()
	cctx := &interruptCtx{Context: context.Background(), limit: 400}
	_, st, err := fgn.HoskingCheckpointed(cctx, 1000, 0.8, rand.NewPCG(11, 13), nil, 0, nil)
	if !errors.Is(err, errs.ErrCancelled) || st == nil {
		tb.Fatalf("interrupting generation: err=%v st=%v", err, st)
	}
	return st
}

func TestHoskingRoundTrip(t *testing.T) {
	st := liveState(t)
	path := filepath.Join(t.TempDir(), "gen.ckpt")
	rec := &HoskingRecord{
		Meta:  map[string]string{"seed": "11", "variant": "full", "mu": "27791"},
		State: st,
	}
	if err := SaveHosking(path, rec); err != nil {
		t.Fatal(err)
	}
	got, err := LoadHosking(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta["seed"] != "11" || got.Meta["variant"] != "full" || got.Meta["mu"] != "27791" {
		t.Errorf("meta round trip: %v", got.Meta)
	}
	g := got.State
	if g.N != st.N || g.H != st.H || g.K != st.K {
		t.Errorf("scalar state round trip mismatch: %+v vs %+v", g, st)
	}
	if len(g.X) != len(st.X) || !bytes.Equal(g.RNG, st.RNG) {
		t.Fatalf("prefix length or random-source state differs")
	}
	for i := range st.X {
		if g.X[i] != st.X[i] {
			t.Fatalf("X[%d] differs", i)
		}
	}

	// The reloaded state must actually resume and complete.
	x, st2, err := fgn.HoskingCheckpointed(context.Background(), st.N, st.H, rand.NewPCG(0, 0), got.State, 0, nil)
	if err != nil || st2 != nil {
		t.Fatalf("resume from reloaded state: err=%v", err)
	}
	want, _, err := fgn.HoskingCheckpointed(context.Background(), st.N, st.H, rand.NewPCG(11, 13), nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("resumed-from-disk output differs at %d", i)
		}
	}
}

func TestSearchRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "search.ckpt")
	st := &SearchState{}
	st.Set("N=5/Pl=1e-4", true, []float64{0.001, 0.002}, []float64{6e6, 5e6})
	st.Set("N=20/Pl=0", false, []float64{0.001}, []float64{9e6})
	st.Set("N=5/Pl=1e-4", true, []float64{0.001, 0.002, 0.004}, []float64{6e6, 5e6, 4e6}) // replace
	rec := &SearchRecord{Meta: map[string]string{"frames": "30000"}, State: st}
	if err := SaveSearch(path, rec); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSearch(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta["frames"] != "30000" {
		t.Errorf("meta: %v", got.Meta)
	}
	if len(got.State.Curves) != 2 {
		t.Fatalf("got %d curves, want 2", len(got.State.Curves))
	}
	c := got.State.Find("N=5/Pl=1e-4")
	if c == nil || !c.Done || len(c.X) != 3 || c.Y[2] != 4e6 {
		t.Errorf("curve round trip: %+v", c)
	}
	if got.State.Find("N=20/Pl=0") == nil {
		t.Error("second curve missing")
	}
	if got.State.Find("nonexistent") != nil {
		t.Error("Find invented a curve")
	}
}

func TestVersionRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.ckpt")
	if err := SaveHosking(path, &HoskingRecord{State: liveState(t)}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[8] = 99 // version low byte
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = LoadHosking(path)
	if !errors.Is(err, errs.ErrCheckpointVersion) {
		t.Errorf("got %v, want ErrCheckpointVersion", err)
	}
}

// TestVersion1Refused pins the refusal of the previous format: a
// version-1 file of either kind fails with ErrCheckpointVersion and a
// message that says why and what to do.
func TestVersion1Refused(t *testing.T) {
	for _, kind := range []Kind{KindHosking, KindSearch} {
		path := filepath.Join(t.TempDir(), "v1.ckpt")
		if err := os.WriteFile(path, version1Header(kind), 0o644); err != nil {
			t.Fatal(err)
		}
		var err error
		if kind == KindHosking {
			_, err = LoadHosking(path)
		} else {
			_, err = LoadSearch(path)
		}
		if !errors.Is(err, errs.ErrCheckpointVersion) {
			t.Fatalf("%v: got %v, want ErrCheckpointVersion", kind, err)
		}
		for _, want := range []string{"version 1", "Levinson", "capacity-search", "without -resume"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%v: message %q does not mention %q", kind, err, want)
			}
		}
	}
}

// version1Header is the first 12 bytes of a version-1 file of kind.
func version1Header(kind Kind) []byte {
	b := append([]byte(nil), magic[:]...)
	b = binary.LittleEndian.AppendUint16(b, 1)
	return binary.LittleEndian.AppendUint16(b, uint16(kind))
}

// FuzzLoadHosking feeds arbitrary bytes to the generation-record loader:
// it must fail with a checkpoint sentinel or return a record whose state
// resume validation accepts, never panic, and never allocate ahead of
// the data a length field claims.
func FuzzLoadHosking(f *testing.F) {
	var saved bytes.Buffer
	w := bufio.NewWriter(&saved)
	writeHeader(w, KindHosking)
	writeMeta(w, map[string]string{"seed": "11"})
	st := liveState(f)
	writeUvarint(w, uint64(st.N))
	writeFloat(w, st.H)
	writeUvarint(w, uint64(st.K))
	writeFloats(w, st.X)
	writeBytes(w, st.RNG)
	w.Flush()
	f.Add(saved.Bytes())
	f.Add(version1Header(KindHosking))
	// A point count far beyond the data that follows it.
	var short bytes.Buffer
	w = bufio.NewWriter(&short)
	writeHeader(w, KindHosking)
	writeMeta(w, nil)
	writeUvarint(w, maxCount)
	writeFloat(w, 0.8)
	writeUvarint(w, maxCount)
	writeUvarint(w, maxCount)
	writeFloat(w, 1)
	w.Flush()
	f.Add(short.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, err := readHosking(bufio.NewReader(bytes.NewReader(data)), "fuzz")
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(data))+1<<20 {
			t.Fatalf("loading %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			if !errors.Is(err, errs.ErrCheckpointCorrupt) && !errors.Is(err, errs.ErrCheckpointVersion) &&
				!errors.Is(err, errs.ErrCheckpointMismatch) {
				t.Fatalf("error matches no checkpoint sentinel: %v", err)
			}
			return
		}
		if err := rec.State.Validate(new(rand.PCG)); err != nil {
			t.Fatalf("loaded a state resume validation rejects: %v", err)
		}
	})
}

func TestKindMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "k.ckpt")
	if err := SaveSearch(path, &SearchRecord{State: &SearchState{}}); err != nil {
		t.Fatal(err)
	}
	_, err := LoadHosking(path)
	if !errors.Is(err, errs.ErrCheckpointMismatch) {
		t.Errorf("got %v, want ErrCheckpointMismatch", err)
	}
}

func TestCorruptionRejected(t *testing.T) {
	dir := t.TempDir()

	// Bad magic.
	bad := filepath.Join(dir, "bad.ckpt")
	if err := os.WriteFile(bad, []byte("not a checkpoint at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadHosking(bad); !errors.Is(err, errs.ErrCheckpointCorrupt) {
		t.Errorf("bad magic: got %v, want ErrCheckpointCorrupt", err)
	}

	// Truncated payload.
	full := filepath.Join(dir, "full.ckpt")
	if err := SaveHosking(full, &HoskingRecord{State: liveState(t)}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.ckpt")
	if err := os.WriteFile(trunc, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadHosking(trunc); !errors.Is(err, errs.ErrCheckpointCorrupt) {
		t.Errorf("truncated: got %v, want ErrCheckpointCorrupt", err)
	}

	// Missing file surfaces the OS error, not a corruption claim.
	if _, err := LoadHosking(filepath.Join(dir, "absent.ckpt")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: got %v, want fs not-exist", err)
	}
}

func TestAtomicWriteLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gen.ckpt")
	if err := SaveHosking(path, &HoskingRecord{State: liveState(t)}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "gen.ckpt" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("directory holds %v, want only gen.ckpt", names)
	}
}
