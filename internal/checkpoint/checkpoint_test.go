package checkpoint

import (
	"context"
	"errors"
	"math/rand/v2"
	"os"
	"path/filepath"
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
func liveState(t *testing.T) *fgn.HoskingState {
	t.Helper()
	cctx := &interruptCtx{Context: context.Background(), limit: 400}
	_, st, err := fgn.HoskingCheckpointed(cctx, 1000, 0.8, rand.NewPCG(11, 13), nil, 0, nil)
	if !errors.Is(err, errs.ErrCancelled) || st == nil {
		t.Fatalf("interrupting generation: err=%v st=%v", err, st)
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
	if g.N != st.N || g.H != st.H || g.K != st.K || g.V != st.V || g.NPrev != st.NPrev || g.DPrev != st.DPrev {
		t.Errorf("scalar state round trip mismatch: %+v vs %+v", g, st)
	}
	if len(g.X) != len(st.X) || len(g.PhiPrev) != len(st.PhiPrev) || len(g.RNG) != len(st.RNG) {
		t.Fatalf("slice lengths differ")
	}
	for i := range st.X {
		if g.X[i] != st.X[i] {
			t.Fatalf("X[%d] differs", i)
		}
	}
	for i := range st.PhiPrev {
		if g.PhiPrev[i] != st.PhiPrev[i] {
			t.Fatalf("PhiPrev[%d] differs", i)
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
