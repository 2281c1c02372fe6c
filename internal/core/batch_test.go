package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"vbr/internal/errs"
	"vbr/internal/genpool"
)

// TestGenerateBatchDeterministic: a batch is a pure function of
// (model, k, n, opts) — re-running it yields identical traces, and
// trace i equals a solo GenerateCtx with the documented derived seed.
func TestGenerateBatchDeterministic(t *testing.T) {
	ctx := context.Background()
	m := Model{MuGamma: 27791, SigmaGamma: 6254, TailSlope: 12, Hurst: 0.8}
	opts := DefaultGenOptions()
	opts.Seed = 99
	const k, n = 6, 1500

	a, err := m.GenerateBatch(context.Background(), k, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.GenerateBatch(context.Background(), k, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < k; i++ {
		solo := opts
		solo.Seed = BatchSeed(opts.Seed, i)
		want, err := m.GenerateCtx(ctx, n, solo)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				t.Fatalf("batch not reproducible: trace %d frame %d", i, j)
			}
			if math.Float64bits(a[i][j]) != math.Float64bits(want[j]) {
				t.Fatalf("trace %d frame %d differs from solo Generate with BatchSeed", i, j)
			}
		}
	}

	// Distinct traces must actually be distinct realizations.
	same := true
	for j := range a[0] {
		if math.Float64bits(a[0][j]) != math.Float64bits(a[1][j]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("traces 0 and 1 are identical; seed derivation collapsed")
	}
}

// TestGenerateBatchSharedPool: a caller-supplied pool is reused across
// the whole batch — the coefficient schedule is computed once, and the
// rest of the traces hit it.
func TestGenerateBatchSharedPool(t *testing.T) {
	m := Model{MuGamma: 27791, SigmaGamma: 6254, TailSlope: 12, Hurst: 0.8}
	opts := DefaultGenOptions()
	opts.Pool = genpool.New(0)
	if _, err := m.GenerateBatch(context.Background(), 4, 800, opts); err != nil {
		t.Fatal(err)
	}
	st := opts.Pool.Stats()
	if st.Hits == 0 {
		t.Fatalf("batch never hit the shared pool: %+v", st)
	}
	if st.Entries != 2 { // one Hosking schedule + one quantile table
		t.Fatalf("expected 2 pool entries, got %+v", st)
	}
}

// TestGenerateBatchCancellation: cancelling mid-batch surfaces an
// errs.ErrCancelled-matching error rather than a partial result.
func TestGenerateBatchCancellation(t *testing.T) {
	m := Model{MuGamma: 27791, SigmaGamma: 6254, TailSlope: 12, Hurst: 0.8}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := m.GenerateBatch(ctx, 4, 5000, DefaultGenOptions())
	if err == nil || !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("want cancellation error, got %v", err)
	}
}

// TestGenerateBatchValidation covers the argument gate.
func TestGenerateBatchValidation(t *testing.T) {
	m := Model{MuGamma: 27791, SigmaGamma: 6254, TailSlope: 12, Hurst: 0.8}
	if _, err := m.GenerateBatch(context.Background(), 0, 100, DefaultGenOptions()); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := m.GenerateBatch(context.Background(), 1, 0, DefaultGenOptions()); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := (Model{}).GenerateBatch(context.Background(), 1, 100, DefaultGenOptions()); err == nil {
		t.Fatal("invalid model accepted")
	}
}
