package fleet

import (
	"testing"

	"vbr/internal/core"
	"vbr/internal/server"
)

func TestRingSuccessorsCoverAllWorkers(t *testing.T) {
	r := NewRing(5, 0)
	for key := uint64(0); key < 1000; key += 37 {
		order := r.Successors(key)
		if len(order) != 5 {
			t.Fatalf("key %d: %d successors, want 5", key, len(order))
		}
		seen := map[int]bool{}
		for _, w := range order {
			if w < 0 || w >= 5 || seen[w] {
				t.Fatalf("key %d: bad successor order %v", key, order)
			}
			seen[w] = true
		}
	}
}

func TestRingStableAndDeterministic(t *testing.T) {
	a, b := NewRing(4, 64), NewRing(4, 64)
	for key := uint64(1); key < 100_000; key += 9973 {
		oa, ob := a.Successors(key), b.Successors(key)
		for i := range oa {
			if oa[i] != ob[i] {
				t.Fatalf("key %d: two identical rings disagree: %v vs %v", key, oa, ob)
			}
		}
	}
}

func TestRingBalance(t *testing.T) {
	const workers, keys = 4, 8192
	r := NewRing(workers, 0)
	counts := make([]int, workers)
	m := server.PaperDefault
	for i := 0; i < keys; i++ {
		m.Hurst = 0.5 + float64(i)/(2*keys) // distinct parameter identities
		counts[r.Successors(ModelKey(m))[0]]++
	}
	for w, c := range counts {
		// 128 virtual points keep the spread tight; 10% of an even share
		// is a loose floor that still catches a broken hash.
		if c < keys/workers/10 {
			t.Fatalf("worker %d owns only %d of %d keys: %v", w, c, keys, counts)
		}
	}
}

func TestModelKeyIdentity(t *testing.T) {
	base := core.Model{MuGamma: 27791, SigmaGamma: 6254, TailSlope: 12, Hurst: 0.8}
	if ModelKey(base) != ModelKey(base) {
		t.Fatal("equal models must hash equal")
	}
	variants := []core.Model{base, base, base, base}
	variants[0].MuGamma++
	variants[1].SigmaGamma++
	variants[2].TailSlope++
	variants[3].Hurst += 0.01
	for i, v := range variants {
		if ModelKey(v) == ModelKey(base) {
			t.Fatalf("variant %d: changed parameter did not change the key", i)
		}
	}
}

func TestTraceKeyIdentity(t *testing.T) {
	base := core.Model{MuGamma: 27791, SigmaGamma: 6254, TailSlope: 12, Hurst: 0.8}

	// The backend is part of the routing identity: same model, different
	// engine, different worker shard (their cache entries are disjoint).
	engines := []string{"hosking", "davies-harte", "paxson", "auto"}
	seen := map[uint64]string{}
	for _, e := range engines {
		k := TraceKey(base, e)
		if prev, dup := seen[k]; dup {
			t.Fatalf("backends %q and %q hash to the same key", prev, e)
		}
		seen[k] = e
	}

	// An absent parameter selects the workers' default engine,
	// davies-harte, so the two requests share one identity and must
	// land on the same worker.
	if TraceKey(base, "") != TraceKey(base, server.DefaultBackend.String()) || server.DefaultBackend.String() != "davies-harte" {
		t.Error("empty backend does not share davies-harte's key")
	}

	// The model half still matters with a backend attached.
	other := base
	other.Hurst = 0.7
	if TraceKey(other, "paxson") == TraceKey(base, "paxson") {
		t.Error("changed model parameter did not change the key")
	}

	// Unparseable spellings still hash deterministically (the worker
	// answers 400; the proxy only needs a stable key).
	if TraceKey(base, "fourier") != TraceKey(base, "fourier") {
		t.Error("unknown backend key not deterministic")
	}
}

func TestRingEmpty(t *testing.T) {
	if got := NewRing(0, 0).Successors(12345); got != nil {
		t.Fatalf("empty ring successors = %v, want nil", got)
	}
}
