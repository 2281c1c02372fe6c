// Package genpool is the cross-request generation cache: a
// concurrency-safe, byte-bounded pool for the parameter-keyed
// precomputations of the §4 generator, shared across requests, streams
// and batch workers.
//
//   - Hosking coefficients (fgn.HoskingCoeffs), keyed by H alone with
//     prefix reuse: the closed-form factors of point k and the
//     convolution spectra of each tree level depend on H and their own
//     index only, so one cached 171k-point entry serves every shorter
//     request with the same H, and longer requests extend the cached
//     entry instead of recomputing it.
//   - Davies–Harte and Paxson setups (fgn.Pair), keyed by (H, M): the
//     amplitudes of the engine's one seeded draw and the radix-2 plan
//     of its transform of M points, 2·padLen(n) for Davies–Harte and
//     padLen(n) for Paxson, padLen(n) the smallest power of two ≥ n.
//     fgn owns the padding rule (fgn.DaviesHarteLen, fgn.PaxsonLen), so
//     every n that pads alike shares one entry.
//   - Eq. 13 Gaussian→Gamma/Pareto mapping tables, keyed by
//     (μ_Γ, σ_Γ, m_T, size): the Gaussian-axis table every stream and
//     batch transform reads (dist.NormalTable), and the probability-axis
//     one (dist.QuantileTable) under a key kind of its own.
//
// All of them are seed-independent, so serving them from cache cannot
// change generated output: the warm paths in internal/fgn and
// internal/dist are bitwise-identical to their cold counterparts, an
// invariant pinned by this package's tests (DESIGN §10).
//
// The pool is stdlib-only. Misses are de-duplicated singleflight-style
// (concurrent requests for one key share a single computation), and
// total resident bytes are bounded by LRU eviction; an item larger
// than the whole budget is computed but not retained. Cache traffic
// reports through the obs scope on the caller's context: counters
// genpool.hit / genpool.miss / genpool.eviction and gauges
// genpool.bytes / genpool.entries.
package genpool

import (
	"container/list"
	"context"
	"fmt"
	"math"
	"sync"

	"vbr/internal/dist"
	"vbr/internal/errs"
	"vbr/internal/fgn"
	"vbr/internal/obs"
)

// DefaultMaxBytes is the default resident-byte budget (256 MiB):
// roomy enough for over a dozen paper-scale Hosking entries (~13.9 MiB
// each at 171,000 points: 24 bytes per point plus the tree levels'
// spectra and FFT plans; a 4,194,304-point entry takes the whole
// budget) next to the spectral-engine setups, 24 bytes per transform
// point of amplitudes and plan twiddles: at the streams' 8,192-point
// chunks 393,200 B for Davies–Harte and 196,592 B for Paxson, at a
// 171,000-point batch trace 12,582,896 B and 6,291,440 B — and
// marginal tables.
const DefaultMaxBytes = 256 << 20

// kind discriminates the cacheable precomputation families.
type kind uint8

const (
	kindHosking kind = iota + 1
	kindDHEigen
	kindQuantileTable
	kindPaxsonSpec
	kindNormalTable
)

// key identifies one cached item. Float parameters are stored as
// math.Float64bits so exact parameter identity — the only identity
// under which reuse is bitwise-safe — is also map identity.
type key struct {
	kind       kind
	p0, p1, p2 uint64 // parameter bits (H, or μ_Γ/σ_Γ/m_T)
	n          int    // transform length or table size; 0 for Hosking (prefix-reused)
}

// entry is one cache slot. ready is closed once val/err are final;
// waiters blocked on a concurrent miss select on it. For Hosking
// entries, mu serializes extension so concurrent longer requests don't
// duplicate the work.
type entry struct {
	key      key
	elem     *list.Element
	ready    chan struct{}
	val      any
	err      error
	bytes    int64
	resident bool // still accounted in the pool (not evicted)
	mu       sync.Mutex
}

// Pool is the cache. The zero value is not usable; construct with New.
// A nil *Pool is a valid "no caching" pool: every lookup computes cold,
// which is what the per-call private pools of GenOptions default to
// being replaced with.
type Pool struct {
	maxBytes int64

	mu      sync.Mutex
	items   map[key]*entry
	lru     *list.List // front = most recently used
	bytes   int64
	hits    int64
	misses  int64
	evicted int64
}

// New builds a pool bounded to maxBytes of resident precomputation
// (DefaultMaxBytes when maxBytes ≤ 0).
func New(maxBytes int64) *Pool {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Pool{
		maxBytes: maxBytes,
		items:    make(map[key]*entry),
		lru:      list.New(),
	}
}

// Stats is a point-in-time view of cache traffic and residency.
type Stats struct {
	Hits, Misses, Evictions int64
	Bytes                   int64
	Entries                 int
	MaxBytes                int64
}

// Stats reads the counters; safe for concurrent use.
func (p *Pool) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Hits: p.hits, Misses: p.misses, Evictions: p.evicted,
		Bytes: p.bytes, Entries: len(p.items), MaxBytes: p.maxBytes,
	}
}

// acquire returns the entry for k, creating it when absent. The second
// result reports whether the caller is the filler: a filler must call
// finish exactly once; a non-filler receives the entry only after
// ready is closed (or its context fires).
func (p *Pool) acquire(ctx context.Context, k key) (*entry, bool, error) {
	p.mu.Lock()
	if e, ok := p.items[k]; ok {
		p.lru.MoveToFront(e.elem)
		p.mu.Unlock()
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, false, fmt.Errorf("genpool: waiting for in-flight computation: %w", errs.Cancelled(ctx))
		}
		if e.err != nil {
			return nil, false, e.err
		}
		return e, false, nil
	}
	e := &entry{key: k, ready: make(chan struct{})}
	e.elem = p.lru.PushFront(e)
	e.resident = true
	p.items[k] = e
	p.mu.Unlock()
	return e, true, nil
}

// finish publishes a filler's result. Errors are not cached: the entry
// is dropped so a later call retries, while current waiters see the
// error. Successful values are accounted and may trigger eviction; a
// value larger than the whole budget is returned to callers but not
// retained.
func (p *Pool) finish(scope *obs.Scope, e *entry, val any, bytes int64, err error) {
	p.mu.Lock()
	e.val, e.err, e.bytes = val, err, bytes
	switch {
	case !e.resident:
		// Evicted while the fill was in flight: the entry is already out
		// of the map and LRU and its bytes were never added, so publish
		// the result to waiters but skip the accounting — adding bytes
		// here would leak budget permanently.
	case err != nil || bytes > p.maxBytes:
		p.drop(e)
	default:
		p.bytes += bytes
		p.evictOverBudget(scope, e)
	}
	p.publishGauges(scope)
	p.mu.Unlock()
	close(e.ready)
}

// drop removes e from the map and LRU without byte accounting (used
// for errored or oversized fills; e's bytes were never added).
// Callers hold p.mu.
func (p *Pool) drop(e *entry) {
	if !e.resident {
		return
	}
	e.resident = false
	p.lru.Remove(e.elem)
	delete(p.items, e.key)
}

// evictOverBudget removes least-recently-used entries until resident
// bytes fit the budget, never evicting keep. Pending entries (fill
// still in flight, bytes not yet accounted) are skipped: evicting one
// frees nothing and would strand its eventual bytes outside the
// budget. Callers hold p.mu.
func (p *Pool) evictOverBudget(scope *obs.Scope, keep *entry) {
	elem := p.lru.Back()
	for p.bytes > p.maxBytes && elem != nil {
		victim := elem.Value.(*entry)
		elem = elem.Prev()
		if victim == keep || victim.bytes == 0 {
			continue
		}
		victim.resident = false
		p.lru.Remove(victim.elem)
		delete(p.items, victim.key)
		p.bytes -= victim.bytes
		p.evicted++
		scope.Count("genpool.eviction", 1)
	}
}

// publishGauges pushes residency gauges to the caller's scope. Callers
// hold p.mu.
func (p *Pool) publishGauges(scope *obs.Scope) {
	scope.SetGauge("genpool.bytes", float64(p.bytes))
	scope.SetGauge("genpool.entries", float64(len(p.items)))
}

// countHit / countMiss update both the pool counters and the caller's
// obs scope.
func (p *Pool) countHit(scope *obs.Scope) {
	p.mu.Lock()
	p.hits++
	p.mu.Unlock()
	scope.Count("genpool.hit", 1)
}

func (p *Pool) countMiss(scope *obs.Scope) {
	p.mu.Lock()
	p.misses++
	p.mu.Unlock()
	scope.Count("genpool.miss", 1)
}

// HoskingCoeffs returns Hosking coefficients for Hurst parameter h
// covering at least n points, extending cached ones when they exist (a
// request longer than the cached horizon is a miss that reuses the
// prefix; a shorter one is a pure hit). The returned coefficients are
// shared and must be treated as read-only; fgn's generators only ever
// read published prefixes. A nil pool computes them cold.
func (p *Pool) HoskingCoeffs(ctx context.Context, h float64, n int) (*fgn.HoskingCoeffs, error) {
	if p == nil {
		c, err := fgn.NewHoskingCoeffs(h)
		if err != nil {
			return nil, err
		}
		if err := c.EnsureCtx(ctx, n); err != nil {
			return nil, err
		}
		return c, nil
	}
	scope := obs.From(ctx)
	k := key{kind: kindHosking, p0: math.Float64bits(h)}
	e, fill, err := p.acquire(ctx, k)
	if err != nil {
		return nil, err
	}
	if fill {
		c, err := fgn.NewHoskingCoeffs(h)
		if err != nil {
			p.finish(scope, e, nil, 0, err)
			return nil, err
		}
		p.finish(scope, e, c, c.Bytes(), nil)
	}
	c := e.val.(*fgn.HoskingCoeffs)

	// Extension is serialized per entry: concurrent requests for longer
	// horizons queue here and find the work already done — the
	// singleflight property, but for prefix growth.
	e.mu.Lock()
	covered := c.Len() >= n
	ensureErr := c.EnsureCtx(ctx, n)
	nb := c.Bytes()
	e.mu.Unlock()

	// Re-account even when the extension was cancelled: the points and
	// levels that completed stay in the coefficients, and the cached
	// entry must stay correctly charged for whatever it keeps resident.
	p.resize(scope, e, nb)
	if ensureErr != nil {
		return nil, ensureErr
	}

	if covered && !fill {
		p.countHit(scope)
	} else {
		p.countMiss(scope)
	}
	return c, nil
}

// resize re-accounts an entry whose resident size changed (Hosking
// coefficients grow in place) and evicts colder entries if the growth
// pushed the pool over budget.
func (p *Pool) resize(scope *obs.Scope, e *entry, bytes int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !e.resident {
		return // evicted while being extended; readers keep their views
	}
	p.bytes += bytes - e.bytes
	e.bytes = bytes
	if bytes > p.maxBytes {
		p.bytes -= bytes
		p.drop(e)
	} else {
		p.evictOverBudget(scope, e)
	}
	p.publishGauges(scope)
}

// DaviesHarteEigen returns the Davies–Harte setup for (h, n) — the
// pair draw's amplitudes over the circulant eigenvalues and the plan of
// its radix-2 synthesis FFT (fgn.DaviesHarteEigenCtx) — computing it at
// most once per (h, fgn.DaviesHarteLen(n)), so every n that pads alike
// shares it. The entry is charged for both. The value is shared and
// read-only.
func (p *Pool) DaviesHarteEigen(ctx context.Context, h float64, n int) (*fgn.Pair, error) {
	return lookup(ctx, p, key{kind: kindDHEigen, p0: math.Float64bits(h), n: fgn.DaviesHarteLen(n)}, func() (*fgn.Pair, error) {
		return fgn.DaviesHarteEigenCtx(ctx, n, h)
	})
}

// PaxsonSpectrum returns the Paxson setup for (h, n) — the pair draw's
// amplitudes over the sampled spectrum and the plan of its inverse FFT
// (fgn.PaxsonSpectrumCtx) — computing it at most once per
// (h, fgn.PaxsonLen(n)), so every n that pads alike shares it. The
// entry is charged for both. The value is shared and read-only.
func (p *Pool) PaxsonSpectrum(ctx context.Context, h float64, n int) (*fgn.Pair, error) {
	return lookup(ctx, p, key{kind: kindPaxsonSpec, p0: math.Float64bits(h), n: fgn.PaxsonLen(n)}, func() (*fgn.Pair, error) {
		return fgn.PaxsonSpectrumCtx(ctx, n, h)
	})
}

// NormalTable returns the Eq. 13 mapping table on the Gaussian axis
// (dist.GammaPareto.NormalTable) for the hybrid Gamma/Pareto
// distribution with the given parameters and size, computing it at
// most once per key. Streams and batch generation transform through
// it. The table is shared and read-only.
func (p *Pool) NormalTable(ctx context.Context, muGamma, sigmaGamma, tailSlope float64, size int) (*dist.NormalTable, error) {
	return marginalTable(ctx, p, kindNormalTable, muGamma, sigmaGamma, tailSlope, size, (*dist.GammaPareto).NormalTable)
}

// QuantileTable returns the probability-axis mapping table
// (dist.GammaPareto.QuantileTable) for the same parameters, computing it
// at most once per key, under a key kind of its own. No program caller
// remains, since Eq. 13 reads NormalTable; it stays for the benchmark's
// transform probe, which compiles against it. The table is shared and
// read-only.
func (p *Pool) QuantileTable(ctx context.Context, muGamma, sigmaGamma, tailSlope float64, size int) (*dist.QuantileTable, error) {
	return marginalTable(ctx, p, kindQuantileTable, muGamma, sigmaGamma, tailSlope, size, (*dist.GammaPareto).QuantileTable)
}

// marginalTable is the lookup of a table of size points built from the
// hybrid marginal with the given parameters.
func marginalTable[T interface{ Bytes() int64 }](ctx context.Context, p *Pool, kd kind, muGamma, sigmaGamma, tailSlope float64, size int, build func(*dist.GammaPareto, int) (T, error)) (T, error) {
	k := key{
		kind: kd,
		p0:   math.Float64bits(muGamma),
		p1:   math.Float64bits(sigmaGamma),
		p2:   math.Float64bits(tailSlope),
		n:    size,
	}
	return lookup(ctx, p, k, func() (T, error) {
		gp, err := dist.NewGammaParetoFromParams(dist.GammaParetoParams{MuGamma: muGamma, SigmaGamma: sigmaGamma, TailSlope: tailSlope})
		if err != nil {
			var zero T
			return zero, err
		}
		return build(gp, size)
	})
}

// lookup is the one path of every fixed-size entry: a nil pool builds
// cold; otherwise the first caller for k counts a miss, builds and
// publishes the value charged at its Bytes, and every other caller
// waits for it and counts a hit.
func lookup[T interface{ Bytes() int64 }](ctx context.Context, p *Pool, k key, build func() (T, error)) (T, error) {
	if p == nil {
		return build()
	}
	scope := obs.From(ctx)
	e, fill, err := p.acquire(ctx, k)
	if err != nil {
		var zero T
		return zero, err
	}
	if !fill {
		p.countHit(scope)
		return e.val.(T), nil
	}
	p.countMiss(scope)
	v, err := build()
	if err != nil {
		p.finish(scope, e, nil, 0, err)
		return v, err
	}
	p.finish(scope, e, v, v.Bytes(), nil)
	return v, nil
}
