// Package genpool is the cross-request generation cache: a
// concurrency-safe, byte-bounded pool for the four parameter-keyed
// precomputations of the §4 generator, shared across requests, streams
// and batch workers.
//
//   - Hosking coefficient schedules (fgn.HoskingCoeffs), keyed by H
//     alone with prefix reuse: the Levinson–Durbin recursion at step k
//     depends only on ρ_0..ρ_k, so one cached 171k-point schedule
//     serves every shorter request with the same H, and longer
//     requests extend the cached schedule incrementally instead of
//     recomputing it.
//   - Davies–Harte circulant eigenvalues with the plan of their 2n-point
//     synthesis FFT (fgn.DaviesHarteEigen), keyed by (H, n).
//   - Paxson expected-power vectors with the plan of their inverse FFT
//     (fgn.PaxsonSpectrum), keyed by (H, even synthesis length).
//   - Eq. 13 Gaussian→Gamma/Pareto quantile tables, keyed by
//     (μ_Γ, σ_Γ, m_T, size).
//
// All four are seed-independent, so serving them from cache cannot
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
// roomy enough for dozens of paper-scale Hosking schedules (~5.5 MiB
// each at 171,000 points) next to the chunk-engine setups (~0.5 MiB for
// Davies–Harte at the default 8,192-point chunk synthesis, ~0.22 MiB
// for Paxson, each with its plan and pair-draw amplitudes) and marginal
// tables.
const DefaultMaxBytes = 256 << 20

// kind discriminates the four cacheable precomputation families.
type kind uint8

const (
	kindHosking kind = iota + 1
	kindDHEigen
	kindTable
	kindPaxsonSpec
)

// key identifies one cached item. Float parameters are stored as
// math.Float64bits so exact parameter identity — the only identity
// under which reuse is bitwise-safe — is also map identity.
type key struct {
	kind       kind
	p0, p1, p2 uint64 // parameter bits (H, or μ_Γ/σ_Γ/m_T)
	n          int    // length/size; 0 for Hosking (prefix-reused)
}

// entry is one cache slot. ready is closed once val/err are final;
// waiters blocked on a concurrent miss select on it. For Hosking
// entries, mu serializes schedule extension so concurrent longer
// requests don't duplicate the O(n²) work.
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

// HoskingCoeffs returns a coefficient schedule for Hurst parameter h
// covering at least n points, extending a cached schedule when one
// exists (a request longer than the cached horizon is a miss that
// reuses the prefix; a shorter one is a pure hit). The returned
// schedule is shared and must be treated as read-only; fgn's warm
// generators only ever read published prefixes.
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

	// Re-account even when the extension was cancelled: the steps that
	// completed stay in the schedule and its capacity may have grown, and
	// the cached entry must stay correctly charged for whatever it keeps
	// resident.
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
// schedules grow in place) and evicts colder entries if the growth
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

// DaviesHarteEigen returns the Davies–Harte setup for (h, n) — the 2n
// circulant eigenvalues, the pair draw's 2n amplitudes (for a
// power-of-two n, the stream chunk lengths) and the plan of the
// 2n-point synthesis FFT — computing it at most once per key. The
// entry is charged for all of them. The value is shared and read-only.
func (p *Pool) DaviesHarteEigen(ctx context.Context, h float64, n int) (*fgn.DaviesHarteEigen, error) {
	if p == nil {
		return fgn.DaviesHarteEigenCtx(ctx, n, h)
	}
	scope := obs.From(ctx)
	k := key{kind: kindDHEigen, p0: math.Float64bits(h), n: n}
	e, fill, err := p.acquire(ctx, k)
	if err != nil {
		return nil, err
	}
	if fill {
		p.countMiss(scope)
		eig, ferr := fgn.DaviesHarteEigenCtx(ctx, n, h)
		if ferr != nil {
			p.finish(scope, e, nil, 0, ferr)
			return nil, ferr
		}
		p.finish(scope, e, eig, eig.Bytes(), nil)
		return eig, nil
	}
	p.countHit(scope)
	return e.val.(*fgn.DaviesHarteEigen), nil
}

// PaxsonSpectrum returns the Paxson setup for (h, n) — the
// paxsonLen(n)/2 expected powers, the pair draw's paxsonLen(n)
// amplitudes (for a power-of-two length, as streams draw at) and the
// plan of the synthesis inverse FFT — computing it at most once per
// key. Keys use the even FFT length backing the synthesis, so an odd
// request and its even neighbour share one cached value. The entry is
// charged for its vectors and the plan. The value is shared and
// read-only.
func (p *Pool) PaxsonSpectrum(ctx context.Context, h float64, n int) (*fgn.PaxsonSpectrum, error) {
	if p == nil {
		return fgn.PaxsonSpectrumCtx(ctx, n, h)
	}
	scope := obs.From(ctx)
	// Normalize odd lengths to the even FFT length they synthesize
	// through; n=1 degenerates to a single draw with an empty spectrum
	// and is not worth a slot.
	if n > 1 && n%2 != 0 {
		n++
	}
	k := key{kind: kindPaxsonSpec, p0: math.Float64bits(h), n: n}
	e, fill, err := p.acquire(ctx, k)
	if err != nil {
		return nil, err
	}
	if fill {
		p.countMiss(scope)
		spec, ferr := fgn.PaxsonSpectrumCtx(ctx, n, h)
		if ferr != nil {
			p.finish(scope, e, nil, 0, ferr)
			return nil, ferr
		}
		p.finish(scope, e, spec, spec.Bytes(), nil)
		return spec, nil
	}
	p.countHit(scope)
	return e.val.(*fgn.PaxsonSpectrum), nil
}

// QuantileTable returns the Eq. 13 marginal mapping table for the
// hybrid Gamma/Pareto distribution with the given parameters and
// resolution, computing it at most once per key. The table is shared
// and read-only.
func (p *Pool) QuantileTable(ctx context.Context, muGamma, sigmaGamma, tailSlope float64, size int) (*dist.QuantileTable, error) {
	build := func() (*dist.QuantileTable, error) {
		gp, err := dist.NewGammaParetoFromParams(dist.GammaParetoParams{MuGamma: muGamma, SigmaGamma: sigmaGamma, TailSlope: tailSlope})
		if err != nil {
			return nil, err
		}
		return gp.QuantileTable(size)
	}
	if p == nil {
		return build()
	}
	scope := obs.From(ctx)
	k := key{
		kind: kindTable,
		p0:   math.Float64bits(muGamma),
		p1:   math.Float64bits(sigmaGamma),
		p2:   math.Float64bits(tailSlope),
		n:    size,
	}
	e, fill, err := p.acquire(ctx, k)
	if err != nil {
		return nil, err
	}
	if fill {
		p.countMiss(scope)
		tab, ferr := build()
		p.finish(scope, e, tab, int64(size)*8, ferr)
		if ferr != nil {
			return nil, ferr
		}
		return tab, nil
	}
	p.countHit(scope)
	return e.val.(*dist.QuantileTable), nil
}
