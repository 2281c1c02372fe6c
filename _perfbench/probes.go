package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"time"

	"vbr/internal/backend"
	"vbr/internal/core"
	"vbr/internal/fgn"
	"vbr/internal/genpool"
	"vbr/internal/server"
	"vbr/internal/specfn"
	"vbr/internal/stream"
)

// The stream defaults the serving path runs with: 4096-frame blocks
// stitched from chunks overlapping by a quarter block.
const (
	blockFrames   = 4096
	overlapFrames = blockFrames / 4
)

// probeReps is how many times each probe runs. The probes run
// interleaved, rep by rep, and a layer defined as the difference of two
// probes takes the median of its per-rep differences, so drift in the
// machine's speed cancels instead of landing on one layer.
const probeReps = 5

// probes times the program's layers one at a time from outside: each
// probe calls a module's public functions on the paper-default model,
// single-threaded, with a span around every call. A traced run of any
// workload runs every probe, so every per-layer metric appears in every
// traced result; a workload lends its own fleet where it has one.
type probes struct {
	env    *env
	tr     *tracer
	pool   *genpool.Pool
	client *http.Client
	rng    *rand.Rand
}

func newProbes(e *env, tr *tracer) *probes {
	return &probes{env: e, tr: tr, pool: genpool.New(0), client: newClient(), rng: rand.New(rand.NewPCG(e.cfg.seed, 0x9b0be))}
}

// step is one probe: it times its own call (leaving untimed set-up
// such as opening a stream outside the interval).
type step struct {
	name string
	run  func() (time.Duration, error)
}

// repeat runs the steps probeReps times in turn, each inside a span, and
// returns every step's durations in nanoseconds, rep by rep.
func (p *probes) repeat(steps ...step) (map[string][]float64, error) {
	out := map[string][]float64{}
	for r := 0; r < probeReps; r++ {
		for _, s := range steps {
			id := p.tr.begin(s.name, 0)
			d, err := s.run()
			p.tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", s.name, err)
			}
			out[s.name] = append(out[s.name], float64(d))
		}
	}
	return out, nil
}

// timed adapts an untimed call to a step.
func timed(f func() error) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		t0 := time.Now()
		err := f()
		return time.Since(t0), err
	}
}

// diff is the median over reps of a[r] − Σ subtract[r].
func diff(a []float64, subtract ...[]float64) float64 {
	d := make([]float64, len(a))
	for r := range a {
		d[r] = a[r]
		for _, s := range subtract {
			d[r] -= s[r]
		}
	}
	return median(d)
}

// servingChain is the unloaded per-frame time of one stream on the
// probed path: straight to vbrd, and through the fleet front door.
type servingChain struct{ directNs, fleetNs float64 }

// common runs every probe but the queue's. pr picks the serving path
// whose stream, server and fleet layers are probed; fl is the
// workload's own fleet, or nil to start one for the probe.
func (p *probes) common(ctx context.Context, pr profile, fl *fleetHandle, m metrics) (servingChain, error) {
	var sc servingChain
	if err := p.hosking(ctx, m); err != nil {
		return sc, err
	}
	v, err := startVBRD(ctx, p.pool)
	if err != nil {
		return sc, err
	}
	defer v.stop()
	seed := p.env.fixedSeed()
	mod := server.PaperDefault
	tab, err := p.pool.QuantileTable(ctx, mod.MuGamma, mod.SigmaGamma, mod.TailSlope, 10000)
	if err != nil {
		return sc, err
	}
	x := make([]float64, traceFrames)
	for i := range x {
		x[i] = p.rng.NormFloat64()
	}
	y := make([]float64, traceFrames)
	cfg := stream.Config{Model: mod, N: traceFrames, Backend: pr.engine, Seed: seed, Pool: p.pool}
	dh, err := p.engine(ctx, backend.DaviesHarte)
	if err != nil {
		return sc, err
	}
	px, err := p.engine(ctx, backend.Paxson)
	if err != nil {
		return sc, err
	}
	var wire int64
	serve := func() error {
		w := &discardWriter{header: http.Header{}}
		v.handler.ServeHTTP(w, httptest.NewRequest(http.MethodGet, pr.query(seed), nil).WithContext(ctx))
		if w.status != http.StatusOK {
			return fmt.Errorf("handler answered HTTP %d", w.status)
		}
		wire = w.n
		return nil
	}
	s, err := p.repeat(
		step{"fgn.davies-harte", timed(dh)},
		step{"fgn.paxson", timed(px)},
		step{"dist.transform", timed(func() error {
			for i, v := range x {
				y[i] = tab.Value(specfn.NormCDF(v))
			}
			return nil
		})},
		step{"stream.monitor", timed(func() error {
			mo := stream.NewMonitor(traceFrames)
			for lo := 0; lo < len(y); lo += blockFrames {
				for _, v := range y[lo:min(lo+blockFrames, len(y))] {
					mo.Add(v)
				}
				_ = mo.Probe()
			}
			return nil
		})},
		step{"stream.next", func() (time.Duration, error) {
			st, err := stream.OpenCtx(ctx, cfg)
			if err != nil {
				return 0, err
			}
			return timed(func() error { return drain(ctx, st) })()
		}},
		step{"server.handler", timed(serve)},
		step{"server.direct", func() (time.Duration, error) {
			o := fetch(ctx, p.client, v.url, pr, seed, nil)
			return o.end.Sub(o.start), o.err
		}},
	)
	if err != nil {
		return sc, err
	}
	engine := s["fgn."+pr.engine.String()]
	per := func(ns float64) float64 { return ns / traceFrames }
	m.set("fgn.davies-harte.ns_per_frame", per(median(s["fgn.davies-harte"])), "ns")
	m.set("fgn.paxson.ns_per_frame", per(median(s["fgn.paxson"])), "ns")
	m.set("dist.transform.ns_per_frame", per(median(s["dist.transform"])), "ns")
	m.set("stream.monitor.ns_per_frame", per(median(s["stream.monitor"])), "ns")
	m.set("stream.next.ns_per_frame", per(median(s["stream.next"])), "ns")
	m.set("stream.stitch.ns_per_frame", per(diff(s["stream.next"], engine, s["dist.transform"], s["stream.monitor"])), "ns")
	m.set("server.handler.ns_per_frame", per(median(s["server.handler"])), "ns")
	m.set("server.encode.ns_per_frame", per(diff(s["server.handler"], s["stream.next"])), "ns")
	m.set("server.socket.ns_per_frame", per(diff(s["server.direct"], s["server.handler"])), "ns")
	m.set("server.wire_bytes_per_frame", float64(wire)/traceFrames, "B")
	sc.directNs = per(median(s["server.direct"]))

	opened, err := p.repeat(step{"stream.open", timed(func() error {
		_, err := stream.OpenCtx(ctx, cfg)
		return err
	})})
	if err != nil {
		return sc, err
	}
	m.set("stream.open_us", median(opened["stream.open"])/1e3, "us")
	streamAlloc, err := allocBytes(func() error {
		st, err := stream.OpenCtx(ctx, cfg)
		if err != nil {
			return err
		}
		return drain(ctx, st)
	})
	if err != nil {
		return sc, err
	}
	serverAlloc, err := allocBytes(serve)
	if err != nil {
		return sc, err
	}
	m.set("stream.alloc_bytes_per_frame", float64(streamAlloc)/traceFrames, "B")
	m.set("server.alloc_bytes_per_frame", float64(serverAlloc)/traceFrames, "B")

	if sc.fleetNs, err = p.fleetHop(ctx, pr, fl, m); err != nil {
		return sc, err
	}
	return sc, nil
}

// drain reads a stream to its end.
func drain(ctx context.Context, st *stream.Stream) error {
	for {
		if _, err := st.Next(ctx); err != nil {
			if errors.Is(err, io.EOF) && st.Pos() == st.Len() {
				return nil
			}
			return fmt.Errorf("stream ended at frame %d of %d: %w", st.Pos(), st.Len(), err)
		}
	}
}

// engine returns the chunk draws one full-length stream makes with b.
func (p *probes) engine(ctx context.Context, b backend.Backend) (func() error, error) {
	clen, h := blockFrames+overlapFrames, server.PaperDefault.Hurst
	var draw func(*rand.Rand) ([]float64, error)
	switch b {
	case backend.DaviesHarte:
		lam, err := p.pool.DaviesHarteEigen(ctx, h, clen)
		if err != nil {
			return nil, err
		}
		draw = func(r *rand.Rand) ([]float64, error) { return fgn.DaviesHarteFromEigenCtx(ctx, clen, lam, r) }
	case backend.Paxson:
		spec, err := p.pool.PaxsonSpectrum(ctx, h, clen)
		if err != nil {
			return nil, err
		}
		draw = func(r *rand.Rand) ([]float64, error) { return fgn.PaxsonFromSpectrumCtx(ctx, clen, spec, r) }
	default:
		return nil, fmt.Errorf("no chunked engine %s", b)
	}
	chunks := (traceFrames + blockFrames - 1) / blockFrames
	return func() error {
		for i := 0; i < chunks; i++ {
			if _, err := draw(rand.New(rand.NewPCG(p.env.cfg.seed, uint64(i)))); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// hosking splits exact generation at n = exactFrames: the coefficient
// schedule for a fresh H, the innovations on a filled schedule, and
// Model.GenerateCtx cold (fresh H) and warm (cached H) on a pool.
func (p *probes) hosking(ctx context.Context, m metrics) error {
	h := server.PaperDefault.Hurst
	filled, err := p.pool.HoskingCoeffs(ctx, h, exactFrames)
	if err != nil {
		return err
	}
	fresh := func() float64 { return 0.6 + 0.3*p.rng.Float64() }
	gen := func(h float64, seed uint64, pool *genpool.Pool) ([]float64, error) {
		mod := server.PaperDefault
		mod.Hurst = h
		opts := core.DefaultGenOptions()
		opts.Seed, opts.Pool = seed, pool
		return mod.GenerateCtx(ctx, exactFrames, opts)
	}
	generate := func(h float64) error {
		_, err := gen(h, p.rng.Uint64(), p.pool)
		return err
	}
	// A pooled call must reproduce the pool-less cold call bit for bit.
	seed := p.env.fixedSeed()
	cold, err := gen(h, seed, nil)
	if err != nil {
		return err
	}
	warm, err := gen(h, seed, p.pool)
	if err != nil {
		return err
	}
	if !slices.Equal(cold, warm) {
		return fmt.Errorf("seed %d: pooled Hosking output differs from the pool-less call", seed)
	}
	s, err := p.repeat(
		step{"fgn.hosking.coeffs", timed(func() error {
			c, err := fgn.NewHoskingCoeffs(fresh())
			if err != nil {
				return err
			}
			return c.EnsureCtx(ctx, exactFrames)
		})},
		step{"fgn.hosking.innov", timed(func() error {
			_, err := fgn.HoskingFromCoeffs(ctx, exactFrames, filled, rand.New(rand.NewPCG(p.rng.Uint64(), 0)))
			return err
		})},
		step{"core.generate.warm", timed(func() error { return generate(h) })},
		step{"core.generate.cold", timed(func() error { return generate(fresh()) })},
	)
	if err != nil {
		return err
	}
	m.set("fgn.hosking.coeffs_ms", median(s["fgn.hosking.coeffs"])/1e6, "ms")
	m.set("fgn.hosking.innov_ms", median(s["fgn.hosking.innov"])/1e6, "ms")
	m.set("core.generate.cold_ms", median(s["core.generate.cold"])/1e6, "ms")
	m.set("core.generate.warm_ms", median(s["core.generate.warm"])/1e6, "ms")
	m.set("core.marginal_ms", diff(s["core.generate.warm"], s["fgn.hosking.innov"])/1e6, "ms")
	return nil
}

// fleetHop times the same request straight to the fleet's worker and
// through the front door, in pairs, and attributes the difference to
// the proxy. It returns the front-door path per frame.
func (p *probes) fleetHop(ctx context.Context, pr profile, fl *fleetHandle, m metrics) (float64, error) {
	if fl == nil {
		var err error
		if fl, err = startFleet(ctx, p.env); err != nil {
			return 0, err
		}
		defer fl.stop()
	}
	seed := p.env.fixedSeed()
	if o := fetch(ctx, p.client, fl.front.url, pr, seed, nil); o.err != nil { // warms the worker's cache
		return 0, o.err
	}
	var direct, front opResult
	s, err := p.repeat(
		step{"worker.direct", func() (time.Duration, error) {
			direct = fetch(ctx, p.client, fl.workerURL(), pr, seed, nil)
			return direct.end.Sub(direct.start), direct.err
		}},
		step{"worker.direct.ttfb", func() (time.Duration, error) { return direct.first.Sub(direct.start), nil }},
		step{"fleet.proxy", func() (time.Duration, error) {
			front = fetch(ctx, p.client, fl.front.url, pr, seed, nil)
			return front.end.Sub(front.start), front.err
		}},
		step{"fleet.proxy.ttfb", func() (time.Duration, error) { return front.first.Sub(front.start), nil }},
	)
	if err != nil {
		return 0, err
	}
	m.set("fleet.proxy.ns_per_frame", diff(s["fleet.proxy"], s["worker.direct"])/traceFrames, "ns")
	m.set("fleet.proxy.ttfb_ms", diff(s["fleet.proxy.ttfb"], s["worker.direct.ttfb"])/1e6, "ms")
	return median(s["fleet.proxy"]) / traceFrames, nil
}

// queue fills the queue and runner metrics from probeReps traced sweeps
// on a suite built from the workload seed.
func (p *probes) queue(ctx context.Context, m metrics) error {
	suite, ref, err := buildSweep(ctx, p.env.cfg.seed)
	if err != nil {
		return err
	}
	var stats []sweepStats
	for r := 0; r < probeReps; r++ {
		st, err := tracedSweep(ctx, suite, ref, p.tr)
		if err != nil {
			return err
		}
		stats = append(stats, st)
	}
	var calls, probes, points int64
	var simulated, busy, capacity float64
	var curves, slowest []float64
	for _, st := range stats {
		calls += st.alCalls
		probes += st.probes
		points += st.points
		simulated += float64(st.alTime)
		capacity += float64(st.end.Sub(st.start)) * float64(st.workers)
		var worst float64
		for _, c := range st.curves {
			busy += float64(c)
			curves = append(curves, ms(c))
			worst = max(worst, ms(c))
		}
		slowest = append(slowest, worst)
	}
	if calls == 0 || points == 0 {
		return errors.New("the traced sweeps simulated nothing")
	}
	n := float64(len(stats))
	m.set("queue.averageloss.calls", float64(calls)/n, "count")
	m.set("queue.averageloss.us", simulated/1e3/float64(calls), "us")
	m.set("queue.bisection.probes_per_point", float64(probes)/float64(points), "count")
	m.set("queue.curve.points", float64(points)/n, "count")
	m.set("queue.qccurve.ms", median(curves), "ms")
	m.set("queue.qccurve.ms.max", median(slowest), "ms")
	m.set("runner.busy_ratio", busy/capacity, "ratio")
	return nil
}

// poolMetrics reports a generation cache's traffic and residency.
func poolMetrics(m metrics, hits, misses, evictions, bytes int64) {
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	m.set("genpool.hit_ratio", ratio, "ratio")
	m.set("genpool.resident_mb", float64(bytes)/1e6, "MB")
	m.set("genpool.hits", float64(hits), "count")
	m.set("genpool.misses", float64(misses), "count")
	m.set("genpool.evictions", float64(evictions), "count")
}

// allocBytes reports the heap bytes f allocated.
func allocBytes(f func() error) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// discardWriter is an http.ResponseWriter that counts and drops the
// body, so the handler's own cost is timed without a socket.
type discardWriter struct {
	header http.Header
	status int
	n      int64
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *discardWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.n += int64(len(b))
	return len(b), nil
}

func (w *discardWriter) Flush() {}
