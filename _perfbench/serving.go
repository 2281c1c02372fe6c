package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"vbr"
	"vbr/internal/backend"
	"vbr/internal/fleet"
	"vbr/internal/genpool"
	"vbr/internal/obs"
	"vbr/internal/server"
)

// profile is one serving path: a wire format and a Gaussian engine.
type profile struct {
	format string // "bin" or "ndjson"
	engine backend.Backend
}

var (
	binDH        = profile{format: "bin", engine: backend.DaviesHarte}
	ndjsonPaxson = profile{format: "ndjson", engine: backend.Paxson}
)

func (pr profile) String() string { return pr.format + "/" + pr.engine.String() }

func (pr profile) query(seed uint64) string {
	return fmt.Sprintf("/v1/trace?n=%d&format=%s&backend=%s&seed=%d", traceFrames, pr.format, pr.engine, seed)
}

// serving is the serve-bin and fleet-ndjson workload: two closed-loop
// clients streaming full-length traces over loopback, either from an
// in-process vbrd or through the fleet front door to one vbrd worker
// process.
type serving struct {
	env      *env
	prof     profile
	viaFleet bool

	pool   *genpool.Pool // the in-process vbrd's cache (serve-bin)
	vbrd   *vbrdHandle   // in-process vbrd (serve-bin)
	fl     *fleetHandle  // one-worker fleet (fleet-ndjson)
	url    string        // where the clients send
	client *http.Client
	fixed  uint64 // wire hash of the fixed-seed request, taken in set-up
}

func newServeBin(e *env) workload    { return &serving{env: e, prof: binDH} }
func newFleetNDJSON(e *env) workload { return &serving{env: e, prof: ndjsonPaxson, viaFleet: true} }

func (s *serving) callers() int { return 2 }

func (s *serving) setup(ctx context.Context) error {
	s.client = newClient()
	if s.viaFleet {
		fl, err := startFleet(ctx, s.env)
		if err != nil {
			return err
		}
		s.fl, s.url = fl, fl.front.url
	} else {
		s.pool = genpool.New(0)
		v, err := startVBRD(ctx, s.pool)
		if err != nil {
			return err
		}
		s.vbrd, s.url = v, v.url
	}
	// The first request warms the cache and pins the reference hash.
	h := fnv.New64a()
	if o := fetch(ctx, s.client, s.url, s.prof, s.env.fixedSeed(), h); o.err != nil {
		return o.err
	}
	s.fixed = h.Sum64()
	return nil
}

func (s *serving) op(ctx context.Context, c, i int, tr *tracer) opResult {
	o := fetch(ctx, s.client, s.url, s.prof, s.env.reqSeed(c, i), nil)
	if o.err == nil {
		id := tr.add(o.kind, 0, o.start, o.end)
		tr.add("client.ttfb", id, o.start, o.first)
		tr.add("client.body", id, o.first, o.end)
	}
	return o
}

// verify checks that the fixed-seed request hashes identically on every
// surface: the workload's own, the library's CollectStream, and the
// other serving path (through a fleet for serve-bin, straight to the
// worker for fleet-ndjson).
func (s *serving) verify(ctx context.Context) error {
	seed := s.env.fixedSeed()
	lib, err := libraryHash(ctx, s.prof, seed)
	if err != nil {
		return err
	}
	if lib != s.fixed {
		return fmt.Errorf("%s seed %d: CollectStream hashes %x, the served stream %x", s.prof, seed, lib, s.fixed)
	}
	other := ""
	if s.viaFleet {
		other = s.fl.workerURL()
	} else {
		fl, err := startFleet(ctx, s.env)
		if err != nil {
			return err
		}
		defer fl.stop()
		other = fl.front.url
	}
	h := fnv.New64a()
	if o := fetch(ctx, s.client, other, s.prof, seed, h); o.err != nil {
		return o.err
	}
	if got := h.Sum64(); got != s.fixed {
		return fmt.Errorf("%s seed %d: %s hashes %x, the workload's surface %x", s.prof, seed, other, got, s.fixed)
	}
	return nil
}

func (s *serving) layers(ctx context.Context, p *probes, traced []opResult, m metrics) error {
	chain, err := p.common(ctx, s.prof, s.fl, m)
	if err != nil {
		return err
	}
	// The isolated layers add up to one unloaded stream of the same path.
	perFrame := chain.directNs
	if s.viaFleet {
		perFrame = chain.fleetNs
	}
	m.set("trace.coverage", coverage(traced, func(o opResult) float64 { return perFrame * float64(o.frames) }), "ratio")
	if s.viaFleet {
		// The worker keeps its cache and trace counters in its own
		// process and writes them out when it exits.
		snap, err := s.fl.stop()
		s.fl = nil
		if err != nil {
			return err
		}
		poolMetrics(m, snap.Counters["genpool.hit"], snap.Counters["genpool.miss"], snap.Counters["genpool.eviction"], int64(snap.Gauges["genpool.bytes"]))
		m.set("server.trace.aborted", float64(snap.Counters["server.trace.aborted"]), "count")
	} else {
		st := s.pool.Stats()
		poolMetrics(m, st.Hits, st.Misses, st.Evictions, st.Bytes)
	}
	return p.queue(ctx, m)
}

func (s *serving) workerPID() int {
	if s.fl == nil {
		return 0
	}
	return s.fl.workerPID()
}

func (s *serving) close() {
	if s.fl != nil {
		_, _ = s.fl.stop()
	}
	if s.vbrd != nil {
		s.vbrd.stop()
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
}

// fetch streams one /v1/trace response from base, checks that every
// frame X-Vbr-Frames promises arrived, and feeds the body to h when h is
// non-nil.
func fetch(ctx context.Context, client *http.Client, base string, pr profile, seed uint64, h hash.Hash) opResult {
	o := opResult{kind: "client.stream", start: time.Now()}
	fail := func(err error) opResult {
		o.err = fmt.Errorf("%s%s: %w", base, pr.query(seed), err)
		return o
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+pr.query(seed), nil)
	if err != nil {
		return fail(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		return fail(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fail(fmt.Errorf("HTTP %d", resp.StatusCode))
	}
	want, err := strconv.ParseInt(resp.Header.Get("X-Vbr-Frames"), 10, 64)
	if err != nil || want != traceFrames {
		return fail(fmt.Errorf("X-Vbr-Frames %q, want %d", resp.Header.Get("X-Vbr-Frames"), traceFrames))
	}
	if got := resp.Header.Get(server.BackendHeader); got != pr.engine.String() {
		return fail(fmt.Errorf("%s %q, want %q", server.BackendHeader, got, pr.engine))
	}
	buf := make([]byte, 64<<10)
	var lines int64
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if o.bytes == 0 {
				o.first = time.Now()
			}
			o.bytes += int64(n)
			if pr.format == "ndjson" {
				lines += int64(bytes.Count(buf[:n], []byte{'\n'}))
			}
			if h != nil {
				h.Write(buf[:n])
			}
		}
		if errors.Is(rerr, io.EOF) {
			break
		}
		if rerr != nil {
			return fail(fmt.Errorf("after %d bytes: %w", o.bytes, rerr))
		}
	}
	o.end = time.Now()
	got := lines
	if pr.format == "bin" {
		got = o.bytes / 8
		if o.bytes%8 != 0 {
			got = -1
		}
	}
	if got != want {
		return fail(fmt.Errorf("%d frames (%d bytes) on the wire, X-Vbr-Frames %d", got, o.bytes, want))
	}
	o.frames = want
	return o
}

// libraryHash generates the trace through the library (OpenStreamCtx
// and CollectStream, no cache) and hashes its wire encoding.
func libraryHash(ctx context.Context, pr profile, seed uint64) (uint64, error) {
	st, err := vbr.OpenStreamCtx(ctx, vbr.StreamConfig{Model: server.PaperDefault, N: traceFrames, Backend: pr.engine, Seed: seed})
	if err != nil {
		return 0, fmt.Errorf("library stream %s: %w", pr, err)
	}
	frames, err := vbr.CollectStream(ctx, st)
	if err != nil {
		return 0, fmt.Errorf("library stream %s: %w", pr, err)
	}
	h := fnv.New64a()
	var line []byte
	for _, f := range frames {
		if pr.format == "bin" {
			line = binary.LittleEndian.AppendUint64(line[:0], math.Float64bits(f))
		} else {
			line = append(strconv.AppendFloat(line[:0], f, 'g', -1, 64), '\n')
		}
		h.Write(line)
	}
	return h.Sum64(), nil
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}
}

// httpServer serves one handler on a loopback port. Every request
// context derives from the context it was started with, which carries
// the benchmark's obs scope.
type httpServer struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serveLoopback(ctx context.Context, h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &httpServer{
		srv: &http.Server{
			Handler:           h,
			BaseContext:       func(net.Listener) context.Context { return ctx },
			ReadHeaderTimeout: 10 * time.Second,
		},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns ErrServerClosed after stop
	}()
	return s, nil
}

func (s *httpServer) stop() {
	_ = s.srv.Close()
	<-s.done
}

// vbrdHandle is an in-process vbrd: server.New behind a loopback port.
type vbrdHandle struct {
	*httpServer
	handler http.Handler
	cancel  context.CancelFunc // stops the server's simulation workers
}

func startVBRD(ctx context.Context, pool *genpool.Pool) (*vbrdHandle, error) {
	ctx, cancel := context.WithCancel(ctx)
	h := server.New(ctx, server.Config{Pool: pool}).Handler()
	hs, err := serveLoopback(ctx, h)
	if err != nil {
		cancel()
		return nil, err
	}
	return &vbrdHandle{httpServer: hs, handler: h, cancel: cancel}, nil
}

func (v *vbrdHandle) stop() {
	v.httpServer.stop()
	v.cancel()
}

// fleetHandle is a one-worker fleet: a supervised vbrd process behind
// an in-process front door (fleet.NewProxy) on loopback.
type fleetHandle struct {
	sup     *fleet.Supervisor
	front   *httpServer
	metrics string // the worker's obs snapshot, written when it exits
}

func startFleet(ctx context.Context, e *env) (*fleetHandle, error) {
	if e.cfg.vbrd == "" {
		return nil, errors.New("a fleet needs the vbrd binary (-vbrd)")
	}
	e.fleets++
	f := &fleetHandle{metrics: filepath.Join(e.cfg.out, fmt.Sprintf("worker-metrics-%d-%d.json", os.Getpid(), e.fleets))}
	sup, err := fleet.NewSupervisor(fleet.Config{
		Bin:     e.cfg.vbrd,
		Workers: 1,
		Args: func(id int) []string {
			return []string{"-addr", "127.0.0.1:0", "-worker-id", strconv.Itoa(id), "-metrics-json", f.metrics}
		},
		HealthInterval: 20 * time.Millisecond,
		Seed:           e.cfg.seed,
	})
	if err != nil {
		return nil, err
	}
	f.sup = sup
	sup.Start(ctx)
	rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := sup.WaitReady(rctx, 1); err != nil {
		_, _ = f.stop()
		return nil, err
	}
	if f.front, err = serveLoopback(ctx, fleet.NewProxy(sup, fleet.ProxyConfig{}).Handler()); err != nil {
		_, _ = f.stop()
		return nil, err
	}
	return f, nil
}

func (f *fleetHandle) workerURL() string { return f.sup.Workers()[0].BaseURL() }

func (f *fleetHandle) workerPID() int { return f.sup.Snapshot()[0].PID }

// stop closes the front door, drains the worker, waits for it to exit
// and returns the obs snapshot the worker wrote on its way out.
func (f *fleetHandle) stop() (obs.Snapshot, error) {
	var snap obs.Snapshot
	if f.front != nil {
		f.front.stop()
	}
	f.sup.Stop(context.Background(), 10*time.Second)
	b, err := os.ReadFile(f.metrics)
	if err != nil {
		return snap, fmt.Errorf("reading worker metrics: %w", err)
	}
	_ = os.Remove(f.metrics)
	if err := json.Unmarshal(b, &snap); err != nil {
		return snap, fmt.Errorf("decoding worker metrics: %w", err)
	}
	return snap, nil
}
