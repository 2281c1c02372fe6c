package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"vbr/internal/server"
)

// fakeFleet builds a supervisor that is never started: tests inject
// worker addresses and breaker states by hand.
func fakeFleet(t *testing.T, n int) *Supervisor {
	t.Helper()
	sup, err := NewSupervisor(Config{
		Bin:     "unused",
		Args:    func(int) []string { return nil },
		Workers: n,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sup
}

// route makes a worker routable at the given URL.
func route(w *Worker, url string) {
	w.mu.Lock()
	w.baseURL = url
	w.mu.Unlock()
	w.breaker.ReportSuccess()
}

// candidateOrder reports the failover order (worker IDs) the proxy
// will walk for the paper-default key, which is what a query with no
// model parameters routes by.
func candidateOrder(t *testing.T, sup *Supervisor) []int {
	t.Helper()
	for _, w := range sup.Workers() {
		route(w, "http://placeholder.invalid")
	}
	var ids []int
	for _, w := range sup.Candidates(TraceKey(server.PaperDefault, "")) {
		ids = append(ids, w.ID)
	}
	if len(ids) != len(sup.Workers()) {
		t.Fatalf("candidate order %v does not cover the fleet", ids)
	}
	return ids
}

// ndjsonPayload builds a deterministic fake trace body.
func ndjsonPayload(frames int) []byte {
	var buf bytes.Buffer
	for i := 0; i < frames; i++ {
		fmt.Fprintf(&buf, "{\"frame\":%d,\"bytes\":%d}\n", i, 1000+i)
	}
	return buf.Bytes()
}

// traceBackend serves payload with trace headers; truncateAt >= 0 cuts
// the body at that byte offset, either aborting the connection (abort)
// or returning cleanly — the latter is the sneaky failure mode where
// the proxy still sees a well-formed EOF.
func traceBackend(frames int, payload []byte, truncateAt int, abort bool, hits *atomic.Int32) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("X-Vbr-Frames", strconv.Itoa(frames))
		w.Header().Set("X-Vbr-Backend", "fake")
		w.WriteHeader(http.StatusOK)
		if truncateAt >= 0 && truncateAt < len(payload) {
			_, _ = w.Write(payload[:truncateAt])
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			if abort {
				panic(http.ErrAbortHandler)
			}
			return
		}
		_, _ = w.Write(payload)
	})
}

func TestProxyTraceRoutesConsistently(t *testing.T) {
	const frames = 50
	payload := ndjsonPayload(frames)
	sup := fakeFleet(t, 2)
	var hits [2]atomic.Int32
	for i, w := range sup.Workers() {
		srv := httptest.NewServer(traceBackend(frames, payload, -1, false, &hits[i]))
		defer srv.Close()
		route(w, srv.URL)
	}
	front := httptest.NewServer(NewProxy(sup, ProxyConfig{}).Handler())
	defer front.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(front.URL + "/v1/trace?n=50&seed=1")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("HTTP %d", resp.StatusCode)
		}
		if !bytes.Equal(body, payload) {
			t.Fatalf("request %d: proxied body differs from backend payload", i)
		}
		if resp.Header.Get("X-Vbr-Backend") != "fake" {
			t.Fatal("trace headers not passed through")
		}
	}
	// Same parameters must pin to one worker (hot cache), not round-robin.
	if a, b := hits[0].Load(), hits[1].Load(); (a != 3 || b != 0) && (a != 0 || b != 3) {
		t.Fatalf("hits = [%d %d], want all 3 on one worker", a, b)
	}
}

// TestProxyTraceBackendRouting pins the backend half of the routing
// key: a request with no backend and one naming the default engine,
// davies-harte, stick to one worker (its spectrum cache stays hot), and
// the proxy still round-trips the body intact with a backend parameter
// present.
func TestProxyTraceBackendRouting(t *testing.T) {
	const frames = 20
	payload := ndjsonPayload(frames)
	sup := fakeFleet(t, 4)
	var hits [4]atomic.Int32
	for i, w := range sup.Workers() {
		srv := httptest.NewServer(traceBackend(frames, payload, -1, false, &hits[i]))
		defer srv.Close()
		route(w, srv.URL)
	}
	front := httptest.NewServer(NewProxy(sup, ProxyConfig{}).Handler())
	defer front.Close()

	for _, query := range []string{"", "&backend=davies-harte", "&backend=davies-harte"} {
		resp, err := http.Get(front.URL + "/v1/trace?n=20&seed=1" + query)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%q: HTTP %d", query, resp.StatusCode)
		}
		if !bytes.Equal(body, payload) {
			t.Fatalf("%q: proxied body differs from backend payload", query)
		}
	}
	busy := 0
	for i := range hits {
		if n := hits[i].Load(); n > 0 {
			busy++
			if n != 3 {
				t.Fatalf("worker %d served %d of 3 davies-harte requests", i, n)
			}
		}
	}
	if busy != 1 {
		t.Fatalf("davies-harte requests spread across %d workers, want 1", busy)
	}
}

func TestProxyTraceFailoverMidStreamAbort(t *testing.T) {
	testProxyTraceFailover(t, true)
}

// A worker that gives up mid-generation still ends its chunked body
// cleanly — the proxy must detect the short stream from X-Vbr-Frames
// and fail over anyway.
func TestProxyTraceFailoverCleanTruncation(t *testing.T) {
	testProxyTraceFailover(t, false)
}

func testProxyTraceFailover(t *testing.T, abort bool) {
	const frames = 100
	payload := ndjsonPayload(frames)
	cut := len(payload)*37/100 + 3 // deliberately mid-line

	sup := fakeFleet(t, 2)
	order := candidateOrder(t, sup)
	var hits [2]atomic.Int32

	primary := httptest.NewServer(traceBackend(frames, payload, cut, abort, &hits[0]))
	defer primary.Close()
	secondary := httptest.NewServer(traceBackend(frames, payload, -1, false, &hits[1]))
	defer secondary.Close()
	route(sup.workers[order[0]], primary.URL)
	route(sup.workers[order[1]], secondary.URL)

	front := httptest.NewServer(NewProxy(sup, ProxyConfig{}).Handler())
	defer front.Close()

	resp, err := http.Get(front.URL + "/v1/trace?n=100&seed=1")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading proxied stream: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if !bytes.Equal(body, payload) {
		t.Fatalf("resumed stream differs: got %d bytes, want %d", len(body), len(payload))
	}
	if hits[0].Load() != 1 || hits[1].Load() != 1 {
		t.Fatalf("hits = [%d %d], want one request to each worker", hits[0].Load(), hits[1].Load())
	}
	// The failed worker's breaker heard about it.
	if st := sup.workers[order[0]].breaker.State(); st != StateSuspect {
		t.Fatalf("primary breaker = %v, want suspect after one failure", st)
	}
}

func TestProxyTrace4xxIsFinal(t *testing.T) {
	sup := fakeFleet(t, 2)
	order := candidateOrder(t, sup)
	var secondaryHits atomic.Int32

	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"n out of range"}`, http.StatusBadRequest)
	}))
	defer primary.Close()
	secondary := httptest.NewServer(traceBackend(10, ndjsonPayload(10), -1, false, &secondaryHits))
	defer secondary.Close()
	route(sup.workers[order[0]], primary.URL)
	route(sup.workers[order[1]], secondary.URL)

	front := httptest.NewServer(NewProxy(sup, ProxyConfig{}).Handler())
	defer front.Close()

	resp, err := http.Get(front.URL + "/v1/trace?n=10")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("HTTP %d, want 400 passed through", resp.StatusCode)
	}
	if secondaryHits.Load() != 0 {
		t.Fatal("a 4xx must not fail over to another worker")
	}
}

func TestProxyNoWorkersIs503WithRetryAfter(t *testing.T) {
	sup := fakeFleet(t, 2) // nobody routable
	front := httptest.NewServer(NewProxy(sup, ProxyConfig{}).Handler())
	defer front.Close()

	for _, path := range []string{"/v1/trace?n=10", "/v1/simulate"} {
		var resp *http.Response
		var err error
		if strings.HasPrefix(path, "/v1/simulate") {
			resp, err = http.Post(front.URL+path, "application/json", strings.NewReader(`{"n":100}`))
		} else {
			resp, err = http.Get(front.URL + path)
		}
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s: HTTP %d, want 503", path, resp.StatusCode)
		}
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
			t.Fatalf("%s: Retry-After = %q, want ≥ 1s", path, resp.Header.Get("Retry-After"))
		}
	}
}

func TestProxySimulateDialFailureReroutes(t *testing.T) {
	sup := fakeFleet(t, 2)
	order := candidateOrder(t, sup)

	// A listener opened and immediately closed yields a connection
	// refused — the one failure mode where rerouting a POST is safe.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + ln.Addr().String()
	ln.Close()

	var gotBody atomic.Value
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		gotBody.Store(string(b))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintln(w, `{"id":"w1-job-000001","state":"queued"}`)
	}))
	defer live.Close()

	route(sup.workers[order[0]], deadURL)
	route(sup.workers[order[1]], live.URL)

	front := httptest.NewServer(NewProxy(sup, ProxyConfig{}).Handler())
	defer front.Close()

	const body = `{"n":3000,"capacity_bps":6e6}`
	resp, err := http.Post(front.URL+"/v1/simulate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("HTTP %d, want 202 from the live replica", resp.StatusCode)
	}
	if got := gotBody.Load(); got != body {
		t.Fatalf("live replica saw body %q, want %q", got, body)
	}
	if st := sup.workers[order[0]].breaker.State(); st != StateSuspect {
		t.Fatalf("dead worker breaker = %v, want suspect", st)
	}
}

func TestProxySimulateShedFailsOver(t *testing.T) {
	sup := fakeFleet(t, 2)
	order := candidateOrder(t, sup)

	shedding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"job queue full"}`, http.StatusServiceUnavailable)
	}))
	defer shedding.Close()
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintln(w, `{"id":"w1-job-000002","state":"queued"}`)
	}))
	defer live.Close()
	route(sup.workers[order[0]], shedding.URL)
	route(sup.workers[order[1]], live.URL)

	front := httptest.NewServer(NewProxy(sup, ProxyConfig{}).Handler())
	defer front.Close()

	resp, err := http.Post(front.URL+"/v1/simulate", "application/json", strings.NewReader(`{"n":100}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("HTTP %d, want 202 after shedding failover", resp.StatusCode)
	}
}

func TestProxyJobRouting(t *testing.T) {
	sup := fakeFleet(t, 3)
	var hitPath atomic.Value
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hitPath.Store(r.URL.Path)
		fmt.Fprintln(w, `{"id":"w1-job-000007","state":"done"}`)
	}))
	defer owner.Close()
	wrong := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("job poll reached a non-owning worker")
	}))
	defer wrong.Close()
	route(sup.workers[0], wrong.URL)
	route(sup.workers[1], owner.URL)
	route(sup.workers[2], wrong.URL)

	front := httptest.NewServer(NewProxy(sup, ProxyConfig{}).Handler())
	defer front.Close()

	resp, err := http.Get(front.URL + "/v1/jobs/w1-job-000007")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d, want 200", resp.StatusCode)
	}
	if got := hitPath.Load(); got != "/v1/jobs/w1-job-000007" {
		t.Fatalf("owner saw path %v", got)
	}

	// Un-prefixed ids cannot be routed.
	resp, err = http.Get(front.URL + "/v1/jobs/job-000007")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unroutable id: HTTP %d, want 404", resp.StatusCode)
	}

	// Owner down: poll answers 503 + Retry-After, not a silent 404.
	sup.workers[1].breaker.MarkDown()
	resp, err = http.Get(front.URL + "/v1/jobs/w1-job-000007")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("down owner: HTTP %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("down owner: missing Retry-After")
	}
}

func TestParseJobWorker(t *testing.T) {
	cases := []struct {
		id     string
		worker int
		ok     bool
	}{
		{"w0-job-000001", 0, true},
		{"w12-job-000042", 12, true},
		{"job-000001", 0, false},
		{"w-job-1", 0, false},
		{"wx-job-1", 0, false},
		{"w3", 0, false},
	}
	for _, c := range cases {
		got, ok := parseJobWorker(c.id)
		if ok != c.ok || (ok && got != c.worker) {
			t.Errorf("parseJobWorker(%q) = (%d, %v), want (%d, %v)", c.id, got, ok, c.worker, c.ok)
		}
	}
}

func TestProxyHealthzAggregate(t *testing.T) {
	sup := fakeFleet(t, 3)
	for _, w := range sup.Workers() {
		route(w, "http://placeholder.invalid")
	}
	front := httptest.NewServer(NewProxy(sup, ProxyConfig{}).Handler())
	defer front.Close()

	get := func() FleetHealth {
		t.Helper()
		resp, err := http.Get(front.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fleet healthz must stay 200 while supervising, got %d", resp.StatusCode)
		}
		var h FleetHealth
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}

	if h := get(); h.Status != "ok" || len(h.Workers) != 3 {
		t.Fatalf("all healthy: status %q with %d workers", h.Status, len(h.Workers))
	}
	sup.workers[2].breaker.MarkDown()
	if h := get(); h.Status != "degraded" {
		t.Fatalf("one down: status %q, want degraded", h.Status)
	}
	sup.workers[0].breaker.MarkDown()
	sup.workers[1].breaker.MarkDown()
	if h := get(); h.Status != "down" {
		t.Fatalf("all down: status %q, want down", h.Status)
	}
}
