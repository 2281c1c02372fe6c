package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"vbr/internal/backend"
	"vbr/internal/genpool"
	"vbr/internal/queue"
	"vbr/internal/source"
	"vbr/internal/stream"
)

// newTestServer wires a Server into an httptest listener with a
// lifetime bound to the test.
func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	ts := httptest.NewServer(New(ctx, cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// wantFrames regenerates the reference series a trace request should
// have served.
func wantFrames(t *testing.T, cfg stream.Config) []float64 {
	ctx := context.Background()
	t.Helper()
	src, err := stream.OpenCtx(ctx, cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	out, err := stream.Collect(context.Background(), src)
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	return out
}

func TestTraceNDJSON(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/trace?n=2000&seed=3&backend=hosking")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Errorf("Content-Type %q", got)
	}
	if got := resp.Header.Get("X-Vbr-Frames"); got != "2000" {
		t.Errorf("X-Vbr-Frames %q", got)
	}
	want := wantFrames(t, stream.Config{
		Model: PaperDefault, N: 2000, Seed: 3, Backend: backend.Hosking,
	})
	sc := bufio.NewScanner(resp.Body)
	var got []float64
	for sc.Scan() {
		f, err := strconv.ParseFloat(sc.Text(), 64)
		if err != nil {
			t.Fatalf("line %d: %v", len(got), err)
		}
		got = append(got, f)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scanning body: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		// 'g'/-1 formatting round-trips float64 exactly.
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("frame %d: got %v want %v", i, got[i], want[i])
		}
	}
}

// TestTraceNDJSONBytes pins the served NDJSON body byte for byte to
// strconv's shortest 'g' form of the library's frames, one per line:
// the bytes fleet failover resumes at an offset into. About 90 KB of
// body in 4,096-frame blocks puts frame boundaries at many offsets of
// the 32 KiB write buffer.
func TestTraceNDJSONBytes(t *testing.T) {
	const n, seed = 5000, 21
	ts := newTestServer(t, Config{})
	for _, src := range []string{"backend=hosking", "backend=davies-harte", "backend=paxson", "model=gop", "model=farima"} {
		query := fmt.Sprintf("%s&n=%d&seed=%d", src, n, seed)
		t.Run(query, func(t *testing.T) {
			var lib stream.BlockSource
			if spec, ok := strings.CutPrefix(src, "model="); ok {
				zs, err := source.New(spec, seed)
				if err != nil {
					t.Fatal(err)
				}
				if lib, err = source.Blocks(zs, n); err != nil {
					t.Fatal(err)
				}
			} else {
				b, err := backend.Parse(strings.TrimPrefix(src, "backend="))
				if err != nil {
					t.Fatal(err)
				}
				if lib, err = stream.OpenCtx(context.Background(), stream.Config{Model: PaperDefault, N: n, Seed: seed, Backend: b}); err != nil {
					t.Fatal(err)
				}
			}
			frames, err := stream.Collect(context.Background(), lib)
			if err != nil {
				t.Fatal(err)
			}
			var want []byte
			for _, f := range frames {
				want = append(strconv.AppendFloat(want, f, 'g', -1, 64), '\n')
			}

			resp, err := http.Get(ts.URL + "/v1/trace?" + query)
			if err != nil {
				t.Fatalf("GET: %v", err)
			}
			defer resp.Body.Close()
			got, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatalf("reading body: %v", err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, got)
			}
			if !bytes.Equal(got, want) {
				i := 0
				for i < min(len(got), len(want)) && got[i] == want[i] {
					i++
				}
				line := bytes.Count(want[:i], []byte{'\n'})
				t.Fatalf("body (%d bytes) departs from the library's bytes (%d) at byte %d, frame %d (%v)",
					len(got), len(want), i, line, frames[min(line, len(frames)-1)])
			}
		})
	}
}

// TestTraceTrailers: after the body is fully streamed the response
// carries the stream's final validation probe as HTTP trailers — the
// calibrated MAVAR Ĥ, its 95% half-width, and the variance–time Ĥ.
func TestTraceTrailers(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/trace?n=16384&seed=11&format=bin")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatalf("draining body: %v", err)
	}
	parse := func(name string) float64 {
		t.Helper()
		v := resp.Trailer.Get(name)
		if v == "" {
			t.Fatalf("trailer %s missing (trailers: %v)", name, resp.Trailer)
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			t.Fatalf("trailer %s = %q: %v", name, v, err)
		}
		return f
	}
	h := parse("X-Vbr-Hhat-Mavar")
	herr := parse("X-Vbr-Hhat-Mavar-Err")
	hvt := parse("X-Vbr-Hhat-Vt")
	if h < 0.4 || h > 1.1 {
		t.Errorf("MAVAR Ĥ trailer = %v, want a plausible Hurst estimate", h)
	}
	if !(herr > 0) || herr > 0.3 {
		t.Errorf("MAVAR error-bar trailer = %v, want a small positive half-width", herr)
	}
	if hvt < 0.3 || hvt > 1.2 {
		t.Errorf("variance–time Ĥ trailer = %v", hvt)
	}
}

func TestTraceBinary(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/trace?n=1500&seed=5&format=bin")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/octet-stream" {
		t.Errorf("Content-Type %q", got)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading body: %v", err)
	}
	if len(raw) != 1500*8 {
		t.Fatalf("body %d bytes, want %d", len(raw), 1500*8)
	}
	want := wantFrames(t, stream.Config{
		Model: PaperDefault, N: 1500, Seed: 5, Backend: backend.DaviesHarte,
	})
	for i := range want {
		got := math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
		if math.Float64bits(got) != math.Float64bits(want[i]) {
			t.Fatalf("frame %d: got %v want %v", i, got, want[i])
		}
	}
}

func TestTraceBadRequests(t *testing.T) {
	ts := newTestServer(t, Config{MaxFrames: 10_000})
	for _, q := range []string{
		"n=0",
		"n=abc",
		"n=20000",    // over MaxFrames
		"hurst=1.5",  // invalid model
		"mean=-3",    // invalid model
		"format=xml", // unknown format
		"backend=fourier",
		"seed=-1",
		"block=4096&overlap=4096&backend=davies-harte",
		"n=100&block=1&overlap=50000000", // overlap ≥ block holds for a 1-frame block too
	} {
		wantBadRequest(t, http.DefaultClient, ts.URL+"/v1/trace?"+q)
	}

	// An unknown format is refused before the source opens: no Hosking
	// coefficients are extended (seconds of work at n = 4,000,000) and no
	// Davies–Harte entry is cached for a new H, so the pool is untouched.
	// A parameter the path does not read, such as table=, is refused by
	// name before anything is built, and a cascade deeper than the cap
	// before its 2^depth-frame block is allocated.
	pool := genpool.New(0)
	ts = newTestServer(t, Config{Pool: pool})
	client := &http.Client{Timeout: 10 * time.Second}
	for _, q := range []string{
		"format=xml&backend=hosking&n=4000000",
		"format=xml&hurst=0.73",
		"model=farima:hurst=0.73&format=xml",
		"model=farima&format=xml&n=4000000",
		"table=100001",
		"model=cascade:depth=21",
	} {
		before := pool.Stats()
		wantBadRequest(t, client, ts.URL+"/v1/trace?"+q)
		if after := pool.Stats(); after != before {
			t.Errorf("?%s: pool stats %+v, were %+v", q, after, before)
		}
	}
}

// TestTraceUnknownParameters: a parameter the request's path does not
// read gets a 400 that names it, on the §4 stream and on a zoo model
// alike, so a typo or a retired tuning knob cannot be served silently.
func TestTraceUnknownParameters(t *testing.T) {
	ts := newTestServer(t, Config{})
	for _, c := range []struct{ query, name string }{
		{"n=1000&block=1", "block"},
		{"hurts=0.9", "hurts"},
		{"n=100&overlap=25&table=100", "overlap"},
		{"model=gop&n=100&block=4", "block"},
		{"model=gop&n=100&backend=paxson", "backend"},
		{"model=gop&n=100&hurst=0.7", "hurst"},
	} {
		resp, err := http.Get(ts.URL + "/v1/trace?" + c.query)
		if err != nil {
			t.Fatalf("GET ?%s: %v", c.query, err)
		}
		var body apiError
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("?%s: undecodable error body: %v", c.query, err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, strconv.Quote(c.name)) {
			t.Errorf("?%s: status %d, error %q; want 400 naming %q", c.query, resp.StatusCode, body.Error, c.name)
		}
	}
	// Every parameter the stream path reads is still accepted.
	resp, err := http.Get(ts.URL + "/v1/trace?n=10&seed=1&backend=paxson&mean=27791&std=6254&tail=12&hurst=0.8&format=bin")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("all stream parameters: status %d, want 200", resp.StatusCode)
	}
}

// wantBadRequest GETs url and requires a 400 with a JSON error message.
func wantBadRequest(t *testing.T, client *http.Client, url string) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Errorf("GET %s: %v", url, err)
		return
	}
	defer resp.Body.Close()
	var body apiError
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Errorf("%s: undecodable error body: %v", url, err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("%s: status %d, want 400", url, resp.StatusCode)
	}
	if body.Error == "" {
		t.Errorf("%s: empty error message", url)
	}
}

func TestTraceMethodNotAllowed(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/trace", "text/plain", strings.NewReader(""))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("status %d, want 405", resp.StatusCode)
	}
}

// pollJob polls a job until it leaves the queued/running states.
func pollJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		var v JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decoding job: %v", err)
		}
		if v.State == stateDone || v.State == stateFailed {
			return v
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return JobView{}
}

func postSim(t *testing.T, ts *httptest.Server, req SimRequest) (*http.Response, JobView) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	var v JobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decoding accept body: %v", err)
		}
	}
	return resp, v
}

func TestSimulateGeneratedJob(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := SimRequest{N: 5000, Seed: 11, CapacityBps: 6e6, BufferBytes: 250_000}
	resp, accepted := postSim(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+accepted.ID {
		t.Errorf("Location %q", loc)
	}
	final := pollJob(t, ts, accepted.ID)
	if final.State != stateDone {
		t.Fatalf("job state %q (err %q)", final.State, final.Error)
	}
	if final.Result == nil {
		t.Fatal("done job has no result")
	}

	// The job must be the same simulation a direct caller would run.
	frames := wantFrames(t, stream.Config{
		Model: PaperDefault, N: 5000, Seed: 11, Backend: backend.DaviesHarte,
	})
	want, err := queue.Simulate(
		queue.Workload{Bytes: frames, Interval: 1.0 / 24},
		req.CapacityBps, req.BufferBytes, queue.Options{Seed: req.Seed},
	)
	if err != nil {
		t.Fatalf("reference Simulate: %v", err)
	}
	if math.Float64bits(final.Result.Pl) != math.Float64bits(want.Pl) {
		t.Errorf("job Pl=%v, direct Pl=%v", final.Result.Pl, want.Pl)
	}
	if math.Float64bits(final.Result.MaxBacklog) != math.Float64bits(want.MaxBacklog) {
		t.Errorf("job MaxBacklog=%v, direct %v", final.Result.MaxBacklog, want.MaxBacklog)
	}
}

func TestSimulateUploadedFrames(t *testing.T) {
	ts := newTestServer(t, Config{})
	frames := []float64{100, 900, 100, 900, 100, 900, 100, 900}
	req := SimRequest{Frames: frames, CapacityBps: 40_000, BufferBytes: 100, IntervalSec: 0.1}
	resp, accepted := postSim(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	final := pollJob(t, ts, accepted.ID)
	if final.State != stateDone {
		t.Fatalf("job state %q (err %q)", final.State, final.Error)
	}
	want, err := queue.Simulate(
		queue.Workload{Bytes: frames, Interval: 0.1},
		req.CapacityBps, req.BufferBytes, queue.Options{},
	)
	if err != nil {
		t.Fatalf("reference Simulate: %v", err)
	}
	if math.Float64bits(final.Result.Pl) != math.Float64bits(want.Pl) {
		t.Errorf("job Pl=%v, direct Pl=%v", final.Result.Pl, want.Pl)
	}
}

func TestSimulateBadRequests(t *testing.T) {
	ts := newTestServer(t, Config{MaxFrames: 10_000})
	cases := []SimRequest{
		{},                            // no capacity
		{CapacityBps: -5},             // negative capacity
		{CapacityBps: 1e6, N: 20_000}, // over MaxFrames
		{CapacityBps: 1e6, Hurst: 2},  // invalid model
		{CapacityBps: 1e6, Backend: "wavelet"},
		{CapacityBps: 1e6, BufferBytes: -1},
		{CapacityBps: 1e6, IntervalSec: -1},
	}
	for i, req := range cases {
		resp, _ := postSim(t, ts, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d, want 400", i, resp.StatusCode)
		}
	}
	// Junk body.
	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatalf("POST junk: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("junk body: status %d, want 400", resp.StatusCode)
	}
}

func TestJobNotFound(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var h healthStatus
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if h.Status != "ok" {
		t.Errorf("status %q", h.Status)
	}
}

// TestTraceClientDisconnect: a client that walks away mid-stream must
// not wedge the server; subsequent requests still work.
func TestTraceClientDisconnect(t *testing.T) {
	ts := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/trace?n=500000", nil)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	buf := make([]byte, 4096)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("first read: %v", err)
	}
	cancel()
	resp.Body.Close()

	// The server must still answer.
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz after disconnect: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp2.StatusCode)
	}
}

// TestConcurrentTraceStreams: several clients streaming at once must
// each get their exact, independent series.
func TestConcurrentTraceStreams(t *testing.T) {
	ts := newTestServer(t, Config{})
	const clients = 4
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(seed int) {
			url := fmt.Sprintf("%s/v1/trace?n=3000&seed=%d&format=bin", ts.URL, seed)
			resp, err := http.Get(url)
			if err != nil {
				errc <- err
				return
			}
			defer resp.Body.Close()
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				errc <- err
				return
			}
			if len(raw) != 3000*8 {
				errc <- fmt.Errorf("seed %d: %d bytes", seed, len(raw))
				return
			}
			errc <- nil
		}(c + 1)
	}
	for c := 0; c < clients; c++ {
		if err := <-errc; err != nil {
			t.Errorf("client: %v", err)
		}
	}
}

// TestHealthzDegraded: a simulate buffer at ≥ 90% occupancy must flip
// /healthz to "degraded" (still 200) with the occupancy in the body,
// and a full buffer must shed with 503 + Retry-After. The server is
// built without sim workers so the FIFO fills deterministically.
func TestHealthzDegraded(t *testing.T) {
	s := &Server{
		cfg:  Config{MaxFrames: 1 << 20, JobQueueDepth: 10},
		jobs: newJobStore("", 10),
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	getHealth := func() healthStatus {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz status %d, want 200", resp.StatusCode)
		}
		var h healthStatus
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatalf("decode healthz: %v", err)
		}
		return h
	}

	if h := getHealth(); h.Status != HealthOK {
		t.Fatalf("empty queue: status %q, want %q", h.Status, HealthOK)
	}

	// Fill to 9/10: exactly the degraded threshold.
	req := SimRequest{N: 100, CapacityBps: 1e6}
	for i := 0; i < 9; i++ {
		resp, _ := postSim(t, ts, req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d: status %d, want 202", i, resp.StatusCode)
		}
	}
	h := getHealth()
	if h.Status != HealthDegraded {
		t.Errorf("9/10 queue: status %q, want %q", h.Status, HealthDegraded)
	}
	if h.Queue.Len != 9 || h.Queue.Cap != 10 {
		t.Errorf("queue occupancy %d/%d, want 9/10", h.Queue.Len, h.Queue.Cap)
	}
	if h.Queue.Occupancy < 0.89 || h.Queue.Occupancy > 0.91 {
		t.Errorf("occupancy %v, want ≈0.9", h.Queue.Occupancy)
	}

	// Fill the last slot, then the next POST must shed with Retry-After.
	if resp, _ := postSim(t, ts, req); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("10th job: status %d, want 202", resp.StatusCode)
	}
	resp, _ := postSim(t, ts, req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow job: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("503 shed carries no Retry-After header")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Errorf("Retry-After %q, want an integer ≥ 1", ra)
	}
}

// TestWorkerIdentity: a fleet-member server must stamp every response
// with X-Vbr-Worker and scope its job IDs with the worker prefix so
// the fleet proxy can route job polls.
func TestWorkerIdentity(t *testing.T) {
	ts := newTestServer(t, Config{WorkerID: "3"})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	var h healthStatus
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if got := resp.Header.Get(WorkerHeader); got != "3" {
		t.Errorf("%s = %q, want %q", WorkerHeader, got, "3")
	}
	if h.Worker != "3" {
		t.Errorf("healthz worker %q, want %q", h.Worker, "3")
	}

	accept, v := postSim(t, ts, SimRequest{N: 500, CapacityBps: 1e6})
	if accept.StatusCode != http.StatusAccepted {
		t.Fatalf("simulate: status %d", accept.StatusCode)
	}
	if !strings.HasPrefix(v.ID, "w3-job-") {
		t.Errorf("job id %q lacks the w3- worker prefix", v.ID)
	}
	if got := accept.Header.Get(WorkerHeader); got != "3" {
		t.Errorf("simulate %s = %q, want %q", WorkerHeader, got, "3")
	}
	final := pollJob(t, ts, v.ID)
	if final.State != stateDone {
		t.Fatalf("job state %q (err %q)", final.State, final.Error)
	}
}
