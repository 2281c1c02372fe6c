package fleet

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"vbr/internal/backend"
	"vbr/internal/server"
	"vbr/internal/source"
	"vbr/internal/stream"
)

// The conformance matrix: a served trace is a function of its model,
// length, seed and engine, so the library, a vbrd worker and the fleet
// front door must hand out the same bytes for it. Fleet failover relies
// on this, since it resumes a stream on another worker at a byte offset.

const (
	conformN    = 20_000 // crosses the first 7,168-frame chunk seam
	conformSeed = 7
)

// vbrdFleet makes every worker of a two-worker fakeFleet an in-process
// vbrd, with wrap (when non-nil) around each worker's handler, and
// returns the workers' URLs by ID.
func vbrdFleet(t *testing.T, wrap func(id int, h http.Handler) http.Handler) (*Supervisor, []string) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel) // runs after the servers close: the job workers exit
	sup := fakeFleet(t, 2)
	urls := make([]string, len(sup.Workers()))
	for _, w := range sup.Workers() {
		h := server.New(ctx, server.Config{WorkerID: strconv.Itoa(w.ID)}).Handler()
		if wrap != nil {
			h = wrap(w.ID, h)
		}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		route(w, srv.URL)
		urls[w.ID] = srv.URL
	}
	return sup, urls
}

// libraryBytes is the trace a query names, drawn through the library
// (stream.OpenCtx, or source.Blocks for a zoo model) and encoded as the
// wire format prescribes: NDJSON lines in strconv's shortest form, or
// little-endian float64 bits.
func libraryBytes(t *testing.T, q url.Values) []byte {
	t.Helper()
	ctx := context.Background()
	var src stream.BlockSource
	if spec := q.Get("model"); spec != "" {
		zs, err := source.New(spec, conformSeed)
		if err != nil {
			t.Fatal(err)
		}
		if src, err = source.Blocks(zs, conformN); err != nil {
			t.Fatal(err)
		}
	} else {
		b := server.DefaultBackend
		if v := q.Get("backend"); v != "" {
			var err error
			if b, err = backend.Parse(v); err != nil {
				t.Fatal(err)
			}
		}
		st, err := stream.OpenCtx(ctx, stream.Config{Model: server.PaperDefault, N: conformN, Seed: conformSeed, Backend: b})
		if err != nil {
			t.Fatal(err)
		}
		src = st
	}
	frames, err := stream.Collect(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != conformN {
		t.Fatalf("library drew %d frames, want %d", len(frames), conformN)
	}
	var out []byte
	for _, f := range frames {
		if q.Get("format") == "bin" {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(f))
		} else {
			out = strconv.AppendFloat(out, f, 'g', -1, 64)
			out = append(out, '\n')
		}
	}
	return out
}

// fetch GETs a trace and returns its body, failing on anything but a
// complete 200.
func fetch(t *testing.T, base string, q url.Values) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/trace?" + q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s?%s: HTTP %d, %v: %.200s", base, q.Encode(), resp.StatusCode, err, body)
	}
	return body
}

// firstDiff locates the first byte where two streams part, for a
// failure message that says where rather than only that.
func firstDiff(a, b []byte) string {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return fmt.Sprintf("first difference at byte %d of %d", i, len(a))
		}
	}
	return fmt.Sprintf("lengths %d and %d", len(a), len(b))
}

// TestConformanceMatrix requires the library's bytes, a worker's bytes
// and the front door's bytes to be equal for every engine and every
// scenario-zoo member, in both wire formats.
func TestConformanceMatrix(t *testing.T) {
	sup, urls := vbrdFleet(t, nil)
	front := httptest.NewServer(NewProxy(sup, ProxyConfig{}).Handler())
	defer front.Close()

	var cells []url.Values
	for _, b := range []string{"hosking", "davies-harte", "paxson", "auto"} {
		cells = append(cells, url.Values{"backend": {b}})
	}
	for _, m := range []string{"farima", "gop", "cascade", "poisson", "onoff", "farima*2+onoff:fps=24"} {
		cells = append(cells, url.Values{"model": {m}})
	}
	for _, cell := range cells {
		for _, format := range []string{"ndjson", "bin"} {
			q := url.Values{"n": {strconv.Itoa(conformN)}, "seed": {strconv.Itoa(conformSeed)}, "format": {format}}
			for k, v := range cell {
				q[k] = v
			}
			t.Run(strings.Join(append(cell["backend"], cell["model"]...), "")+"/"+format, func(t *testing.T) {
				want := libraryBytes(t, q)
				for id, u := range urls {
					if got := fetch(t, u, q); string(got) != string(want) {
						t.Errorf("worker %d differs from the library: %s", id, firstDiff(want, got))
					}
				}
				if got := fetch(t, front.URL, q); string(got) != string(want) {
					t.Errorf("front door differs from the library: %s", firstDiff(want, got))
				}
			})
		}
	}
}

// errCut is what a cut worker's writer reports once its budget is
// spent, so the trace handler stops as it would on a lost client.
var errCut = errors.New("body cut")

// cutWriter passes the first left bytes of a response through and
// refuses the rest.
type cutWriter struct {
	http.ResponseWriter
	left int
}

func (c *cutWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p[:min(len(p), c.left)])
	c.left -= n
	if err == nil && n < len(p) {
		err = errCut
	}
	return n, err
}

func (c *cutWriter) Flush() { c.ResponseWriter.(http.Flusher).Flush() }

// TestConformanceFailoverMidStream cuts the owning worker's body
// mid-frame, aborting its connection: the front door must fail over to
// the other worker and still deliver the library's bytes.
func TestConformanceFailoverMidStream(t *testing.T) {
	for _, format := range []string{"ndjson", "bin"} {
		t.Run(format, func(t *testing.T) {
			q := url.Values{"n": {strconv.Itoa(conformN)}, "seed": {strconv.Itoa(conformSeed)}, "format": {format}}
			want := libraryBytes(t, q)
			cutAt := len(want)*37/100 + 3
			var hits [2]atomic.Int32
			var owner atomic.Int32
			sup, _ := vbrdFleet(t, func(id int, h http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					hits[id].Add(1)
					if int32(id) != owner.Load() {
						h.ServeHTTP(w, r)
						return
					}
					cw := &cutWriter{ResponseWriter: w, left: cutAt}
					h.ServeHTTP(cw, r)
					cw.Flush()
					panic(http.ErrAbortHandler) // no chunked terminator: a dead worker
				})
			})
			owner.Store(int32(sup.Candidates(TraceKey(server.PaperDefault, ""))[0].ID))
			front := httptest.NewServer(NewProxy(sup, ProxyConfig{}).Handler())
			defer front.Close()

			if got := fetch(t, front.URL, q); string(got) != string(want) {
				t.Fatalf("failed-over stream differs from the library: %s", firstDiff(want, got))
			}
			if hits[0].Load() != 1 || hits[1].Load() != 1 {
				t.Fatalf("hits = [%d %d], want one request to each worker", hits[0].Load(), hits[1].Load())
			}
		})
	}
}

// TestProxySimulatePassesRefusalThrough pins that a worker's 400 for a
// simulate body it does not read all of reaches the client through the
// front door, whose own routing decode stays tolerant, and that no job
// is created: the next valid body is the owning worker's first job.
func TestProxySimulatePassesRefusalThrough(t *testing.T) {
	sup, _ := vbrdFleet(t, nil)
	front := httptest.NewServer(NewProxy(sup, ProxyConfig{}).Handler())
	defer front.Close()
	post := func(body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(front.URL+"/v1/simulate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}
	const valid = `{"n":5000,"capacity_bps":6e6,"buffer_bytes":250000,"seed":4`
	for _, c := range []struct{ body, msg string }{
		{valid + `,"hurts":0.9}`, `unknown field \"hurts\"`},
		{valid + `} {"n":1}`, "trailing data after the JSON object"},
	} {
		if code, b := post(c.body); code != http.StatusBadRequest || !strings.Contains(string(b), c.msg) {
			t.Errorf("%s: HTTP %d %s, want 400 naming %s", c.body, code, b, c.msg)
		}
	}
	code, b := post(valid + "}")
	var v server.JobView
	if err := json.Unmarshal(b, &v); code != http.StatusAccepted || err != nil || !strings.HasSuffix(v.ID, "-job-000001") {
		t.Fatalf("valid body: HTTP %d, job %q (%v), want 202 and the worker's first job", code, v.ID, err)
	}
}
