package server

import (
	"bufio"
	"math"
	"net/http"
	"strconv"
	"testing"

	"vbr/internal/backend"
	"vbr/internal/stream"
)

// TestTraceBackendEcho pins the ?backend= wiring end to end: every
// spelling selects the right engine, the response echoes the CONCRETE
// backend in X-Vbr-Backend (auto reports what it resolved to, not
// "auto"), and the served frames match the equivalent direct stream
// bit for bit.
func TestTraceBackendEcho(t *testing.T) {
	ts := newTestServer(t, Config{})
	cases := []struct {
		param    string // ?backend= value; empty = server default
		wantEcho string
		backend  backend.Backend // engine behind the reference stream
	}{
		{"", "davies-harte", backend.DaviesHarte},
		{"hosking", "hosking", backend.Hosking},
		{"davies-harte", "davies-harte", backend.DaviesHarte},
		{"paxson", "paxson", backend.Paxson},
		{"auto", "paxson", backend.Paxson}, // streams always resolve Auto to Paxson
	}
	for _, c := range cases {
		url := ts.URL + "/v1/trace?n=2000&seed=3"
		if c.param != "" {
			url += "&backend=" + c.param
		}
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("backend=%q: GET: %v", c.param, err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("backend=%q: status %d", c.param, resp.StatusCode)
		}
		if got := resp.Header.Get(BackendHeader); got != c.wantEcho {
			t.Errorf("backend=%q: %s = %q, want %q", c.param, BackendHeader, got, c.wantEcho)
		}
		want := wantFrames(t, stream.Config{
			Model: PaperDefault, N: 2000, Seed: 3, Backend: c.backend,
		})
		sc := bufio.NewScanner(resp.Body)
		var got []float64
		for sc.Scan() {
			f, err := strconv.ParseFloat(sc.Text(), 64)
			if err != nil {
				t.Fatalf("backend=%q: line %d: %v", c.param, len(got), err)
			}
			got = append(got, f)
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			t.Fatalf("backend=%q: scanning body: %v", c.param, err)
		}
		if len(got) != len(want) {
			t.Fatalf("backend=%q: got %d frames, want %d", c.param, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("backend=%q: frame %d: got %v want %v", c.param, i, got[i], want[i])
			}
		}
	}
}
