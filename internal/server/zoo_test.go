package server

import (
	"bufio"
	"context"
	"io"
	"math"
	"net/http"
	"strconv"
	"testing"

	"vbr/internal/source"
	"vbr/internal/stream"
)

// readNDJSON parses a streamed NDJSON trace body.
func readNDJSON(t *testing.T, body io.Reader) []float64 {
	t.Helper()
	sc := bufio.NewScanner(body)
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
	return got
}

// TestTraceZooModel serves a zoo model through model= and checks the
// body against the registry run directly with the same seed.
func TestTraceZooModel(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/trace?model=gop&n=512&seed=9")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(ModelHeader); got != "gop" {
		t.Errorf("%s = %q, want gop", ModelHeader, got)
	}
	if got := resp.Header.Get("X-Vbr-Frames"); got != "512" {
		t.Errorf("X-Vbr-Frames %q", got)
	}
	if got := resp.Header.Get("X-Vbr-Backend"); got != "" {
		t.Errorf("zoo response carries backend header %q", got)
	}
	got := readNDJSON(t, resp.Body)

	src, err := source.New("gop", 9)
	if err != nil {
		t.Fatal(err)
	}
	ad, err := source.Blocks(src, 512)
	if err != nil {
		t.Fatal(err)
	}
	want, err := stream.Collect(context.Background(), ad)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("frame %d: got %v want %v", i, got[i], want[i])
		}
	}
}

// TestTraceZooMixSpec drives a heterogeneous mix spec through the
// query string: "+" arrives as a space after URL decoding and must be
// read back as the mix separator.
func TestTraceZooMixSpec(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/trace?model=poisson:fps=24*2+onoff:fps=24&n=256&seed=5")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(ModelHeader); got != "poisson:fps=24*2+onoff:fps=24" {
		t.Errorf("%s = %q", ModelHeader, got)
	}
	got := readNDJSON(t, resp.Body)
	if len(got) != 256 {
		t.Fatalf("got %d frames, want 256", len(got))
	}
	for i, f := range got {
		if math.IsNaN(f) || f < 0 {
			t.Fatalf("frame %d = %v", i, f)
		}
	}
}

func TestTraceZooBadRequests(t *testing.T) {
	ts := newTestServer(t, Config{MaxFrames: 1000})
	for _, q := range []string{
		"model=nosuchmodel",
		"model=gop:nosuchparam=1",
		"model=gop*0",
		"model=gop&n=2000",  // over MaxFrames
		"model=gop&n=oops",  // bad n
		"model=gop&seed=-1", // bad seed
	} {
		resp, err := http.Get(ts.URL + "/v1/trace?" + q)
		if err != nil {
			t.Fatalf("GET %s: %v", q, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestTraceZooDeterminism: two requests with the same model and seed
// must stream identical bytes.
func TestTraceZooDeterminism(t *testing.T) {
	ts := newTestServer(t, Config{})
	fetch := func(seed string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/trace?model=cascade:depth=8&n=512&seed=" + seed + "&format=bin")
		if err != nil {
			t.Fatalf("GET: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b, c := fetch("7"), fetch("7"), fetch("8")
	if string(a) != string(b) {
		t.Error("same seed served different bytes")
	}
	if string(a) == string(c) {
		t.Error("different seeds served identical bytes")
	}
	if len(a) != 512*8 {
		t.Errorf("body is %d bytes, want %d", len(a), 512*8)
	}
}
