package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"vbr/internal/genpool"
)

// FuzzTraceQuery sends arbitrary query strings to /v1/trace on a
// server capped at 2,048 frames: every answer is 200 or 400, never a
// 500 or a panic, and a 200 body holds exactly the X-Vbr-Frames frames
// it announces, eight bytes each in the binary format and one number
// per line in NDJSON.
func FuzzTraceQuery(f *testing.F) {
	for _, q := range []string{
		"",
		"n=10",
		"n=100&seed=3&backend=hosking&format=bin",
		"n=2048&backend=paxson&hurst=0.55&tail=1.5",
		"n=64&mean=1&std=1&tail=40&hurst=0.99",
		"n=2049",
		"n=1000&block=1",
		"hurts=0.9",
		"format=xml",
		"n=-1&seed=18446744073709551615",
		"model=gop&n=50",
		"model=farima*2+onoff&n=300&format=bin",
		"model=cascade:depth=21",
		"model=farima:block=4096&n=5",
		"model=gop cv=0.3&n=20",
	} {
		f.Add(q)
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.Cleanup(cancel)
	h := New(ctx, Config{MaxFrames: 2048, Pool: genpool.New(16 << 20)}).Handler()
	f.Fuzz(func(t *testing.T, query string) {
		// A raw query is set on the URL directly: NewRequest panics on a
		// target that holds a space, and the server must see such bytes.
		req := httptest.NewRequest(http.MethodGet, "/v1/trace", nil)
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusBadRequest:
			return
		case http.StatusOK:
		default:
			t.Fatalf("?%s: status %d: %s", query, rec.Code, rec.Body)
		}
		n, err := strconv.Atoi(rec.Header().Get("X-Vbr-Frames"))
		if err != nil || n < 1 || n > 2048 {
			t.Fatalf("?%s: X-Vbr-Frames %q", query, rec.Header().Get("X-Vbr-Frames"))
		}
		body := rec.Body.Bytes()
		if rec.Header().Get("Content-Type") == "application/octet-stream" {
			if len(body) != 8*n {
				t.Fatalf("?%s: %d body bytes for %d binary frames", query, len(body), n)
			}
			return
		}
		lines := bytes.Split(bytes.TrimSuffix(body, []byte{'\n'}), []byte{'\n'})
		if len(lines) != n || !bytes.HasSuffix(body, []byte{'\n'}) {
			t.Fatalf("?%s: %d NDJSON lines for %d frames", query, len(lines), n)
		}
		for i, l := range lines {
			if _, err := strconv.ParseFloat(string(l), 64); err != nil {
				t.Fatalf("?%s: line %d: %v", query, i, err)
			}
		}
	})
}
