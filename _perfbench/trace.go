package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// tracer keeps the spans of a traced run in memory and writes them out
// when the run ends. Spans wrap the benchmark's own calls into the
// program's layers; the program itself carries no span code. A nil
// tracer records nothing, so untraced loops pay one nil check per op.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed call. ID is its 1-based position, Parent the span
// that caused it (0 for a root); times are nanoseconds since the traced
// phase began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span now; end closes it.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	return t.add(name, parent, time.Now(), time.Time{})
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose times the caller measured itself; a zero end
// leaves it open for end.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	s := span{Parent: parent, Name: name, Start: start.Sub(t.t0).Nanoseconds()}
	if !end.IsZero() {
		s.End = end.Sub(t.t0).Nanoseconds()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing spans to %s: %w", path, err)
	}
	return nil
}
