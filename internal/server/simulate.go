package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"vbr/internal/backend"
	"vbr/internal/core"
	"vbr/internal/obs"
	"vbr/internal/queue"
	"vbr/internal/runner"
	"vbr/internal/stream"
)

// shedRetryAfterSeconds is the Retry-After hint on a 503 shed: long
// enough for a couple of queued jobs to drain, short enough that a
// recovered worker is re-offered load promptly.
const shedRetryAfterSeconds = 1

// SimRequest is the /v1/simulate body: either an uploaded trace
// (Frames) or generation parameters, plus the §5 queue configuration.
type SimRequest struct {
	// Generation parameters, ignored when Frames is given. Zero model
	// fields inherit the server default model.
	N       int     `json:"n,omitempty"`
	Mean    float64 `json:"mean,omitempty"`
	Std     float64 `json:"std,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
	Hurst   float64 `json:"hurst,omitempty"`
	Seed    uint64  `json:"seed,omitempty"`
	Backend string  `json:"backend,omitempty"`

	// Frames is an uploaded per-interval byte series; when set it is
	// simulated as-is.
	Frames []float64 `json:"frames,omitempty"`

	// Queue configuration (§5): channel capacity in bits per second,
	// buffer in bytes, interval duration in seconds (default 1/24 — the
	// paper's frame clock).
	CapacityBps float64 `json:"capacity_bps"`
	BufferBytes float64 `json:"buffer_bytes"`
	IntervalSec float64 `json:"interval_s,omitempty"`
}

// JobView is the wire form of a simulation job.
type JobView struct {
	ID     string        `json:"id"`
	State  string        `json:"state"` // queued | running | done | failed
	Error  string        `json:"error,omitempty"`
	Result *queue.Result `json:"result,omitempty"`
}

// Job states.
const (
	stateQueued  = "queued"
	stateRunning = "running"
	stateDone    = "done"
	stateFailed  = "failed"
)

// job is the mutable server-side record behind a JobView.
type job struct {
	id  string
	req SimRequest

	mu     sync.Mutex
	state  string
	err    error
	result *queue.Result
}

func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{ID: j.id, State: j.state, Result: j.result}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	return v
}

func (j *job) setState(state string) {
	j.mu.Lock()
	j.state = state
	j.mu.Unlock()
}

func (j *job) finish(res *queue.Result, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil {
		j.state, j.err = stateFailed, err
		return
	}
	j.state, j.result = stateDone, res
}

// defaultJobQueueDepth bounds the number of accepted-but-unfinished
// jobs when Config.JobQueueDepth is zero; when the buffer is full,
// POST /v1/simulate sheds load with 503 instead of growing without
// bound.
const defaultJobQueueDepth = 256

// jobStore owns job records and the FIFO feeding the workers. prefix
// scopes job IDs to one fleet worker ("" outside a fleet).
type jobStore struct {
	prefix string

	mu   sync.Mutex
	next int
	byID map[string]*job
	fifo chan *job
}

func newJobStore(prefix string, depth int) *jobStore {
	return &jobStore{prefix: prefix, byID: make(map[string]*job), fifo: make(chan *job, depth)}
}

// add registers and enqueues a new job, or reports queue saturation.
func (st *jobStore) add(req SimRequest) (*job, error) {
	st.mu.Lock()
	st.next++
	j := &job{id: fmt.Sprintf("%sjob-%06d", st.prefix, st.next), req: req, state: stateQueued}
	st.byID[j.id] = j
	st.mu.Unlock()
	select {
	case st.fifo <- j:
		return j, nil
	default:
		st.mu.Lock()
		delete(st.byID, j.id)
		st.mu.Unlock()
		return nil, fmt.Errorf("server: job queue full (%d pending)", cap(st.fifo))
	}
}

// occupancy reports the job buffer's fill level for /healthz.
func (st *jobStore) occupancy() (used, capacity int) {
	return len(st.fifo), cap(st.fifo)
}

func (st *jobStore) get(id string) (*job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.byID[id]
	return j, ok
}

// jobStats summarizes queue occupancy for /healthz.
type jobStats struct {
	Queued  int `json:"queued"`
	Running int `json:"running"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`
}

func (st *jobStore) stats() jobStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	var out jobStats
	for _, j := range st.byID {
		j.mu.Lock()
		state := j.state
		j.mu.Unlock()
		switch state {
		case stateQueued:
			out.Queued++
		case stateRunning:
			out.Running++
		case stateDone:
			out.Done++
		case stateFailed:
			out.Failed++
		}
	}
	return out
}

// validateSim rejects obviously unrunnable jobs at POST time, so the
// client hears about bad parameters synchronously.
func (s *Server) validateSim(req SimRequest) error {
	if !(req.CapacityBps > 0) {
		return fmt.Errorf("server: capacity_bps must be positive, got %v", req.CapacityBps)
	}
	if req.BufferBytes < 0 {
		return fmt.Errorf("server: buffer_bytes must be ≥ 0, got %v", req.BufferBytes)
	}
	if req.IntervalSec < 0 {
		return fmt.Errorf("server: interval_s must be ≥ 0, got %v", req.IntervalSec)
	}
	if len(req.Frames) == 0 {
		cfg, err := s.simStreamConfig(req)
		if err != nil {
			return err
		}
		if cfg.N > s.cfg.MaxFrames {
			return fmt.Errorf("server: n=%d exceeds the per-request cap of %d frames", cfg.N, s.cfg.MaxFrames)
		}
	} else if len(req.Frames) > s.cfg.MaxFrames {
		return fmt.Errorf("server: %d uploaded frames exceed the per-request cap of %d", len(req.Frames), s.cfg.MaxFrames)
	}
	return nil
}

// Model resolves the body's model fields through ParseModel. A field
// omitted from the JSON decodes to exactly 0 and keeps PaperDefault's
// value; any other is read as its shortest round-trip decimal form, so
// the model is the one the equivalent query would give.
func (r SimRequest) Model() (core.Model, error) {
	return ParseModel(func(name string) string {
		v := map[string]float64{"mean": r.Mean, "std": r.Std, "tail": r.Tail, "hurst": r.Hurst}[name]
		//vbrlint:ignore floateq a field omitted from the JSON body decodes to exactly 0; the exact compare detects "not set"
		if v == 0 {
			return ""
		}
		return strconv.FormatFloat(v, 'g', -1, 64)
	})
}

// simStreamConfig maps a SimRequest's generation half onto a stream
// Config.
func (s *Server) simStreamConfig(req SimRequest) (stream.Config, error) {
	model, err := req.Model()
	if err != nil {
		return stream.Config{}, err
	}
	cfg := stream.Config{Model: model, N: req.N, Seed: req.Seed, Backend: DefaultBackend, Pool: s.cfg.Pool}
	if cfg.N == 0 {
		cfg.N = 10_000
	}
	if req.Backend != "" {
		b, err := backend.Parse(req.Backend)
		if err != nil {
			return stream.Config{}, err
		}
		cfg.Backend = b
	}
	return cfg, nil
}

// decodeSimRequest reads a body that holds exactly one SimRequest
// object. It refuses, by name, a field SimRequest does not declare, so a
// misspelt "hurts" is not simulated at the default H, and it refuses
// anything but white space after the object.
func decodeSimRequest(body io.Reader) (SimRequest, error) {
	var req SimRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return SimRequest{}, fmt.Errorf("server: decoding simulate request: %w", err)
	}
	switch tok, err := dec.Token(); {
	case errors.Is(err, io.EOF):
		return req, nil
	case err != nil:
		return SimRequest{}, fmt.Errorf("server: decoding simulate request: trailing data after the JSON object: %w", err)
	default:
		return SimRequest{}, fmt.Errorf("server: decoding simulate request: trailing data after the JSON object: %v", tok)
	}
}

// handleSimulate accepts an async §5 simulation job and returns 202
// with its id and status URL. The work itself runs on the server's
// worker pool under the server lifetime context — the job survives this
// request — so the handler only validates and enqueues; no generation
// happens here.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	scope := obs.From(r.Context())
	scope.Count("server.simulate.requests", 1)
	req, err := decodeSimRequest(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		scope.Count("server.simulate.badrequest", 1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.validateSim(req); err != nil {
		scope.Count("server.simulate.badrequest", 1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, err := s.jobs.add(req)
	if err != nil {
		scope.Count("server.simulate.shed", 1)
		// Retry-After turns the shed into a back-off signal: well-behaved
		// clients (and the fleet proxy) pause instead of hammering a
		// saturated worker into a 503 loop.
		w.Header().Set("Retry-After", strconv.Itoa(shedRetryAfterSeconds))
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	scope.Count("server.simulate.accepted", 1)
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, http.StatusAccepted, j.view())
}

// handleJob reports job status; it reads server-side state only, so no
// context threading applies.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("server: unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

// simWorker drains the job FIFO until the server lifetime context
// fires. Each job body runs through runner.Run, so a panicking
// simulation marks its own job failed instead of killing the daemon.
func (s *Server) simWorker(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case j := <-s.jobs.fifo:
			j.setState(stateRunning)
			scope := obs.From(ctx)
			done := scope.Span("server.simulate.job")
			res := runner.Run(ctx, 1, runner.Options{Workers: 1, Label: func(int) string { return j.id }}, func(ctx context.Context, _ int) (*queue.Result, error) {
				return s.runSim(ctx, j.req)
			})
			done()
			j.finish(res[0].Value, res[0].Err)
			if res[0].Err != nil {
				scope.Count("server.simulate.failed", 1)
			} else {
				scope.Count("server.simulate.done", 1)
			}
		}
	}
}

// runSim materializes the workload (uploaded or streamed from the
// model) and runs the §5 FIFO queue simulation on it.
func (s *Server) runSim(ctx context.Context, req SimRequest) (*queue.Result, error) {
	frames := req.Frames
	if len(frames) == 0 {
		cfg, err := s.simStreamConfig(req)
		if err != nil {
			return nil, err
		}
		src, err := stream.OpenCtx(ctx, cfg)
		if err != nil {
			return nil, err
		}
		frames, err = stream.Collect(ctx, src)
		if err != nil {
			return nil, fmt.Errorf("server: generating %d-frame workload: %w", cfg.N, err)
		}
	}
	interval := req.IntervalSec
	//vbrlint:ignore floateq a field omitted from the JSON body decodes to exactly 0; the exact compare detects "not set"
	if interval == 0 {
		interval = 1.0 / 24
	}
	res, err := queue.Simulate(
		queue.Workload{Bytes: frames, Interval: interval},
		req.CapacityBps, req.BufferBytes,
		queue.Options{Seed: req.Seed},
	)
	if err != nil {
		return nil, fmt.Errorf("server: simulating job: %w", err)
	}
	return res, nil
}
