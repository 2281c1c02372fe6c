// Package server is the HTTP serving layer over the §4 generator and
// the §5 queueing simulator: vbrd's request handlers, the async
// simulation job queue, and their JSON wire types. It is deliberately
// stdlib-only (net/http, Go 1.22 method patterns) and stateless apart
// from the job store, so one process can serve many concurrent trace
// streams in O(block) memory each.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"vbr/internal/core"
	"vbr/internal/genpool"
	"vbr/internal/obs"
)

// Config parameterizes a Server. Zero values select defaults.
type Config struct {
	// MaxFrames caps the per-request trace length (default 4·2²⁰); a
	// cap keeps one greedy client from pinning a worker for hours.
	MaxFrames int
	// SimWorkers is the number of concurrent simulation-job workers
	// (default 2).
	SimWorkers int
	// Pool is the process-wide generation cache shared by every trace
	// request and simulation job: requests repeating a Hurst parameter
	// or marginal reuse the coefficient schedules, eigenvalue vectors
	// and mapping tables of earlier requests. When nil, New installs a
	// genpool.New(0) default; output never depends on cache state.
	Pool *genpool.Pool
	// WorkerID names this process inside a fleet. When non-empty every
	// response carries it in an X-Vbr-Worker header and job IDs gain a
	// "w<id>-" prefix, so the fleet proxy can route /v1/jobs polls back
	// to the worker that owns the job.
	WorkerID string
	// WriteBudget bounds how long a non-streaming response (simulate
	// accept, job poll, healthz) may take to reach the client; past it
	// the connection is cut so a slow reader cannot pin a handler
	// goroutine. Zero disables the budget. /v1/trace is exempt: a
	// legitimate stream is as slow as its client.
	WriteBudget time.Duration
	// JobQueueDepth bounds accepted-but-unfinished simulation jobs
	// (default 256); past it POST /v1/simulate sheds with 503.
	JobQueueDepth int
}

// PaperDefault is the Table 4 Star Wars model used when a request
// names no parameters. Exported so the fleet proxy resolves absent
// model parameters to the same genpool identity the workers do before
// consistent-hashing them.
var PaperDefault = core.Model{MuGamma: 27791, SigmaGamma: 6254, TailSlope: 12, Hurst: 0.8}

// Server owns the handlers and the simulation job queue. Its lifetime
// is bound to the context given to New: when that context fires, job
// workers stop and queued jobs fail with a cancellation error.
type Server struct {
	cfg      Config
	lifetime context.Context
	jobs     *jobStore
}

// New builds a server whose background work (simulation job workers)
// lives until ctx fires. The caller owns HTTP listening and shutdown;
// see cmd/vbrd.
func New(ctx context.Context, cfg Config) *Server {
	if cfg.MaxFrames == 0 {
		cfg.MaxFrames = 4 << 20
	}
	if cfg.SimWorkers == 0 {
		cfg.SimWorkers = 2
	}
	if cfg.Pool == nil {
		cfg.Pool = genpool.New(0)
	}
	if cfg.JobQueueDepth == 0 {
		cfg.JobQueueDepth = defaultJobQueueDepth
	}
	jobPrefix := ""
	if cfg.WorkerID != "" {
		jobPrefix = "w" + cfg.WorkerID + "-"
	}
	s := &Server{
		cfg:      cfg,
		lifetime: ctx,
		jobs:     newJobStore(jobPrefix, cfg.JobQueueDepth),
	}
	for i := 0; i < cfg.SimWorkers; i++ {
		go s.simWorker(ctx)
	}
	return s
}

// Handler returns the route table. Paths use Go 1.22 method patterns,
// so stray methods get 405 from the mux itself. Non-streaming routes
// run under the write budget; /v1/trace does not (a stream is as slow
// as its client, and the drain deadline already bounds its lifetime).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/trace", s.handleTrace)
	mux.HandleFunc("POST /v1/simulate", s.budgeted(s.handleSimulate))
	mux.HandleFunc("GET /v1/jobs/{id}", s.budgeted(s.handleJob))
	mux.HandleFunc("GET /healthz", s.budgeted(s.handleHealthz))
	if s.cfg.WorkerID == "" {
		return mux
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(WorkerHeader, s.cfg.WorkerID)
		mux.ServeHTTP(w, r)
	})
}

// WorkerHeader carries Config.WorkerID on every fleet-member response.
const WorkerHeader = "X-Vbr-Worker"

// budgeted applies Config.WriteBudget to a non-streaming handler by
// arming a connection write deadline before the body is produced; a
// client that cannot absorb a small JSON response inside the budget
// loses the connection instead of pinning the goroutine.
func (s *Server) budgeted(h http.HandlerFunc) http.HandlerFunc {
	if s.cfg.WriteBudget <= 0 {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		rc := http.NewResponseController(w)
		//vbrlint:ignore determinism write deadlines are transport plumbing; they never influence generated or simulated values
		deadline := time.Now().Add(s.cfg.WriteBudget)
		// Recorders and exotic writers may not support deadlines; the
		// budget is then best-effort rather than a request failure.
		_ = rc.SetWriteDeadline(deadline)
		h(w, r)
	}
}

// apiError is the uniform JSON error body.
type apiError struct {
	Error string `json:"error"`
}

// writeError sends a JSON error with the given status.
func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(apiError{Error: err.Error()})
}

// writeJSON sends v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// Health statuses. Degraded is still HTTP 200 — the worker serves —
// but warns a supervisor that the simulate buffer is nearly full, so
// load can be steered away before the worker starts shedding.
const (
	HealthOK       = "ok"
	HealthDegraded = "degraded"
)

// degradedOccupancy is the simulate-buffer fill fraction at which
// /healthz flips from "ok" to "degraded".
const degradedOccupancy = 0.9

// healthStatus is the /healthz body.
type healthStatus struct {
	Status string      `json:"status"` // ok | degraded
	Worker string      `json:"worker,omitempty"`
	Jobs   jobStats    `json:"jobs"`
	Queue  queueStatus `json:"queue"`
}

// queueStatus reports simulate job-buffer occupancy.
type queueStatus struct {
	Len       int     `json:"len"`
	Cap       int     `json:"cap"`
	Occupancy float64 `json:"occupancy"`
}

// handleHealthz reports liveness plus job-queue depth; it performs no
// generation and so takes no request context anywhere.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	obs.From(r.Context()).Count("server.healthz.requests", 1)
	qlen, qcap := s.jobs.occupancy()
	h := healthStatus{
		Status: HealthOK,
		Worker: s.cfg.WorkerID,
		Jobs:   s.jobs.stats(),
		Queue:  queueStatus{Len: qlen, Cap: qcap, Occupancy: float64(qlen) / float64(qcap)},
	}
	if h.Queue.Occupancy >= degradedOccupancy {
		h.Status = HealthDegraded
	}
	writeJSON(w, http.StatusOK, h)
}

// parseModel reads μΓ/σΓ/m_T/H overrides from query parameters on top
// of PaperDefault.
func (s *Server) parseModel(get func(string) string) (core.Model, error) {
	m := PaperDefault
	for _, p := range []struct {
		name string
		dst  *float64
	}{
		{"mean", &m.MuGamma},
		{"std", &m.SigmaGamma},
		{"tail", &m.TailSlope},
		{"hurst", &m.Hurst},
	} {
		if v := get(p.name); v != "" {
			f, err := parseFloat(v)
			if err != nil {
				return core.Model{}, fmt.Errorf("server: parameter %s: %w", p.name, err)
			}
			*p.dst = f
		}
	}
	if err := m.Validate(); err != nil {
		return core.Model{}, err
	}
	return m, nil
}
