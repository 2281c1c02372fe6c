package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"vbr/internal/core"
	"vbr/internal/obs"
	"vbr/internal/server"
)

// ProxyConfig parameterizes the fleet front door. Zero values select
// defaults.
type ProxyConfig struct {
	// MaxAttempts bounds how many ring nodes one trace request may
	// visit (default 3).
	MaxAttempts int
	// PerTryTimeout bounds each attempt's dial plus response headers
	// (default 5s). It deliberately does not cover the body: a stream
	// is as long as the client is slow.
	PerTryTimeout time.Duration
	// RetryAfter is the back-off hint sent when no worker is routable
	// (default 1s — roughly one restart backoff step).
	RetryAfter time.Duration
	// MaxSimulateBody caps the buffered /v1/simulate body (default
	// 64 MiB, matching the worker's own bound).
	MaxSimulateBody int64
}

func (c ProxyConfig) withDefaults() ProxyConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.PerTryTimeout <= 0 {
		c.PerTryTimeout = 5 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxSimulateBody <= 0 {
		c.MaxSimulateBody = 64 << 20
	}
	return c
}

// Proxy is the fleet's front door: it consistent-hashes each request's
// model-parameter identity onto the worker ring (keeping every
// worker's genpool hot for its shard), fails idempotent trace streams
// over to the next ring node when a worker dies mid-request, and
// degrades to partial capacity instead of failing closed.
type Proxy struct {
	sup    *Supervisor
	cfg    ProxyConfig
	client *http.Client
}

// NewProxy builds the front door over a supervisor's fleet.
func NewProxy(sup *Supervisor, cfg ProxyConfig) *Proxy {
	cfg = cfg.withDefaults()
	return &Proxy{
		sup: sup,
		cfg: cfg,
		client: &http.Client{Transport: &http.Transport{
			DialContext:           (&net.Dialer{Timeout: cfg.PerTryTimeout}).DialContext,
			ResponseHeaderTimeout: cfg.PerTryTimeout,
			MaxIdleConnsPerHost:   64,
		}},
	}
}

// Handler returns the fleet route table.
func (p *Proxy) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/trace", p.handleTrace)
	mux.HandleFunc("POST /v1/simulate", p.handleSimulate)
	mux.HandleFunc("GET /v1/jobs/{id}", p.handleJob)
	mux.HandleFunc("GET /healthz", p.handleHealthz)
	return mux
}

// writeProxyError mirrors the workers' JSON error body.
func writeProxyError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{Error: err.Error()})
}

// unavailable sheds a request for which no worker is routable: 503
// with a Retry-After hint, so clients back off for about one restart
// backoff step instead of spinning.
func (p *Proxy) unavailable(w http.ResponseWriter, scope *obs.Scope, err error) {
	scope.Count("fleet.proxy.unavailable", 1)
	secs := int(p.cfg.RetryAfter.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeProxyError(w, http.StatusServiceUnavailable, err)
}

// requestModel resolves a request's model parameters against
// server.PaperDefault, as the workers do, so the proxy and the workers
// agree on a request's cache identity; malformed values are tolerated
// (the worker will reject them with its own 400 — the proxy only needs
// a routing key).
func (p *Proxy) requestModel(get func(string) string) core.Model {
	m := server.PaperDefault
	for _, f := range []struct {
		name string
		dst  *float64
	}{
		{"mean", &m.MuGamma},
		{"std", &m.SigmaGamma},
		{"tail", &m.TailSlope},
		{"hurst", &m.Hurst},
	} {
		if v := get(f.name); v != "" {
			if x, err := strconv.ParseFloat(v, 64); err == nil {
				*f.dst = x
			}
		}
	}
	return m
}

// errClientWrite marks a relay failure on the client side of the
// proxy; there is no point failing over when the requester is gone.
var errClientWrite = errors.New("fleet: client write failed")

// handleTrace proxies GET /v1/trace with retry-on-failover. The
// request is idempotent and its byte stream is a pure function of its
// parameters (everything is seeded), so when a worker dies mid-stream
// the proxy re-issues the request on the next ring node and discards
// the prefix it already delivered — the client sees one uninterrupted,
// bitwise-correct stream. Completeness is verified against the
// X-Vbr-Frames header, because a worker that aborts generation ends
// its chunked body cleanly; a clean EOF alone does not prove the trace
// arrived whole.
func (p *Proxy) handleTrace(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	scope := obs.From(ctx)
	scope.Count("fleet.proxy.trace.requests", 1)

	// Scenario-zoo requests route by their spec string; classic fARIMA
	// requests by their resolved model parameters plus the backend —
	// a worker's genpool caches Hosking coefficients, Davies–Harte
	// eigenvalues and Paxson spectra under separate keys, so the engine
	// is part of the cache identity. Either way equal identities hash
	// to the same worker. The spec normalization must match the
	// worker's (query decoding turns "+" into a space).
	q := r.URL.Query()
	var key uint64
	if spec := strings.TrimSpace(strings.ReplaceAll(q.Get("model"), " ", "+")); spec != "" {
		key = SpecKey(spec)
	} else {
		key = TraceKey(p.requestModel(q.Get), q.Get("backend"))
	}
	cands := p.sup.Candidates(key)
	if len(cands) == 0 {
		p.unavailable(w, scope, errors.New("fleet: no worker available for trace"))
		return
	}

	format := q.Get("format")
	if format == "" {
		format = "ndjson"
	}
	flusher, _ := w.(http.Flusher)
	var (
		sent         int64 // bytes already forwarded to the client
		lines        int64 // newlines forwarded (ndjson completeness)
		headerSent   bool
		expectFrames = -1
		lastErr      error
	)
	for attempt, wk := range cands {
		if attempt >= p.cfg.MaxAttempts || ctx.Err() != nil {
			break
		}
		if attempt > 0 {
			scope.Count("fleet.proxy.trace.failovers", 1)
		}
		out, err := http.NewRequestWithContext(ctx, http.MethodGet, wk.BaseURL()+r.URL.RequestURI(), nil)
		if err != nil {
			lastErr = err
			break
		}
		resp, err := p.client.Do(out)
		if err != nil {
			p.sup.ReportFailure(wk.ID)
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			// 4xx is the request's own fault: the first worker's verdict
			// is final. 5xx means this worker cannot serve it right now;
			// the next ring node may.
			if resp.StatusCode < 500 && !headerSent {
				p.passthrough(w, resp)
				return
			}
			lastErr = fmt.Errorf("fleet: worker %d answered HTTP %d", wk.ID, resp.StatusCode)
			drainClose(resp)
			continue
		}

		wk.streams.Add(1)
		scope.SetGauge(fmt.Sprintf("fleet.worker.%d.streams", wk.ID), float64(wk.streams.Load()))
		n, nl, err := p.relay(w, resp, &headerSent, &expectFrames, sent, flusher)
		wk.streams.Add(-1)
		scope.SetGauge(fmt.Sprintf("fleet.worker.%d.streams", wk.ID), float64(wk.streams.Load()))
		resp.Body.Close()
		sent += n
		lines += nl

		if err == nil && p.traceComplete(format, sent, lines, expectFrames) {
			scope.Count("fleet.proxy.trace.completed", 1)
			return
		}
		if errors.Is(err, errClientWrite) || ctx.Err() != nil {
			scope.Count("fleet.proxy.trace.aborted", 1)
			return
		}
		// Upstream failure (transport error, or a cleanly-terminated but
		// short body): the worker is in trouble; fail over.
		p.sup.ReportFailure(wk.ID)
		if err != nil {
			lastErr = err
		} else {
			lastErr = fmt.Errorf("fleet: worker %d delivered a truncated trace", wk.ID)
		}
	}

	if !headerSent {
		if lastErr == nil {
			lastErr = errors.New("fleet: no worker available for trace")
		}
		p.unavailable(w, scope, fmt.Errorf("fleet: trace failed after retries: %w", lastErr))
		return
	}
	// Headers (and part of the body) are out; the only honest signal
	// left is cutting the stream short.
	scope.Count("fleet.proxy.trace.aborted", 1)
}

// relay forwards one upstream 200 response body, skipping the skip
// bytes the client already holds from a previous attempt. On the first
// attempt it also copies the response headers through.
func (p *Proxy) relay(w http.ResponseWriter, resp *http.Response, headerSent *bool, expectFrames *int, skip int64, flusher http.Flusher) (forwarded, newlines int64, err error) {
	if !*headerSent {
		copyHeaders(w.Header(), resp.Header)
		if v := resp.Header.Get("X-Vbr-Frames"); v != "" {
			if n, perr := strconv.Atoi(v); perr == nil {
				*expectFrames = n
			}
		}
		w.WriteHeader(http.StatusOK)
		*headerSent = true
	}
	if skip > 0 {
		// Deterministic generation makes the replacement stream bitwise
		// identical, so the already-delivered prefix is simply dropped.
		if _, err := io.CopyN(io.Discard, resp.Body, skip); err != nil {
			return 0, 0, fmt.Errorf("fleet: re-synchronizing replacement stream: %w", err)
		}
	}
	buf := make([]byte, server.WireChunkBytes)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			wn, werr := w.Write(buf[:n])
			forwarded += int64(wn)
			newlines += int64(bytes.Count(buf[:wn], []byte{'\n'}))
			if werr != nil {
				return forwarded, newlines, fmt.Errorf("%w: %w", errClientWrite, werr)
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if errors.Is(rerr, io.EOF) {
			return forwarded, newlines, nil
		}
		if rerr != nil {
			return forwarded, newlines, fmt.Errorf("fleet: upstream read: %w", rerr)
		}
	}
}

// traceComplete verifies the full trace went out: exact byte count for
// the binary format, exact line count for NDJSON. Unknown expectations
// (no X-Vbr-Frames header) fall back to trusting the clean EOF.
func (p *Proxy) traceComplete(format string, sent, lines int64, expectFrames int) bool {
	if expectFrames < 0 {
		return true
	}
	if format == "bin" {
		return sent == int64(expectFrames)*8
	}
	return lines == int64(expectFrames)
}

// handleSimulate routes POST /v1/simulate by the body's model
// parameters. A simulate job is never replayed: once a request may
// have reached a worker, a failure comes back to the client as 502.
// Dial failures are the one exception — the request provably never
// left the proxy, so moving to the next ring node is routing, not
// replay.
func (p *Proxy) handleSimulate(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	scope := obs.From(ctx)
	scope.Count("fleet.proxy.simulate.requests", 1)

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, p.cfg.MaxSimulateBody))
	if err != nil {
		writeProxyError(w, http.StatusBadRequest, fmt.Errorf("fleet: reading simulate body: %w", err))
		return
	}
	// Best-effort key extraction; an undecodable body routes by the
	// default key and earns the worker's own 400.
	var mp struct {
		Mean  float64 `json:"mean"`
		Std   float64 `json:"std"`
		Tail  float64 `json:"tail"`
		Hurst float64 `json:"hurst"`
	}
	_ = json.Unmarshal(body, &mp)
	m := p.requestModel(func(name string) string {
		v := map[string]float64{"mean": mp.Mean, "std": mp.Std, "tail": mp.Tail, "hurst": mp.Hurst}[name]
		//vbrlint:ignore floateq a field omitted from the JSON body decodes to exactly 0; the exact compare detects "not set"
		if v == 0 {
			return ""
		}
		return strconv.FormatFloat(v, 'g', -1, 64)
	})

	cands := p.sup.Candidates(ModelKey(m))
	if len(cands) == 0 {
		p.unavailable(w, scope, errors.New("fleet: no worker available for simulate"))
		return
	}
	var lastErr error
	for attempt, wk := range cands {
		if attempt >= p.cfg.MaxAttempts || ctx.Err() != nil {
			break
		}
		out, err := http.NewRequestWithContext(ctx, http.MethodPost, wk.BaseURL()+"/v1/simulate", bytes.NewReader(body))
		if err != nil {
			lastErr = err
			break
		}
		out.Header.Set("Content-Type", "application/json")
		resp, err := p.client.Do(out)
		if err != nil {
			p.sup.ReportFailure(wk.ID)
			if !isDialError(err) {
				scope.Count("fleet.proxy.simulate.failed", 1)
				writeProxyError(w, http.StatusBadGateway, fmt.Errorf("fleet: simulate not replayed after mid-request failure: %w", err))
				return
			}
			lastErr = err
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable && attempt+1 < len(cands) && attempt+1 < p.cfg.MaxAttempts {
			// This worker is shedding; another replica may have room.
			lastErr = fmt.Errorf("fleet: worker %d is shedding load", wk.ID)
			drainClose(resp)
			continue
		}
		p.passthrough(w, resp)
		return
	}
	if lastErr == nil {
		lastErr = errors.New("fleet: no worker available for simulate")
	}
	p.unavailable(w, scope, fmt.Errorf("fleet: simulate failed: %w", lastErr))
}

// handleJob routes a job poll to the worker that owns the job, parsed
// from the id's "w<worker>-" prefix. A job on a worker that is down or
// restarting answers 503 with Retry-After — and because job state
// lives in worker memory, a job accepted before a crash may come back
// 404 after the restart; clients treat that as "resubmit".
func (p *Proxy) handleJob(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	scope := obs.From(ctx)
	scope.Count("fleet.proxy.jobs.requests", 1)

	id := r.PathValue("id")
	workerID, ok := parseJobWorker(id)
	if !ok {
		writeProxyError(w, http.StatusNotFound, fmt.Errorf("fleet: job id %q is not worker-scoped (want w<worker>-job-…)", id))
		return
	}
	wk, ok := p.sup.Worker(workerID)
	if !ok {
		writeProxyError(w, http.StatusNotFound, fmt.Errorf("fleet: job id %q names unknown worker %d", id, workerID))
		return
	}
	if !wk.breaker.Routable() || wk.BaseURL() == "" {
		secs := int(p.cfg.RetryAfter.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeProxyError(w, http.StatusServiceUnavailable, fmt.Errorf("fleet: worker %d is %s; retry the poll shortly", workerID, wk.breaker.State()))
		return
	}
	out, err := http.NewRequestWithContext(ctx, http.MethodGet, wk.BaseURL()+"/v1/jobs/"+id, nil)
	if err != nil {
		writeProxyError(w, http.StatusInternalServerError, err)
		return
	}
	resp, err := p.client.Do(out)
	if err != nil {
		p.sup.ReportFailure(wk.ID)
		writeProxyError(w, http.StatusBadGateway, fmt.Errorf("fleet: polling worker %d: %w", workerID, err))
		return
	}
	p.passthrough(w, resp)
}

// parseJobWorker extracts N from a "w<N>-..." job id.
func parseJobWorker(id string) (int, bool) {
	if !strings.HasPrefix(id, "w") {
		return 0, false
	}
	rest := id[1:]
	dash := strings.IndexByte(rest, '-')
	if dash <= 0 {
		return 0, false
	}
	n, err := strconv.Atoi(rest[:dash])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// FleetHealth is the fleet /healthz body: the aggregate verdict plus
// one row per worker.
type FleetHealth struct {
	// Status is "ok" (whole fleet healthy), "degraded" (serving at
	// reduced capacity), or "down" (no routable worker; the supervisor
	// is still restarting, so the fleet process itself stays 200).
	Status   string         `json:"status"`
	Workers  []WorkerStatus `json:"workers"`
	Restarts int64          `json:"restarts"`
}

// handleHealthz aggregates worker states. It reads supervisor memory
// only — no generation, no worker round-trips — so it stays cheap
// enough for tight poll loops.
func (p *Proxy) handleHealthz(w http.ResponseWriter, r *http.Request) {
	scope := obs.From(r.Context())
	scope.Count("fleet.healthz.requests", 1)
	snap := p.sup.Snapshot()
	routable, clean := 0, 0
	for _, ws := range snap {
		switch ws.State {
		case "healthy", "suspect":
			if ws.Addr != "" {
				routable++
			}
			if ws.State == "healthy" && !ws.Degraded {
				clean++
			}
		}
	}
	h := FleetHealth{Workers: snap, Restarts: p.sup.Restarts()}
	switch {
	case routable == 0:
		h.Status = "down"
	case clean == len(snap):
		h.Status = server.HealthOK
	default:
		h.Status = server.HealthDegraded
	}
	scope.SetGauge("fleet.workers.routable", float64(routable))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(h)
}

// passthrough copies an upstream response (status, headers, body) to
// the client unchanged.
func (p *Proxy) passthrough(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	copyHeaders(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// copyHeaders copies end-to-end headers, dropping the hop-by-hop set
// net/http manages per connection.
func copyHeaders(dst, src http.Header) {
	for k, vs := range src {
		switch k {
		case "Connection", "Keep-Alive", "Transfer-Encoding", "Upgrade":
			continue
		}
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}

// drainClose discards a bounded amount of an unwanted response body so
// the connection can be reused, then closes it.
func drainClose(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
	resp.Body.Close()
}

// isDialError reports whether err failed before the request left the
// proxy (connection refused / unreachable), which makes rerouting a
// POST safe: the worker never saw it.
func isDialError(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) && op.Op == "dial"
}
