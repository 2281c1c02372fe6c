package server

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"vbr/internal/backend"
	"vbr/internal/ftoa"
	"vbr/internal/obs"
	"vbr/internal/source"
	"vbr/internal/stream"
)

// Trace wire formats.
const (
	formatNDJSON = "ndjson" // one JSON number per line
	formatBinary = "bin"    // little-endian float64 frames
)

// Trailer names carrying the stream's final validation probe: the
// calibrated MAVAR Ĥ with its ±1.96σ half-width, and the classical
// variance–time Ĥ for comparison.
const (
	trailerHMavar    = "X-Vbr-Hhat-Mavar"
	trailerHMavarErr = "X-Vbr-Hhat-Mavar-Err"
	trailerHVT       = "X-Vbr-Hhat-Vt"
)

// parseFloat is strconv.ParseFloat with NaN/Inf rejected: wire
// parameters must be finite.
func parseFloat(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid number %q: %w", s, err)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("number %q must be finite", s)
	}
	return f, nil
}

// probeSource is what the trace writer loop needs: block-by-block
// frames plus a final online-validation probe. The classic fARIMA
// stream and the scenario-zoo block adapter both satisfy it.
type probeSource interface {
	stream.BlockSource
	Len() int
	Probe() stream.Probe
}

var (
	_ probeSource = (*stream.Stream)(nil)
	_ probeSource = (*source.BlockAdapter)(nil)
)

// ModelHeader names the zoo model serving a /v1/trace response when
// the request carried a model= parameter.
const ModelHeader = "X-Vbr-Model"

// BackendHeader echoes the concrete Gaussian backend behind a classic
// /v1/trace response — the resolved engine, so ?backend=auto reports
// what Auto picked rather than "auto".
const BackendHeader = "X-Vbr-Backend"

// WireChunkBytes sizes the buffer between a trace stream and its
// socket: the trace writer's encode buffer here and the fleet proxy's
// relay buffer. A default 4,096-frame binary block is one 32 KiB write
// per flush. A smaller buffer splits each flushed block into several
// wire chunks, and each chunk costs a wakeup and syscalls at the
// worker, the proxy and the client, paid also by the other streams
// sharing their processors.
const WireChunkBytes = 32 << 10

// maxNDJSONFrame is the longest NDJSON line a frame can encode to: the
// shortest round-trip form of a float64 takes at most 24 bytes
// (-2.2250738585072014e-308), plus the newline. ftoa's
// TestAppendShortestCorpus and FuzzAppendShortest pin the 24.
const maxNDJSONFrame = 25

// DefaultBackend is the engine a request without a backend= parameter
// gets. Exported so the fleet proxy hashes absent parameters to the
// same routing key the workers' own default produces.
const DefaultBackend = backend.DaviesHarte

// streamReads and zooReads list the parameters each /v1/trace path
// reads: the §4 stream's and a scenario-zoo model's. Anything else is
// refused by name, so a typo such as hurts=0.95 cannot be served
// silently at the default H.
var (
	streamReads = []string{"n", "seed", "backend", "mean", "std", "tail", "hurst", "format"}
	zooReads    = []string{"model", "n", "seed", "format"}
)

// checkReads refuses a query that names a parameter outside reads,
// naming the first such parameter in sorted order.
func checkReads(q url.Values, reads []string) error {
	var unread []string
	for name := range q {
		if !slices.Contains(reads, name) {
			unread = append(unread, name)
		}
	}
	if len(unread) == 0 {
		return nil
	}
	slices.Sort(unread)
	return fmt.Errorf("server: unknown parameter %q (this path reads %s)", unread[0], strings.Join(reads, ", "))
}

// openTrace checks a /v1/trace query and opens the source it names: a
// scenario-zoo model when model= is set, the §4 fARIMA stream
// otherwise, n frames of it (default: the paper's 2-hour trace, §2:
// 171,000 frames) in the returned wire format. The trace is a function
// of its model, n, seed and (for the stream) backend; a parameter the
// path does not read is refused by name. Every check runs before
// anything is opened: opening can fill a genpool entry or extend
// Hosking coefficients, and a request that is refused anyway must not
// cost that. On success the headers that identify the trace are set
// on h.
func (s *Server) openTrace(ctx context.Context, q url.Values, h http.Header) (src probeSource, format string, err error) {
	format = cmp.Or(q.Get("format"), formatNDJSON)
	if format != formatNDJSON && format != formatBinary {
		return nil, "", fmt.Errorf("server: unknown format %q (want %s or %s)", format, formatNDJSON, formatBinary)
	}
	// Query decoding turns "+" into a space, so spaces in the spec are
	// read back as the mix separator: model=farima*3+onoff works
	// without percent-encoding.
	spec := strings.TrimSpace(strings.ReplaceAll(q.Get("model"), " ", "+"))
	reads := streamReads
	if spec != "" {
		reads = zooReads
	}
	if err := checkReads(q, reads); err != nil {
		return nil, "", err
	}
	n, seed := 171_000, uint64(0)
	if v := q.Get("n"); v != "" {
		if n, err = strconv.Atoi(v); err != nil {
			return nil, "", fmt.Errorf("server: parameter n: %w", err)
		}
	}
	if v := q.Get("seed"); v != "" {
		if seed, err = strconv.ParseUint(v, 10, 64); err != nil {
			return nil, "", fmt.Errorf("server: parameter seed: %w", err)
		}
	}
	if n > s.cfg.MaxFrames {
		return nil, "", fmt.Errorf("server: n=%d exceeds the per-request cap of %d frames", n, s.cfg.MaxFrames)
	}
	if spec != "" {
		zs, err := source.New(spec, seed)
		if err != nil {
			return nil, "", err
		}
		if src, err = source.Blocks(zs, n); err != nil {
			return nil, "", err
		}
		h.Set(ModelHeader, spec)
	} else {
		model, err := ParseModel(q.Get)
		if err != nil {
			return nil, "", err
		}
		b := DefaultBackend
		if v := q.Get("backend"); v != "" {
			if b, err = backend.Parse(v); err != nil {
				return nil, "", err
			}
		}
		st, err := stream.OpenCtx(ctx, stream.Config{Model: model, N: n, Seed: seed, Backend: b, Pool: s.cfg.Pool})
		if err != nil {
			return nil, "", err
		}
		// Echo the concrete engine, not the request: for ?backend=auto
		// the client learns what the policy actually picked.
		h.Set(BackendHeader, st.Backend().String())
		src = st
	}
	h.Set("X-Vbr-Frames", strconv.Itoa(n))
	h.Set("X-Vbr-Seed", strconv.FormatUint(seed, 10))
	return src, format, nil
}

// handleTrace streams a synthetic trace as chunked NDJSON (default) or
// raw little-endian float64 frames. The default path serves the §4
// fARIMA stream; model= routes through the scenario-zoo registry
// instead. Frames are produced block by block from a BlockSource and
// flushed per block, so memory stays O(block) regardless of n, and a
// slow or vanished client is detected through r.Context() —
// generation stops instead of racing ahead of the socket.
//
//vbrlint:hotpath
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	scope := obs.From(ctx)
	scope.Count("server.trace.requests", 1)
	defer scope.Span("server.trace")()

	src, format, err := s.openTrace(ctx, r.URL.Query(), w.Header())
	if err != nil {
		scope.Count("server.trace.badrequest", 1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	n := src.Len()
	if format == formatBinary {
		w.Header().Set("Content-Type", "application/octet-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	// The stream validates itself online; once the last block is out the
	// final monitor probe travels back as HTTP trailers (headers are long
	// gone by then). Ĥ is the calibrated MAVAR estimate with its 95%
	// half-width; clients that ignore trailers lose nothing else.
	w.Header().Set("Trailer", trailerHMavar+", "+trailerHMavarErr+", "+trailerHVT)

	flusher, _ := w.(http.Flusher)
	// Each block is encoded into one reused buffer of WireChunkBytes,
	// written when the next frame might not fit and at the block's end,
	// so a default 4,096-frame binary block leaves as one 32 KiB write.
	maxFrame := maxNDJSONFrame
	if format == formatBinary {
		maxFrame = 8
	}
	buf := make([]byte, 0, WireChunkBytes)
	for {
		blk, err := src.Next(ctx)
		if err != nil {
			if src.Pos() >= n {
				break // io.EOF: the full trace went out
			}
			// Mid-stream failure: the client went away, the drain
			// deadline fired, or generation broke. Headers are long
			// gone, so the only honest signal is cutting the body short.
			scope.Count("server.trace.aborted", 1)
			return
		}
		for len(blk) > 0 {
			k := min(len(blk), (WireChunkBytes-len(buf))/maxFrame) // frames that surely fit
			if format == formatBinary {
				for _, f := range blk[:k] {
					buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
				}
			} else {
				for _, f := range blk[:k] {
					buf = ftoa.AppendShortest(buf, f)
					buf = append(buf, '\n')
				}
			}
			blk = blk[k:]
			if len(blk) == 0 || len(buf)+maxFrame > WireChunkBytes {
				if _, err := w.Write(buf); err != nil {
					scope.Count("server.trace.aborted", 1)
					return
				}
				buf = buf[:0]
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		// Yield once per block. Chunk draws allocate nothing, so a busy
		// stream would otherwise keep its processor until Go's 10 ms
		// preemption tick, and a new request's first byte would wait
		// for that tick behind it.
		runtime.Gosched()
	}
	p := src.Probe()
	if !math.IsNaN(p.HMavar) {
		w.Header().Set(trailerHMavar, strconv.FormatFloat(p.HMavar, 'g', -1, 64))
	}
	if !math.IsNaN(p.HMavarErr) {
		w.Header().Set(trailerHMavarErr, strconv.FormatFloat(p.HMavarErr, 'g', -1, 64))
	}
	if !math.IsNaN(p.H) {
		w.Header().Set(trailerHVT, strconv.FormatFloat(p.H, 'g', -1, 64))
	}
	scope.Count("server.trace.completed", 1)
	scope.Count("server.trace.frames", int64(n))
}
