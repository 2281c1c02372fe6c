package server

import (
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"runtime"
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

// parseStreamConfig maps /v1/trace query parameters onto a stream
// Config. Unset parameters fall back to the server defaults; n defaults
// to the paper's 2-hour trace length (§2: 171,000 frames).
func (s *Server) parseStreamConfig(get func(string) string) (stream.Config, error) {
	model, err := s.parseModel(get)
	if err != nil {
		return stream.Config{}, err
	}
	cfg := stream.Config{Model: model, N: 171_000, Backend: DefaultBackend, Pool: s.cfg.Pool}
	for _, p := range []struct {
		name string
		dst  *int
	}{
		{"n", &cfg.N},
		{"block", &cfg.BlockSize},
		{"overlap", &cfg.Overlap},
		{"table", &cfg.TableSize},
	} {
		if v := get(p.name); v != "" {
			i, err := strconv.Atoi(v)
			if err != nil {
				return stream.Config{}, fmt.Errorf("server: parameter %s: %w", p.name, err)
			}
			*p.dst = i
		}
	}
	if v := get("seed"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return stream.Config{}, fmt.Errorf("server: parameter seed: %w", err)
		}
		cfg.Seed = seed
	}
	if v := get("backend"); v != "" {
		b, err := backend.Parse(v)
		if err != nil {
			return stream.Config{}, err
		}
		cfg.Backend = b
	}
	if cfg.N > s.cfg.MaxFrames {
		return stream.Config{}, fmt.Errorf("server: n=%d exceeds the per-request cap of %d frames", cfg.N, s.cfg.MaxFrames)
	}
	return cfg, nil
}

// probeSource is what the trace writer loop needs: block-by-block
// frames plus a final online-validation probe. The classic fARIMA
// stream and the scenario-zoo block adapter both satisfy it.
type probeSource interface {
	stream.BlockSource
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

// parseZooSource maps /v1/trace query parameters onto a scenario-zoo
// source when model= names one. Query decoding turns "+" into a
// space, so spaces in the spec are read back as the mix separator —
// model=farima*3+onoff works without percent-encoding.
func (s *Server) parseZooSource(get func(string) string, spec string) (*source.BlockAdapter, int, uint64, error) {
	n, block := 171_000, 4096
	for _, p := range []struct {
		name string
		dst  *int
	}{
		{"n", &n},
		{"block", &block},
	} {
		if v := get(p.name); v != "" {
			i, err := strconv.Atoi(v)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("server: parameter %s: %w", p.name, err)
			}
			*p.dst = i
		}
	}
	var seed uint64
	if v := get("seed"); v != "" {
		var err error
		if seed, err = strconv.ParseUint(v, 10, 64); err != nil {
			return nil, 0, 0, fmt.Errorf("server: parameter seed: %w", err)
		}
	}
	if n > s.cfg.MaxFrames {
		return nil, 0, 0, fmt.Errorf("server: n=%d exceeds the per-request cap of %d frames", n, s.cfg.MaxFrames)
	}
	src, err := source.New(spec, seed)
	if err != nil {
		return nil, 0, 0, err
	}
	ad, err := source.Blocks(src, n, block)
	if err != nil {
		return nil, 0, 0, err
	}
	return ad, n, seed, nil
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

	q := r.URL.Query()
	// Check the format before opening the source: opening can fill a
	// genpool entry or extend Hosking coefficients, and a request that is
	// refused anyway must not cost that.
	format := q.Get("format")
	if format == "" {
		format = formatNDJSON
	}
	if format != formatNDJSON && format != formatBinary {
		scope.Count("server.trace.badrequest", 1)
		writeError(w, http.StatusBadRequest, fmt.Errorf("server: unknown format %q (want %s or %s)", format, formatNDJSON, formatBinary))
		return
	}
	var (
		src  probeSource
		n    int
		seed uint64
	)
	if spec := strings.TrimSpace(strings.ReplaceAll(q.Get("model"), " ", "+")); spec != "" {
		ad, zn, zseed, err := s.parseZooSource(q.Get, spec)
		if err != nil {
			scope.Count("server.trace.badrequest", 1)
			writeError(w, http.StatusBadRequest, err)
			return
		}
		src, n, seed = ad, zn, zseed
		w.Header().Set(ModelHeader, spec)
	} else {
		cfg, err := s.parseStreamConfig(q.Get)
		if err != nil {
			scope.Count("server.trace.badrequest", 1)
			writeError(w, http.StatusBadRequest, err)
			return
		}
		st, err := stream.OpenCtx(ctx, cfg)
		if err != nil {
			scope.Count("server.trace.badrequest", 1)
			writeError(w, http.StatusBadRequest, err)
			return
		}
		src, n, seed = st, cfg.N, cfg.Seed
		// Echo the concrete engine, not the request: for ?backend=auto
		// the client learns what the policy actually picked.
		w.Header().Set(BackendHeader, st.Backend().String())
	}
	if format == formatBinary {
		w.Header().Set("Content-Type", "application/octet-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("X-Vbr-Frames", strconv.Itoa(n))
	w.Header().Set("X-Vbr-Seed", strconv.FormatUint(seed, 10))
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
