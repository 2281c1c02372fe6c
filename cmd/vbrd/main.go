// Command vbrd is the trace-serving daemon: it exposes the §4 generator
// and the §5 queueing simulator over HTTP, streaming frame-size traces
// block by block in bounded memory instead of materializing them.
//
// Endpoints:
//
//	GET  /v1/trace     stream a synthetic trace (chunked NDJSON or
//	                   raw little-endian float64; parameters n, mean,
//	                   std, tail, hurst, seed, backend, format, or
//	                   model, n, seed, format for a zoo model; any
//	                   other parameter is refused with 400)
//	POST /v1/simulate  enqueue an async queueing-simulation job
//	GET  /v1/jobs/{id} poll a job
//	GET  /healthz      liveness + job-queue depth
//
// The obs registry is served on the shared -debug-addr listener
// (expvar + pprof). On SIGINT/SIGTERM the daemon stops accepting,
// lets in-flight streams finish within -drain, then exits 0.
//
// Examples:
//
//	vbrd -addr :8080
//	curl 'http://localhost:8080/v1/trace?n=171000&seed=7' | wc -l
//	curl -X POST -d '{"n":10000,"capacity_bps":6e6,"buffer_bytes":250000}' \
//	     http://localhost:8080/v1/simulate
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"vbr/internal/cli"
	"vbr/internal/genpool"
	"vbr/internal/server"
)

func main() {
	os.Exit(cli.Main("vbrd", run))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) (retErr error) {
	fs := flag.NewFlagSet("vbrd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
		drain      = fs.Duration("drain", 30*time.Second, "graceful-drain budget for in-flight requests on shutdown")
		maxFrames  = fs.Int("max-frames", 4<<20, "per-request trace length cap")
		simWorkers = fs.Int("sim-workers", 2, "concurrent simulation-job workers")
		poolBytes  = fs.Int64("pool-bytes", genpool.DefaultMaxBytes, "generation-cache budget in bytes (Hosking coefficients, eigenvalues, mapping tables shared across requests); values <= 0 select the default")
		readHeader = fs.Duration("read-header-timeout", 10*time.Second, "budget for a client to finish sending request headers; slow-header (slowloris) connections are cut past it")
		idle       = fs.Duration("idle-timeout", 120*time.Second, "keep-alive idle budget before an inactive connection is closed")
		writeBud   = fs.Duration("write-budget", 30*time.Second, "write budget for non-streaming responses (simulate accept, job polls, healthz); 0 disables; /v1/trace streams are exempt")
		workerID   = fs.String("worker-id", "", "fleet worker identity; stamps X-Vbr-Worker on responses and prefixes job IDs (empty outside a fleet)")
		jobQueue   = fs.Int("job-queue", 0, "accepted-but-unfinished simulation job bound before 503 shedding; 0 selects the default (256)")
	)
	obsFlags := cli.RegisterObsFlags(fs)
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return cli.Usagef("vbrd takes no positional arguments, got %q", fs.Args())
	}

	obsCtx, finish, err := obsFlags.Observe(ctx, stderr)
	if err != nil {
		return err
	}
	defer cli.FinishObs(finish, &retErr)

	// The serving base context carries the obs scope but NOT the signal
	// cancellation: a SIGTERM must drain in-flight streams gracefully,
	// not sever every response mid-body. The hard stop below is what
	// bounds how long that grace lasts.
	base := context.WithoutCancel(obsCtx)
	srv := server.New(base, server.Config{
		MaxFrames:     *maxFrames,
		SimWorkers:    *simWorkers,
		Pool:          genpool.New(*poolBytes),
		WorkerID:      *workerID,
		WriteBudget:   *writeBud,
		JobQueueDepth: *jobQueue,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listening on %s: %w", *addr, err)
	}
	// ReadHeaderTimeout and IdleTimeout bound the two ways a client can
	// hold a connection without a request in flight: trickling headers
	// (slowloris) and parking a keep-alive. There is deliberately no
	// WriteTimeout — it would sever legitimate long trace streams; the
	// non-streaming endpoints get their write budget per-handler via
	// server.Config.WriteBudget instead.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		BaseContext:       func(net.Listener) context.Context { return base },
		ReadHeaderTimeout: *readHeader,
		IdleTimeout:       *idle,
	}
	cli.AnnounceListen(stdout, "vbrd", ln.Addr().String())

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fmt.Errorf("serving on %s: %w", ln.Addr(), err)
	case <-ctx.Done():
	}

	// Drain: stop accepting, give in-flight requests the -drain budget,
	// then cut the stragglers. Shutdown's context deadline is that
	// budget; Close afterwards force-closes whatever remained.
	fmt.Fprintf(stderr, "vbrd draining (budget %s)\n", *drain)
	drainCtx, cancel := context.WithTimeout(base, *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		if closeErr := httpSrv.Close(); closeErr != nil {
			fmt.Fprintf(stderr, "warning: force close: %v\n", closeErr)
		}
		fmt.Fprintf(stderr, "vbrd drained with stragglers: %v\n", err)
		<-serveErr // Serve has returned ErrServerClosed by now
		return nil
	}
	<-serveErr
	if errors.Is(ctx.Err(), context.Canceled) {
		fmt.Fprintln(stdout, "vbrd drained cleanly")
	}
	return nil
}
