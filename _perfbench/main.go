// Command perfbench is the repository benchmark. It runs one workload
// closed-loop on loopback for a fixed time, checks every output it
// receives, and prints one JSON result line carrying the end-to-end
// metrics of BENCHMARK.json. With -trace 1 it instead runs the workload
// half untraced and half traced, probes every layer from outside,
// writes the spans it kept under -out, and prints the per-layer
// metrics. NOTES.md describes the workloads and the metrics.
//
// Run it from the repository root through its wrapper, which builds the
// benchmark and the vbrd worker from source first:
//
//	bash _perfbench/run.sh --workload serve-bin --seed 7 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"vbr/internal/obs"
)

const (
	traceFrames = 171_000 // the paper's 2-hour trace (§2), vbrd's default n
	exactFrames = 10_000  // the Hosking probe's length, the size of the BENCH files
	suiteFrames = 30_000  // the QuickScale suite trace length
	setupRounds = 3       // set-ups per run; setup_s is their median
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	vbrd     string
	out      string
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line the benchmark prints.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// opResult is one operation as its caller saw it: when it was sent,
// when its first result arrived, when it completed, and how many frames
// and payload bytes it carried. kind names its span.
type opResult struct {
	start, first, end time.Time
	frames, bytes     int64
	kind              string
	err               error
}

// workload is one benchmark workload. setup builds everything the first
// op needs; op runs op i of one caller; verify runs the cross-surface
// output checks after the measured loop; layers probes the layers and
// fills the per-layer metrics of a traced run; workerPID is the worker
// process the workload spawned, or 0.
type workload interface {
	setup(ctx context.Context) error
	callers() int
	op(ctx context.Context, caller, i int, tr *tracer) opResult
	verify(ctx context.Context) error
	layers(ctx context.Context, p *probes, traced []opResult, m metrics) error
	workerPID() int
	close()
}

var workloads = map[string]func(*env) workload{
	"serve-bin":    newServeBin,
	"fleet-ndjson": newFleetNDJSON,
}

// env is what every workload shares: the invocation and the obs
// registry whose counters the program's layers write.
type env struct {
	cfg    config
	reg    *obs.Registry
	fleets int // fleets started so far, naming their worker metrics files
}

// reqSeed is the seed of op i of one caller.
func (e *env) reqSeed(caller, i int) uint64 {
	return splitmix64(e.cfg.seed ^ splitmix64(uint64(caller)<<40|uint64(i)))
}

// fixedSeed is the seed of the request every surface must answer
// identically.
func (e *env) fixedSeed() uint64 { return splitmix64(e.cfg.seed ^ 0x5eed) }

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "serve-bin | fleet-ndjson")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed; every generated input derives from it")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&cfg.trace, "trace", 0, "0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
	fs.StringVar(&cfg.vbrd, "vbrd", "", "vbrd binary the fleet spawns as its worker")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for span dumps and worker metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := execute(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func execute(ctx context.Context, cfg config) (*result, error) {
	newWorkload, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want serve-bin or fleet-ndjson)", cfg.workload)
	}
	if !(cfg.seconds > 0) || (cfg.trace != 0 && cfg.trace != 1) {
		return nil, fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, fmt.Errorf("creating the output directory: %w", err)
	}
	e := &env{cfg: cfg, reg: obs.NewRegistry()}
	ctx = obs.With(ctx, obs.New(e.reg, nil))

	// Set up several times and keep the last, so setup_s is a median.
	var w workload
	defer func() {
		if w != nil {
			w.close()
		}
	}()
	var setups []float64
	for r := 0; r < setupRounds; r++ {
		if w != nil {
			w.close()
		}
		w = newWorkload(e)
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	d := time.Duration(cfg.seconds * float64(time.Second))
	res := &result{Metrics: metrics{}}
	if cfg.trace == 0 {
		rss := windowPeakRSS(ctx, d, func() []int { return []int{os.Getpid(), w.workerPID()} })
		ops := closedLoop(ctx, w, d, 0, nil)
		endToEnd(res.Metrics, ops, median(setups), <-rss)
		return finish(res, cfg, ops, w.verify(ctx)), nil
	}

	// Traced run: half the time untraced, half traced, so the difference
	// is the tracing overhead; then every layer is probed.
	untraced := closedLoop(ctx, w, d/2, 0, nil)
	tr := newTracer()
	traced := closedLoop(ctx, w, d/2, 1<<20, tr)
	_, untracedRate, _ := windowRates(untraced)
	_, tracedRate, _ := windowRates(traced)
	res.Metrics.set("trace.overhead", untracedRate/tracedRate-1, "ratio")
	verr := w.verify(ctx)
	if err := w.layers(ctx, newProbes(e, tr), traced, res.Metrics); err != nil {
		return nil, fmt.Errorf("%s layer probes: %w", cfg.workload, err)
	}
	counters(res.Metrics, e.reg)
	if err := tr.write(filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))); err != nil {
		return nil, err
	}
	return finish(res, cfg, append(untraced, traced...), verr), nil
}

// finish counts failures, prints the summary line and fills the result.
func finish(res *result, cfg config, ops []opResult, verr error) *result {
	var ok int
	for _, o := range ops {
		if o.err == nil {
			ok++
			continue
		}
		if res.Failed++; res.Failed <= 3 {
			fmt.Fprintf(os.Stderr, "perfbench: %s op failed: %v\n", cfg.workload, o.err)
		}
	}
	res.Attempted = len(ops)
	if verr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s output check failed: %v\n", cfg.workload, verr)
	}
	res.Correct = res.Failed == 0 && verr == nil
	fmt.Printf("perfbench %s seed=%d trace=%d: %d ops, %d failed, error_rate %.4g, percentiles over %d samples, cross-surface check %s\n",
		cfg.workload, cfg.seed, cfg.trace, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)), ok, verdict(verr))
	return res
}

func verdict(err error) string {
	if err != nil {
		return "FAILED"
	}
	return "ok"
}

// closedLoop runs w's callers for d: each caller sends its next op only
// after the previous one completed. Op indices start at base, so a
// second loop in the same run draws fresh inputs.
func closedLoop(ctx context.Context, w workload, d time.Duration, base int, tr *tracer) []opResult {
	per := make([][]opResult, w.callers())
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := base; ; i++ {
				per[c] = append(per[c], w.op(ctx, c, i, tr))
				if !time.Now().Before(deadline) || ctx.Err() != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	var ops []opResult
	for _, p := range per {
		ops = append(ops, p...)
	}
	return ops
}

// endToEnd fills the end-to-end metrics from the ops of one untraced
// loop. Failed ops count toward error_rate only.
func endToEnd(m metrics, ops []opResult, setupS, rssMB float64) {
	var lat, ttfb []float64
	for _, o := range ops {
		if o.err == nil {
			lat = append(lat, ms(o.end.Sub(o.start)))
			ttfb = append(ttfb, ms(o.first.Sub(o.start)))
		}
	}
	opsRate, frameRate, byteRate := windowRates(ops)
	m.set("setup_s", setupS, "s")
	m.set("ops_per_s", opsRate, "1/s")
	m.set("frames_per_s", frameRate, "1/s")
	m.set("mb_per_s", byteRate/1e6, "MB/s")
	m.set("ttfb_p50_ms", quantile(ttfb, 0.5), "ms")
	m.set("ttfb_p90_ms", quantile(ttfb, 0.9), "ms")
	m.set("latency_p50_ms", quantile(lat, 0.5), "ms")
	m.set("latency_p90_ms", quantile(lat, 0.9), "ms")
	m.set("peak_rss_mb", rssMB, "MB")
}

// rateWindows is how many equal windows the measured interval is cut
// into for the throughput metrics.
const rateWindows = 5

// windowRates returns the successful ops, frames and bytes per second
// of the median window. Each op's work is spread evenly over its own
// duration, so an op straddling two windows counts in both. A burst of
// outside load that slows one window moves the median less than it
// moves the whole run's total.
func windowRates(ops []opResult) (opsRate, frameRate, byteRate float64) {
	var first, last time.Time
	for _, o := range ops {
		if o.err != nil {
			continue
		}
		if first.IsZero() || o.start.Before(first) {
			first = o.start
		}
		if o.end.After(last) {
			last = o.end
		}
	}
	width := last.Sub(first) / rateWindows
	if width <= 0 {
		return 0, 0, 0
	}
	var n, frames, bytes [rateWindows]float64
	for _, o := range ops {
		dur := float64(o.end.Sub(o.start))
		if o.err != nil || dur <= 0 {
			continue
		}
		for w := range n {
			from, to := first.Add(time.Duration(w)*width), first.Add(time.Duration(w+1)*width)
			if o.start.After(from) {
				from = o.start
			}
			if o.end.Before(to) {
				to = o.end
			}
			if !to.After(from) {
				continue
			}
			share := float64(to.Sub(from)) / dur
			n[w] += share
			frames[w] += share * float64(o.frames)
			bytes[w] += share * float64(o.bytes)
		}
	}
	s := width.Seconds()
	return median(n[:]) / s, median(frames[:]) / s, median(bytes[:]) / s
}

// counters reports the obs counters the program's layers kept on the
// benchmark's scope, added to whatever a workload read from its worker.
func counters(m metrics, reg *obs.Registry) {
	failovers := float64(reg.Counter("fleet.proxy.trace.failovers").Value())
	m.set("fleet.failovers", failovers, "count")
	m.set("fleet.proxy.trace.failovers", failovers, "count")
	m.set("server.trace.aborted", m["server.trace.aborted"].Value+float64(reg.Counter("server.trace.aborted").Value()), "count")
}

// coverage is Σ attributed layer time ÷ Σ end-to-end time over the
// successful ops; attributed returns nanoseconds.
func coverage(ops []opResult, attributed func(opResult) float64) float64 {
	var a, e float64
	for _, o := range ops {
		if o.err == nil {
			a += attributed(o)
			e += float64(o.end.Sub(o.start))
		}
	}
	if e == 0 {
		return 0
	}
	return a / e
}

// quantile is the nearest-rank q-quantile of xs (0 when xs is empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// windowPeakRSS measures, over d, the peak resident set size of the
// processes pids returns, summed, in MB: the median over rateWindows
// equal windows of each window's peak. At the end of a window it reads
// every process's VmHWM and resets it (clear_refs 5), so a transient
// spike moves one window, not the run's figure. Where the reset is not
// permitted the windows see the running peak instead.
func windowPeakRSS(ctx context.Context, d time.Duration, pids func() []int) <-chan float64 {
	out := make(chan float64, 1)
	go func() {
		var peaks []float64
		read := func() float64 {
			var kb int64
			for _, pid := range pids() {
				if pid > 0 {
					kb += vmHWMKB(pid)
					_ = os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
				}
			}
			return float64(kb) / 1024
		}
		read()
		t := time.NewTicker(d / rateWindows)
		defer t.Stop()
		for len(peaks) < rateWindows && ctx.Err() == nil {
			select {
			case <-ctx.Done():
			case <-t.C:
				peaks = append(peaks, read())
			}
		}
		out <- median(peaks)
	}()
	return out
}

// vmHWMKB reads a process's peak resident set size (VmHWM) in KiB, or 0
// when /proc does not have it.
func vmHWMKB(pid int) int64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}
