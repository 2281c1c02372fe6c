package vbr

import (
	"bufio"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// metricsSnapshot mirrors the JSON shape written by -metrics-json (and
// served under "vbr" on /debug/vars) without importing internal/obs, so
// the smoke tests pin the serialized contract rather than the Go types.
type metricsSnapshot struct {
	Counters   map[string]int64   `json:"counters"`
	Gauges     map[string]float64 `json:"gauges"`
	Histograms map[string]struct {
		Count int64   `json:"count"`
		Sum   float64 `json:"sum"`
	} `json:"histograms"`
}

func readMetrics(t *testing.T, path string) metricsSnapshot {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("metrics file not written: %v", err)
	}
	var snap metricsSnapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("metrics file is not valid JSON: %v\n%s", err, b)
	}
	return snap
}

// TestCLIObsGenProgressAndMetrics is the acceptance run for the
// generator: a Hosking generation with -progress and -metrics-json must
// emit progress lines and a snapshot with nonzero point and span
// metrics.
func TestCLIObsGenProgressAndMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	metrics := filepath.Join(t.TempDir(), "m.json")
	out := runCmd(t, "vbrgen", "-n", "8000", "-backend", "hosking", "-seed", "42",
		"-progress", "-metrics-json", metrics)
	// The final event always clears the rate limiter, so the 100% line is
	// deterministic even on a fast machine.
	if !strings.Contains(out, "progress fgn.hosking: 8000/8000 (100.0%)") {
		t.Errorf("final progress line missing:\n%s", out)
	}

	snap := readMetrics(t, metrics)
	if got := snap.Counters["fgn.hosking.points"]; got != 8000 {
		t.Errorf("fgn.hosking.points = %d, want 8000", got)
	}
	for _, h := range []string{"proc.run.seconds", "fgn.hosking.seconds"} {
		if snap.Histograms[h].Count != 1 {
			t.Errorf("histogram %s count = %d, want 1", h, snap.Histograms[h].Count)
		}
	}
}

// TestCLIObsSimMetrics checks the simulator-side counters: a Fig 17 run
// performs capacity searches over multiplexer averages, so combo and
// probe counters must come out nonzero and consistent.
func TestCLIObsSimMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	metrics := filepath.Join(t.TempDir(), "m.json")
	runCmd(t, "vbrsim", "-frames", "4000", "-fig17", "-metrics-json", metrics)

	snap := readMetrics(t, metrics)
	if got := snap.Counters["queue.combos.done"]; got <= 0 {
		t.Errorf("queue.combos.done = %d, want > 0", got)
	}
	if got := snap.Counters["queue.capacity.probes"]; got <= 0 {
		t.Errorf("queue.capacity.probes = %d, want > 0", got)
	}
	// Fig 17 searches capacity once per N ∈ {1, 20}.
	if got := snap.Counters["queue.capacity.searches"]; got != 2 {
		t.Errorf("queue.capacity.searches = %d, want 2", got)
	}
	if got := snap.Counters["queue.bytes.simulated"]; got <= 0 {
		t.Errorf("queue.bytes.simulated = %d, want > 0", got)
	}
	if snap.Histograms["proc.run.seconds"].Count != 1 {
		t.Errorf("proc.run.seconds missing: %+v", snap.Histograms)
	}
}

// TestCLIObsTraceAnalyzeLint covers the remaining binaries' metric
// plumbing with fast invocations.
func TestCLIObsTraceAnalyzeLint(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	dir := t.TempDir()

	mTrace := filepath.Join(dir, "trace.json")
	runCmd(t, "vbrtrace", "-frames", "3000", "-metrics-json", mTrace)
	snap := readMetrics(t, mTrace)
	if got := snap.Counters["trace.frames"]; got != 3000 {
		t.Errorf("vbrtrace trace.frames = %d, want 3000", got)
	}
	if snap.Histograms["trace.synth.seconds"].Count != 1 {
		t.Errorf("vbrtrace trace.synth.seconds missing: %+v", snap.Histograms)
	}

	mAnalyze := filepath.Join(dir, "analyze.json")
	runCmd(t, "vbranalyze", "-frames", "3000", "-fig11", "-metrics-json", mAnalyze)
	snap = readMetrics(t, mAnalyze)
	if got := snap.Counters["analyze.analyses"]; got != 1 {
		t.Errorf("vbranalyze analyze.analyses = %d, want 1", got)
	}
	if got := snap.Counters["trace.frames"]; got != 3000 {
		t.Errorf("vbranalyze trace.frames = %d, want 3000", got)
	}

	mLint := filepath.Join(dir, "lint.json")
	runCmd(t, "vbrlint", "-metrics-json", mLint, "./internal/errs")
	snap = readMetrics(t, mLint)
	if got := snap.Counters["lint.packages"]; got != 1 {
		t.Errorf("vbrlint lint.packages = %d, want 1", got)
	}
	if got := snap.Counters["lint.findings"]; got != 0 {
		t.Errorf("vbrlint lint.findings = %d, want 0 on a clean package", got)
	}
	if snap.Histograms["lint.run.seconds"].Count != 1 {
		t.Errorf("vbrlint lint.run.seconds missing: %+v", snap.Histograms)
	}
}

// TestCLIObsMetricsOnFailure pins two contracts at once: obs flags do
// not disturb the exit-code convention (2 for usage errors, 1 for lint
// findings), and the metrics snapshot is written even when the command
// fails.
func TestCLIObsMetricsOnFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	dir := t.TempDir()

	mExp := filepath.Join(dir, "exp.json")
	code, out := runCmdExit(t, "vbrexperiments", "-scale", "bogus", "-metrics-json", mExp)
	if code != 2 || !strings.Contains(out, "unknown scale") {
		t.Errorf("vbrexperiments usage error with obs flags: exit %d\n%s", code, out)
	}
	if snap := readMetrics(t, mExp); snap.Histograms["proc.run.seconds"].Count != 1 {
		t.Errorf("failed run did not record its run span: %+v", snap.Histograms)
	}

	mLint := filepath.Join(dir, "lint.json")
	code, out = runCmdExit(t, "vbrlint", "-metrics-json", mLint, "./internal/lint/testdata/src/floateq")
	if code != 1 {
		t.Errorf("vbrlint on fixtures with -metrics-json: exit %d, want 1\n%s", code, out)
	}
	if snap := readMetrics(t, mLint); snap.Counters["lint.findings"] <= 0 {
		t.Errorf("lint.findings = %d, want > 0 on the fixture package", snap.Counters["lint.findings"])
	}
}

// TestCLIObsDebugAddr starts a long Hosking generation with the debug
// server enabled, polls /debug/vars mid-run for live (incrementally
// flushed) counters, then interrupts the run and checks that the exit
// code stays 130 and the metrics snapshot is still written.
func TestCLIObsDebugAddr(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	dir := t.TempDir()
	metrics := filepath.Join(dir, "m.json")
	// 3M Hosking points take several seconds (about 4 s on a 2-vCPU
	// x86-64 host), so the interrupt below lands mid-run.
	cmd := exec.Command(filepath.Join(binaries(t), "vbrgen"),
		"-n", "3000000", "-backend", "hosking", "-seed", "7",
		"-debug-addr", "127.0.0.1:0", "-metrics-json", metrics)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The bound address is announced on stderr before generation starts.
	var addr string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "debug server listening on http://"); ok {
			addr = strings.TrimSuffix(rest, "/debug/vars")
			break
		}
	}
	if addr == "" {
		t.Fatalf("debug server address not announced (scanner err %v)", sc.Err())
	}
	go func() {
		// Keep draining so the child never blocks on a full stderr pipe.
		for sc.Scan() {
		}
	}()

	// Hosking counters flush every 4096 points, so a live snapshot shows
	// nonzero progress well before the 3M-point run finishes. Poll with a
	// deadline rather than sleeping a fixed time.
	var points int64
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/debug/vars")
		if err != nil {
			t.Fatalf("GET /debug/vars: %v", err)
		}
		var vars struct {
			VBR metricsSnapshot `json:"vbr"`
		}
		err = json.NewDecoder(resp.Body).Decode(&vars)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("/debug/vars is not valid JSON: %v", err)
		}
		if points = vars.VBR.Counters["fgn.hosking.points"]; points > 0 {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if points <= 0 {
		t.Error("fgn.hosking.points never became visible on /debug/vars during the run")
	}

	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err = cmd.Wait()
	var ee *exec.ExitError
	if points > 0 && err == nil {
		t.Fatal("3M-point run finished before the interrupt; raise -n if machines got faster")
	}
	if !errors.As(err, &ee) || ee.ExitCode() != 130 {
		t.Fatalf("interrupted run with obs flags: %v, want exit 130", err)
	}

	// The deferred finish still wrote the snapshot, and the partial run's
	// counters are in it.
	snap := readMetrics(t, metrics)
	if got := snap.Counters["fgn.hosking.points"]; got <= 0 {
		t.Errorf("interrupted run's metrics have fgn.hosking.points = %d, want > 0", got)
	}
	if snap.Histograms["proc.run.seconds"].Count != 1 {
		t.Errorf("interrupted run did not close its run span: %+v", snap.Histograms)
	}
}
