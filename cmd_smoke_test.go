package vbr

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// The command binaries are built once into a shared temp dir and then
// exercised end to end: generation → analysis → simulation round trips
// through real files and flags.
var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

func binaries(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "vbrbin")
		if buildErr != nil {
			return
		}
		for _, cmd := range []string{"vbrtrace", "vbranalyze", "vbrgen", "vbrsim", "vbrexperiments", "vbrlint", "vbrd", "vbrload", "vbrfleet", "benchjson"} {
			out, err := exec.Command("go", "build", "-o", filepath.Join(binDir, cmd), "./cmd/"+cmd).CombinedOutput()
			if err != nil {
				buildErr = err
				buildErr = &buildError{cmd: cmd, out: string(out), err: err}
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binDir
}

// TestMain removes the shared binary directory after all tests.
func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

type buildError struct {
	cmd string
	out string
	err error
}

func (e *buildError) Error() string {
	return "building " + e.cmd + ": " + e.err.Error() + "\n" + e.out
}

func runCmd(t *testing.T, name string, args ...string) string {
	t.Helper()
	out, err := exec.Command(filepath.Join(binaries(t), name), args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v failed: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestCLITraceAnalyzeRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "t.bin")
	csvFile := filepath.Join(dir, "t.csv")

	out := runCmd(t, "vbrtrace", "-frames", "8000", "-o", traceFile, "-csv", csvFile)
	if !strings.Contains(out, "avg bandwidth") {
		t.Errorf("vbrtrace output missing summary:\n%s", out)
	}
	if fi, err := os.Stat(traceFile); err != nil || fi.Size() == 0 {
		t.Fatalf("binary trace not written: %v", err)
	}
	if fi, err := os.Stat(csvFile); err != nil || fi.Size() == 0 {
		t.Fatalf("CSV trace not written: %v", err)
	}

	out = runCmd(t, "vbranalyze", "-in", traceFile, "-table1", "-table2", "-fig11")
	for _, want := range []string{"Table 1", "Table 2", "variance-time"} {
		if !strings.Contains(out, want) {
			t.Errorf("vbranalyze output missing %q:\n%s", want, out)
		}
	}

	out = runCmd(t, "vbrsim", "-in", traceFile, "-point", "-n", "2", "-capacity", "12e6")
	if !strings.Contains(out, "P_l") {
		t.Errorf("vbrsim output missing loss report:\n%s", out)
	}
}

func TestCLIGenVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	dir := t.TempDir()
	for _, variant := range []string{"full", "gaussian", "iid"} {
		outFile := filepath.Join(dir, variant+".bin")
		out := runCmd(t, "vbrgen", "-n", "3000", "-variant", variant, "-o", outFile)
		if !strings.Contains(out, "generated 3000 frames") {
			t.Errorf("variant %s: missing summary:\n%s", variant, out)
		}
		if fi, err := os.Stat(outFile); err != nil || fi.Size() == 0 {
			t.Errorf("variant %s: trace not written", variant)
		}
	}
	// The Hosking path (the paper's algorithm) on a short series.
	out := runCmd(t, "vbrgen", "-n", "2000", "-backend", "hosking")
	if !strings.Contains(out, "variance-time H") {
		t.Errorf("hosking run missing verification:\n%s", out)
	}
	// The FFT-approximate Paxson backend and the Auto policy (which at
	// this length picks the exact engine) both run end to end.
	for _, bk := range []string{"paxson", "auto"} {
		out := runCmd(t, "vbrgen", "-n", "3000", "-backend", bk)
		if !strings.Contains(out, "generated 3000 frames") {
			t.Errorf("-backend %s run missing summary:\n%s", bk, out)
		}
	}
}

func TestCLICodecModes(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	out := runCmd(t, "vbrtrace", "-mode", "codec", "-frames", "120", "-width", "64", "-height", "64", "-train", "8")
	if !strings.Contains(out, "mean/frame") {
		t.Errorf("codec mode missing summary:\n%s", out)
	}
	out = runCmd(t, "vbrtrace", "-mode", "interframe", "-frames", "120", "-width", "64", "-height", "64", "-train", "12", "-gop", "6")
	if !strings.Contains(out, "mean/frame") {
		t.Errorf("interframe mode missing summary:\n%s", out)
	}
}

func TestCLIPlot(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	out := runCmd(t, "vbranalyze", "-frames", "8000", "-fig11", "-plot")
	if !strings.Contains(out, "|") || !strings.Contains(out, "log10 m") {
		t.Errorf("plot output missing canvas:\n%s", out)
	}
}

// runCmdExit runs a binary expecting it to fail, returning its exit code
// and combined output.
func runCmdExit(t *testing.T, name string, args ...string) (int, string) {
	t.Helper()
	out, err := exec.Command(filepath.Join(binaries(t), name), args...).CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return ee.ExitCode(), string(out)
}

// TestCLIExitCodes pins the exit-code contract shared by all binaries:
// 0 on success, 2 on usage errors, so shell pipelines and CI scripts can
// distinguish "bad invocation" from "the computation failed".
func TestCLIExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	cases := []struct {
		name string
		args []string
		want int
		msg  string
	}{
		{"vbrgen", []string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{"vbrgen", []string{"-backend", "bogus"}, 2, "names no engine"},
		{"vbrgen", []string{"-generator", "hosking"}, 2, "flag provided but not defined: -generator"},
		{"vbrgen", []string{"-resume"}, 2, "-resume requires -checkpoint"},
		{"vbrgen", []string{"-checkpoint", "x.ckpt"}, 2, "-checkpoint requires"},
		{"vbrgen", []string{"-backend", "paxson", "-checkpoint", "x.ckpt"}, 2, "-checkpoint requires -backend hosking"},
		{"vbrsim", []string{"-frames", "2000"}, 2, "no simulation selected"},
		{"vbrsim", []string{"-frames", "2000", "-faults"}, 2, "-faults applies to -point"},
		{"vbrsim", []string{"-backend", "fourier", "-point"}, 2, "names no engine"},
		{"vbrsim", []string{"-backend", "paxson", "-in", "x.bin", "-point"}, 2, "conflicts with -in"},
		{"vbranalyze", []string{"-frames", "2000"}, 2, "no analysis selected"},
		{"vbrtrace", []string{"-mode", "bogus", "-frames", "10"}, 2, "unknown mode"},
		{"vbrtrace", []string{"-backend", "bogus", "-frames", "10"}, 2, "names no engine"},
		{"vbrexperiments", []string{"-scale", "bogus"}, 2, "unknown scale"},
	}
	for _, c := range cases {
		code, out := runCmdExit(t, c.name, c.args...)
		if code != c.want {
			t.Errorf("%s %v: exit %d, want %d\n%s", c.name, c.args, code, c.want, out)
		}
		if !strings.Contains(out, c.msg) {
			t.Errorf("%s %v: output missing %q:\n%s", c.name, c.args, c.msg, out)
		}
	}
	// -h prints usage and exits 0, matching the flag package convention.
	if code, out := runCmdExit(t, "vbrgen", "-h"); code != 0 || !strings.Contains(out, "Usage") {
		t.Errorf("vbrgen -h: exit %d\n%s", code, out)
	}
}

// TestCLILint pins the vbrlint contract: exit 0 on the repo itself
// (the tree stays lint-clean), exit 1 with file:line diagnostics on the
// fixture packages, and valid JSON under -json.
func TestCLILint(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	out := runCmd(t, "vbrlint", "./...")
	if !strings.Contains(out, "0 finding(s)") {
		t.Errorf("vbrlint ./... should report a clean tree:\n%s", out)
	}

	code, out := runCmdExit(t, "vbrlint", "./internal/lint/testdata/src/floateq")
	if code != 1 {
		t.Errorf("vbrlint on fixtures: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "fixture.go:5:11:") || !strings.Contains(out, "[floateq]") {
		t.Errorf("vbrlint diagnostics missing file:line anchors:\n%s", out)
	}

	code, out = runCmdExit(t, "vbrlint", "-json", "./internal/lint/testdata/src/seedplumb")
	if code != 1 {
		t.Errorf("vbrlint -json on fixtures: exit %d, want 1\n%s", code, out)
	}
	jsonStart := strings.Index(out, "{")
	jsonEnd := strings.LastIndex(out, "}")
	if jsonStart < 0 || jsonEnd < jsonStart {
		t.Fatalf("vbrlint -json produced no JSON object:\n%s", out)
	}
	var rep struct {
		Diagnostics []struct {
			Analyzer string `json:"analyzer"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Message  string `json:"message"`
		} `json:"diagnostics"`
		Summary struct {
			Findings   int            `json:"findings"`
			Packages   int            `json:"packages"`
			ByAnalyzer map[string]int `json:"by_analyzer"`
		} `json:"summary"`
	}
	if err := json.Unmarshal([]byte(out[jsonStart:jsonEnd+1]), &rep); err != nil {
		t.Fatalf("vbrlint -json output is not valid JSON: %v\n%s", err, out)
	}
	if len(rep.Diagnostics) == 0 || rep.Diagnostics[0].Analyzer != "seedplumb" || rep.Diagnostics[0].Line == 0 {
		t.Errorf("vbrlint -json diagnostics malformed: %+v", rep.Diagnostics)
	}
	if rep.Summary.Findings != len(rep.Diagnostics) || rep.Summary.Packages != 1 {
		t.Errorf("vbrlint -json summary inconsistent: %+v", rep.Summary)
	}
	if rep.Summary.ByAnalyzer["seedplumb"] == 0 {
		t.Errorf("vbrlint -json summary missing per-analyzer count: %+v", rep.Summary.ByAnalyzer)
	}

	// -tests extends the concurrency analyzers over in-package test
	// files; the supervision and serving test suites stay clean.
	out = runCmd(t, "vbrlint", "-tests", "./internal/fleet", "./internal/server")
	if !strings.Contains(out, "0 finding(s) in 2 package(s)") {
		t.Errorf("vbrlint -tests fleet/server should be clean:\n%s", out)
	}

	// Exit codes split tool failures from findings: unknown analyzer
	// selection and unloadable patterns are usage errors (2), distinct
	// from exit 1 for a dirty tree.
	if code, out := runCmdExit(t, "vbrlint", "-run", "nosuch", "./internal/errs"); code != 2 {
		t.Errorf("vbrlint -run nosuch: exit %d, want 2\n%s", code, out)
	}
	if code, out := runCmdExit(t, "vbrlint", "./internal/nosuchpkg"); code != 2 {
		t.Errorf("vbrlint on missing package: exit %d, want 2\n%s", code, out)
	}
}

// TestCLIFaultInjection smoke-tests the -faults path of vbrsim and its
// determinism at the process level.
func TestCLIFaultInjection(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	args := []string{"-frames", "4000", "-point", "-n", "2", "-capacity", "11e6",
		"-faults", "-fault-seed", "7", "-fault-gap", "300", "-fault-len", "30", "-fault-outage", "0.5"}
	out1 := runCmd(t, "vbrsim", args...)
	out2 := runCmd(t, "vbrsim", args...)
	if out1 != out2 {
		t.Errorf("faulted simulation not deterministic:\n--- run 1:\n%s--- run 2:\n%s", out1, out2)
	}
	if !strings.Contains(out1, "fault schedule:") || !strings.Contains(out1, "P_l") {
		t.Errorf("fault run missing report:\n%s", out1)
	}
}

// TestCLIZooSim exercises vbrsim's scenario-zoo flags end to end:
// -source replicates one registry model, -mix multiplexes a
// heterogeneous population, both deterministic at the process level,
// and bad specs or flag combinations are usage errors (exit 2).
func TestCLIZooSim(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	args := []string{"-point", "-source", "gop", "-n", "3", "-frames", "4096", "-capacity", "14e6"}
	out1 := runCmd(t, "vbrsim", args...)
	out2 := runCmd(t, "vbrsim", args...)
	if out1 != out2 {
		t.Errorf("zoo simulation not deterministic:\n--- run 1:\n%s--- run 2:\n%s", out1, out2)
	}
	if !strings.Contains(out1, "N=3") || !strings.Contains(out1, "P_l") {
		t.Errorf("zoo -source run missing report:\n%s", out1)
	}

	out := runCmd(t, "vbrsim", "-point", "-mix", "farima:n=4096*2+onoff:fps=24", "-frames", "4096", "-capacity", "24e6")
	if !strings.Contains(out, "N=3") || !strings.Contains(out, "P_l") {
		t.Errorf("zoo -mix run missing report:\n%s", out)
	}

	for _, c := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-point", "-source", "nosuchmodel"}, "unknown traffic model"},
		{[]string{"-point", "-mix", "gop+nosuchmodel"}, "unknown traffic model"},
		{[]string{"-point", "-source", "gop", "-mix", "poisson"}, "mutually exclusive"},
		{[]string{"-point", "-source", "gop*3"}, "use -mix for populations"},
		{[]string{"-source", "gop"}, "-source/-mix apply to -point"},
		{[]string{"-point", "-source", "gop", "-slices"}, "frame granularity"},
	} {
		code, out := runCmdExit(t, "vbrsim", c.args...)
		if code != 2 {
			t.Errorf("vbrsim %v: exit %d, want 2\n%s", c.args, code, out)
		}
		if !strings.Contains(out, c.msg) {
			t.Errorf("vbrsim %v: output missing %q:\n%s", c.args, c.msg, out)
		}
	}
}

// TestCLIInterruptResume is the end-to-end resilience check: a Hosking
// generation is interrupted with SIGINT, must save a checkpoint and exit
// 130, and the resumed run must produce output bitwise-identical to an
// uninterrupted one.
func TestCLIInterruptResume(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "gen.ckpt")
	resumed := filepath.Join(dir, "resumed.bin")
	straight := filepath.Join(dir, "straight.bin")
	gen := filepath.Join(binaries(t), "vbrgen")
	// Three million points keep the Hosking stage busy for several
	// seconds (about 4 s on a 2-vCPU x86-64 host); -slices 0 skips the
	// per-slice trace, which would take gigabytes at this length.
	args := []string{"-n", "3000000", "-backend", "hosking", "-seed", "42", "-slices", "0", "-checkpoint", ckpt}

	// Start the long run and interrupt it mid-generation.
	cmd := exec.Command(gen, append(args, "-o", resumed)...)
	var buf strings.Builder
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Give it time to get into the generation, then interrupt. The run
	// must still be going when the signal lands: 3M Hosking points take
	// several seconds.
	time.Sleep(1 * time.Second)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("interrupted run: expected exit error, got %v\n%s", err, buf.String())
	}
	if code := ee.ExitCode(); code != 130 {
		t.Fatalf("interrupted run: exit %d, want 130\n%s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "state saved to") {
		t.Fatalf("interrupted run did not report a checkpoint:\n%s", buf.String())
	}
	if fi, err := os.Stat(ckpt); err != nil || fi.Size() == 0 {
		t.Fatalf("checkpoint not written: %v", err)
	}

	// Resume to completion, then compare with an uninterrupted run.
	out := runCmd(t, "vbrgen", append(args, "-resume", "-o", resumed)...)
	if !strings.Contains(out, "generated 3000000 frames") {
		t.Fatalf("resumed run did not finish:\n%s", out)
	}
	if _, err := os.Stat(ckpt); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("consumed checkpoint was not removed: %v", err)
	}
	runCmd(t, "vbrgen", "-n", "3000000", "-backend", "hosking", "-seed", "42", "-slices", "0", "-o", straight)

	got, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(straight)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed output differs from uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestCLITraceInterrupt pins that vbrtrace's synthesis honours SIGINT:
// an exact Hosking backbone at 3M frames runs for several seconds (about
// 4 s on a 2-vCPU x86-64 host, and the whole run about 20 s), so a
// signal one second in must end the run with exit 130 well before it
// would finish, and must leave no trace file behind.
func TestCLITraceInterrupt(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	out := filepath.Join(t.TempDir(), "trace.bin")
	cmd := exec.Command(filepath.Join(binaries(t), "vbrtrace"), "-backend", "hosking", "-frames", "3000000", "-o", out)
	var buf strings.Builder
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(1 * time.Second)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		cmd.Process.Kill()
		<-done
		t.Fatalf("vbrtrace still running 5 s after SIGINT\n%s", buf.String())
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 130 {
		t.Fatalf("interrupted vbrtrace: %v, want exit 130\n%s", err, buf.String())
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("interrupted run left an output file: %v", err)
	}
}

// TestCLIFig14CheckpointResume exercises the search-state checkpoint of
// the Fig 14 sweep through the binary: interrupt, verify the checkpoint,
// resume, and check the sweep completes.
func TestCLIFig14CheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "f14.ckpt")
	sim := filepath.Join(binaries(t), "vbrsim")

	cmd := exec.Command(sim, "-frames", "120000", "-fig14", "-checkpoint", ckpt)
	var buf strings.Builder
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The sweep at this scale runs ~9s; 4s lands the signal well inside
	// the bisection searches but safely past trace generation.
	time.Sleep(4 * time.Second)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 130 {
		t.Skipf("fig14 sweep finished before the interrupt landed (err=%v); nothing to resume", err)
	}
	if fi, serr := os.Stat(ckpt); serr != nil || fi.Size() == 0 {
		t.Fatalf("fig14 checkpoint not written after interrupt: %v\n%s", serr, buf.String())
	}

	out := runCmd(t, "vbrsim", "-frames", "120000", "-fig14", "-checkpoint", ckpt, "-resume")
	if !strings.Contains(out, "resuming Fig 14 from") || !strings.Contains(out, "Figure 14") {
		t.Fatalf("resumed fig14 sweep incomplete:\n%s", out)
	}
}
