package main

// Child-process harness for the exit path: a real c11 process gets a
// real SIGINT/SIGTERM mid-search and must cut the search like a budget
// (exit 2, stop=cancelled) and flush its telemetry — a final progress
// line, the -metrics summary and a complete, parseable trace file —
// before the process exits.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// slowLit is a four-thread cross-coupled counter: at bound 22 the RAR
// search runs until it meets explore's default state cap of 2^20, for
// about 2.5 s on a 2-vCPU machine, so the child is reliably mid-search
// when the signal lands at 700 ms. (Without thread 4 the whole search
// ends in about 0.7 s on the same machine, and the signal races the
// normal exit.)
const slowLit = `init x=0 y=0 g=0
thread 1 { while (g == 0) { x := y + 1; } }
thread 2 { while (g == 0) { y := x + 1; } }
thread 3 { while (g == 0) { x := x + y; } }
thread 4 { while (g == 0) { y := y + x; } }
observe x y
`

var (
	buildOnce sync.Once
	binDir    string
	binErr    error
)

func TestMain(m *testing.M) {
	m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
}

// c11Binary builds this package into a temporary directory, once per
// test run, and returns the binary's path.
func c11Binary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		if binDir, binErr = os.MkdirTemp("", "c11-test-"); binErr != nil {
			return
		}
		out, err := exec.Command("go", "build", "-o", filepath.Join(binDir, "c11"), ".").CombinedOutput()
		if err != nil {
			binErr = fmt.Errorf("%v\n%s", err, out)
		}
	})
	if binErr != nil {
		t.Fatalf("build c11: %v", binErr)
	}
	return filepath.Join(binDir, "c11")
}

// writeSlowLit writes slowLit into dir and returns its path.
func writeSlowLit(t *testing.T, dir string) string {
	t.Helper()
	lit := filepath.Join(dir, "slow.lit")
	if err := os.WriteFile(lit, []byte(slowLit), 0o644); err != nil {
		t.Fatal(err)
	}
	return lit
}

// interrupt starts cmd, waits for it to be well into its work, sends
// sig, and returns the exit code and combined output.
func interrupt(t *testing.T, cmd *exec.Cmd, after time.Duration, sig os.Signal) (int, string) {
	t.Helper()
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(after)
	if err := cmd.Process.Signal(sig); err != nil {
		t.Fatalf("signal: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			return 0, out.String()
		}
		if ee, ok := err.(*exec.ExitError); ok {
			return ee.ExitCode(), out.String()
		}
		t.Fatalf("wait: %v\n%s", err, out.String())
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("child ignored %v and hung\n%s", sig, out.String())
	}
	return -1, ""
}

// convertTrace reads the Chrome trace_event JSON at path and returns
// it, failing the test unless the file is one complete JSON array of
// events, each carrying ph and name (a closed trace, not one truncated
// mid-record).
func convertTrace(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	var events []struct {
		Phase string         `json:"ph"`
		Name  string         `json:"name"`
		Args  map[string]any `json:"args"`
	}
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace at %s is not a JSON array: %v", path, err)
	}
	for i, ev := range events {
		if ev.Phase == "" || ev.Name == "" {
			t.Fatalf("trace event %d lacks ph or name: %+v", i, ev)
		}
	}
	return string(data)
}

func TestFuzzSIGTERMExitsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and interrupts child processes")
	}
	bin := c11Binary(t)
	dir := t.TempDir()

	// Enough programs that the run is still going when the signal
	// lands; the corpus directory stays inside the temp dir.
	code, out := interrupt(t,
		exec.Command(bin, "fuzz", "-seed", "1", "-n", "1000000", "-corpus", filepath.Join(dir, "corpus")),
		500*time.Millisecond, syscall.SIGTERM)
	if code != exitBounded {
		t.Fatalf("exit code %d after SIGTERM, want %d\n%s", code, exitBounded, out)
	}
	if !strings.Contains(out, "interrupted after") {
		t.Fatalf("output does not report the interruption:\n%s", out)
	}
}

func TestExploreSIGINTFlushesTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and interrupts child processes")
	}
	bin := c11Binary(t)
	dir := t.TempDir()
	trace := filepath.Join(dir, "search.jsonl")

	// A 100ms progress interval guarantees at least one periodic line
	// lands in the ~700ms before the signal; the final line is emitted
	// by the exit-path flush itself.
	code, out := interrupt(t,
		exec.Command(bin, "explore", "-f", writeSlowLit(t, dir), "-max", "22", "-workers", "2",
			"-progress=100ms", "-trace", trace, "-metrics"),
		700*time.Millisecond, os.Interrupt)
	if code != exitBounded {
		t.Fatalf("exit code %d after SIGINT, want %d\n%s", code, exitBounded, out)
	}
	if !strings.Contains(out, "stop=cancelled") {
		t.Fatalf("output does not report the cancellation:\n%s", out)
	}
	if !strings.Contains(out, "progress:") {
		t.Fatalf("no periodic progress line before the signal:\n%s", out)
	}
	if !strings.Contains(out, "progress(final):") {
		t.Fatalf("no final progress line on the signal exit path:\n%s", out)
	}
	if !strings.Contains(out, "metrics:") || !strings.Contains(out, "expansions=") {
		t.Fatalf("no -metrics summary on the signal exit path:\n%s", out)
	}

	// The trace was flushed and closed, not truncated mid-record: it
	// converts cleanly and carries the search span plus the stop event
	// recorded when the signal cut the run.
	chrome := convertTrace(t, trace)
	for _, want := range []string{`"search"`, `"stop"`, `"cancelled"`} {
		if !strings.Contains(chrome, want) {
			t.Fatalf("converted trace is missing %s:\n%.2000s", want, chrome)
		}
	}
}

func TestVerifyNormalExitFlushesTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("builds child processes")
	}
	bin := c11Binary(t)
	trace := filepath.Join(t.TempDir(), "verify.jsonl")

	cmd := exec.Command(bin, "verify", "-max", "10", "-workers", "2", "-trace", trace, "-metrics")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("c11 verify: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "metrics:") {
		t.Fatalf("no -metrics summary on the normal exit path:\n%s", out)
	}
	chrome := convertTrace(t, trace)
	if !strings.Contains(chrome, `"search"`) {
		t.Fatalf("converted trace has no search span:\n%.2000s", chrome)
	}
}
