package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildSim builds the command into a temporary directory and returns the
// binary's path.
func buildSim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "univistor-sim")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// Regression test for the debug-diagnostics channel: with
// UNIVISTOR_SIM_DEBUG set, stdout must still be exactly one JSON
// document (the recompute diagnostics used to interleave with it and
// corrupt it) and the diagnostics must arrive on stderr instead.
func TestDebugDiagnosticsDoNotCorruptJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildSim(t)

	cmd := exec.Command(bin, "-procs", "8", "-ranks-per-node", "4", "-mb", "8", "-seg-mb", "4")
	cmd.Env = append(os.Environ(), "UNIVISTOR_SIM_DEBUG=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("univistor-sim: %v\nstderr:\n%s", err, stderr.String())
	}

	var out Output
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		t.Fatalf("stdout is not a single JSON document: %v\nstdout:\n%s", err, stdout.String())
	}
	if out.Driver != "univistor" || out.Procs != 8 || out.WriteSecs <= 0 {
		t.Errorf("unexpected output document: %+v", out)
	}
	if out.Alloc == nil || out.Alloc.Recomputes == 0 {
		t.Errorf("output missing allocator counters: %+v", out.Alloc)
	}
	if !strings.Contains(stderr.String(), "[sim] recompute #") {
		t.Errorf("stderr missing recompute diagnostics, got:\n%s", stderr.String())
	}
}

// -dedup acts only on the flush path, which gateway mode never runs, so
// the combination is a usage error rather than a silently ignored flag.
func TestGatewayRejectsDedup(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	cmd := exec.Command(buildSim(t), "-gateway", "-dedup")
	cmd.Env = os.Environ()
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("univistor-sim -gateway -dedup: err = %v, want exit status 1", err)
	}
	if want := "-dedup acts on the flush path, which -gateway never runs"; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr = %q, want it to contain %q", stderr.String(), want)
	}
	if stdout.Len() != 0 {
		t.Errorf("usage error wrote to stdout: %q", stdout.String())
	}
}
