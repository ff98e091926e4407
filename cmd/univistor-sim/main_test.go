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

// A flag that the chosen mode never reads is a usage error. Each case sets
// the flag explicitly (at its default value where that is possible, so
// detection cannot rest on comparing values) outside the mode it needs.
func TestRejectsFlagsOutsideTheirMode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildSim(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-driver", "lustre", "-chaos", "seed=1,crash=0@0.1"}, "-chaos requires -driver univistor"},
		{[]string{"-driver", "dataelevator", "-chaos", "seed=1"}, "-chaos requires -driver univistor"},
		{[]string{"-driver", "lustre", "-meta-shards", "3"}, "-meta-shards requires -driver univistor"},
		{[]string{"-driver", "dataelevator", "-tiers", "dram,bb"}, "-tiers requires -driver univistor"},
		{[]string{"-driver", "lustre", "-no-coc"}, "-no-coc requires -driver univistor"},
		{[]string{"-driver", "dataelevator", "-no-adpt"}, "-no-adpt requires -driver univistor"},
		{[]string{"-driver", "lustre", "-dedup"}, "-dedup requires -driver univistor"},
		{[]string{"-driver", "lustre", "-gateway"}, "-gateway requires -driver univistor"},
		{[]string{"-meta-replicas", "3"}, "-meta-replicas requires -meta-shards"},
		{[]string{"-meta-split", "1@0.1"}, "-meta-split requires -meta-shards"},
		{[]string{"-meta-shards", "2", "-meta-lease", "0.1"}, "-meta-lease requires -meta-follower-reads"},
		{[]string{"-dedup-block-mb", "4"}, "-dedup-block-mb requires -dedup"},
		{[]string{"-ckpt-change", "0.1"}, "-ckpt-change requires -ckpt"},
		{[]string{"-ckpt-retain", "2"}, "-ckpt-retain requires -ckpt"},
		{[]string{"-ckpt-seed", "1"}, "-ckpt-seed requires -ckpt"},
		{[]string{"-tenants", "64"}, "-tenants requires -gateway"},
		{[]string{"-zipf", "1.2"}, "-zipf requires -gateway"},
		{[]string{"-gw-seed", "1"}, "-gw-seed requires -gateway"},
		{[]string{"-qos"}, "-qos requires -gateway"},
		{[]string{"-gw-arrival", "5"}, "-gw-arrival requires -gateway"},
	} {
		cmd := exec.Command(bin, tc.args...)
		cmd.Env = os.Environ()
		var stdout, stderr bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("univistor-sim %v: err = %v, want exit status 1", tc.args, err)
			continue
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("univistor-sim %v: stderr = %q, want it to contain %q", tc.args, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("univistor-sim %v: usage error wrote to stdout: %q", tc.args, stdout.String())
		}
	}
}
