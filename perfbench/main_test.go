package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// runOut runs the benchmark in-process and returns its exit code, the
// report line and the result line.
func runOut(t *testing.T, args ...string) (int, report, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	var res result
	if len(lines) >= 2 {
		if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rep); err != nil {
			t.Fatalf("report line: %v", err)
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("result line: %v", err)
		}
	}
	if code != 0 {
		t.Logf("stderr: %s", stderr.String())
	}
	return code, rep, res
}

func smokeArgs(w string, seed int64, trace int, extra ...string) []string {
	return append([]string{"--workload", w, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", "0", "--trace", strconv.Itoa(trace), "--smoke"}, extra...)
}

// checkMetrics asserts the result carries exactly the wanted metrics, each
// with its unit.
func checkMetrics(t *testing.T, res result, want []metric, nonZero bool) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		v, ok := res.Metrics[m.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.name)
		case v.Unit != m.unit:
			t.Errorf("metric %s unit %q, want %q", m.name, v.Unit, m.unit)
		case nonZero && v.Value == 0:
			t.Errorf("metric %s is 0", m.name)
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			code, rep, res := runOut(t, smokeArgs(w.name, 1, 0)...)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("exit %d, result %+v, problems %v", code, res, rep.Problems)
			}
			checkMetrics(t, res, endToEnd, true)

			code, rep, res = runOut(t, smokeArgs(w.name, 1, 1)...)
			if code != 0 || !res.Correct {
				t.Fatalf("traced: exit %d, problems %v", code, rep.Problems)
			}
			checkMetrics(t, res, perLayer, false)
			if rep.TracedDigest != rep.Digest {
				t.Errorf("traced digest %s != untraced %s", rep.TracedDigest, rep.Digest)
			}
		})
	}
}

// The simulated result depends on the seed only: not on the run, not on
// the engine's worker count.
func TestDigestStable(t *testing.T) {
	for _, w := range allWorkloads {
		_, a, _ := runOut(t, smokeArgs(w.name, 7, 0)...)
		_, b, _ := runOut(t, smokeArgs(w.name, 7, 0)...)
		_, c, _ := runOut(t, smokeArgs(w.name, 7, 0, "--workers", "1")...)
		_, d, _ := runOut(t, smokeArgs(w.name, 7, 0, "--workers", strconv.Itoa(runtime.NumCPU()))...)
		if a.Digest == "" || a.Digest != b.Digest || a.Digest != c.Digest || a.Digest != d.Digest {
			t.Errorf("%s: digests %s %s (workers 1: %s, nproc: %s)", w.name, a.Digest, b.Digest, c.Digest, d.Digest)
		}
		_, e, _ := runOut(t, smokeArgs(w.name, 8, 0)...)
		if e.Digest == a.Digest {
			t.Errorf("%s: seeds 7 and 8 give the same simulated result", w.name)
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--seconds", "0"},
		{"--workload", "vpic_spill", "--trace", "2"},
		{"--bogus"},
	} {
		if code, _, _ := runOut(t, args...); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
	}
}

func TestMetricTables(t *testing.T) {
	if len(endToEnd) < 1 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(endToEnd))
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(perLayer))
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) {
			t.Errorf("bad metric name %q or unit %q", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("%s: better %q", m.name, m.better)
		}
		if seen[m.name] {
			t.Errorf("metric %s listed twice", m.name)
		}
		seen[m.name] = true
	}
}

// BENCHMARK.json at the repository root must describe what this program
// prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(allWorkloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(allWorkloads))
	}
	for i, w := range spec.Workloads {
		if i < len(allWorkloads) && (w.Name != allWorkloads[i].name || w.Why != allWorkloads[i].why) {
			t.Errorf("workload %d: %q/%q, want %q/%q", i, w.Name, w.Why, allWorkloads[i].name, allWorkloads[i].why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		if w := endToEnd[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
			t.Errorf("end_to_end %d: %+v, want %+v", i, m, w)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range spec.PerLayer {
		if w := perLayer[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
			t.Errorf("per_layer %d: %+v, want %+v", i, m, w)
		}
	}
}

func TestQuantile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q, w float64
	}{
		{nil, 0.5, 0},
		{[]float64{3}, 0.999, 3},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0.25, 2},
		{[]float64{1, 2, 3, 4, 5}, 1, 5},
	} {
		if got := quantile(c.xs, c.q); got != c.w {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.w)
		}
	}
}

func TestCPULayer(t *testing.T) {
	f := func(fn, file string) frame { return frame{fn, file} }
	for _, c := range []struct {
		stack []frame
		want  string
	}{
		{[]frame{f("univistor/internal/sim.(*solveScratch).allocateFast", "/x/internal/sim/alloc.go")}, "sim.solver"},
		{[]frame{f("univistor/internal/sim.parallelDo.func1", "/x/internal/sim/parallel.go")}, "sim.pool"},
		{[]frame{f("runtime.memmove", "memmove.s"), f("univistor/internal/sim.(*Engine).Run", "/x/internal/sim/engine.go")}, "sim.engine"},
		{[]frame{f("runtime.chansend1", "chan.go"), f("univistor/internal/sim.(*Engine).dispatch", "/x/internal/sim/engine.go")}, "sim.switch"},
		{[]frame{f("runtime.scanobject", "mgcmark.go"), f("runtime.gcBgMarkWorker", "mgc.go")}, "runtime.gc"},
		{[]frame{f("runtime.nextFreeFast", "malloc.go"), f("runtime.mallocgc", "malloc.go"), f("univistor/internal/core.(*ClientFile).WriteAt", "write.go")}, "runtime.gc"},
		{[]frame{f("sort.Sort", "sort.go"), f("univistor/internal/kvstore.(*Ring).Put", "ring.go")}, "metaplane"},
		{[]frame{f("univistor/internal/castore.(*Store).Intern", "castore.go")}, "castore"},
		{[]frame{f("univistor/internal/mpiio.(*univistorFile).WriteAt", "univistor_driver.go")}, "mpi"},
		{[]frame{f("univistor/internal/workloads.RunVPIC", "workloads.go")}, "other"},
		{[]frame{f("main.(*tracer).record", "trace.go")}, "other"},
		{[]frame{f("runtime.sysmonLoop", "proc.go")}, "other"},
	} {
		if got := cpuLayer(c.stack); got != c.want {
			t.Errorf("cpuLayer(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// The profile reader must account for every sample of a real profile.
func TestDecodeRealProfile(t *testing.T) {
	lp, err := allocSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if lp.samples == 0 {
		t.Fatal("no allocation samples decoded")
	}
	total := 0.0
	for l, v := range lp.values {
		found := false
		for _, k := range layers {
			found = found || k == l
		}
		if !found {
			t.Errorf("sample bucketed into unknown layer %q", l)
		}
		total += v
	}
	if total <= 0 {
		t.Errorf("allocated MB total %v", total)
	}
}
