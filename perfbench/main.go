// Command perfbench is the repository benchmark: it runs one named
// workload of the UniviStor simulator repeatedly for a fixed host time,
// checks every repetition's simulated result, and prints the metrics as
// one JSON object on the last line of standard output.
//
//	go run . --workload vpic_spill --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced repetitions.
// --trace 1 alternates untraced and traced repetitions (MPI-IO spans,
// engine counters, CPU and allocation profiles) and reports the per-layer
// metrics. See README.md for the metric table.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the last line of the output, the part tools read.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the line before the result: run metadata, the simulated
// digest, per-repetition figures and the profile shares.
type report struct {
	Workload      string             `json:"workload"`
	Seed          int64              `json:"seed"`
	Trace         bool               `json:"trace"`
	Digest        string             `json:"digest"`
	TracedDigest  string             `json:"traced_digest,omitempty"`
	Reps          int                `json:"reps"`
	TracedReps    int                `json:"traced_reps,omitempty"`
	LatSamples    int                `json:"latency_samples"`
	GOMAXPROCS    int                `json:"gomaxprocs"`
	Workers       int                `json:"engine_workers"`
	NProc         int                `json:"nproc"`
	CPUModel      string             `json:"cpu_model"`
	GoVersion     string             `json:"go_version"`
	WallS         []float64          `json:"wall_s"`
	SetupS        []float64          `json:"setup_s"`
	CPUS          []float64          `json:"cpu_s"`
	ProfileShares map[string]float64 `json:"profile_shares,omitempty"`
	AllocShares   map[string]float64 `json:"alloc_shares,omitempty"`
	HostSpans     map[string]float64 `json:"host_span_s,omitempty"`
	Problems      []string           `json:"problems,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: vpic_spill, vpic_bdcats, ckpt_dedup or tenant_storm")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "host seconds to keep starting repetitions")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	workers := fs.Int("workers", runtime.NumCPU(), "engine solver workers (capped at the CPU count)")
	smoke := fs.Bool("smoke", false, "tiny workload shapes, for tests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || (*traceFlag != 0 && *traceFlag != 1) || *seconds < 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s) and --trace 0|1\n", workloadNames())
		return 2
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), nproc))
	p := params{seed: *seed, unit: seededUnit(*seed), smoke: *smoke, workers: max(1, min(*workers, nproc))}

	res, rep, err := measure(w, p, *seconds, *traceFlag == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.Workers = p.workers
	rep.NProc = nproc
	rep.CPUModel = cpuModel()
	rep.GoVersion = runtime.Version()
	for _, pr := range rep.Problems {
		fmt.Fprintln(stderr, "perfbench:", pr)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rep); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var n []string
	for _, w := range allWorkloads {
		n = append(n, w.name)
	}
	return strings.Join(n, ", ")
}

// repResult is one repetition's host measurements and simulated outcome.
type repResult struct {
	setup, wall, cpu float64 // seconds
	allocBytes       float64
	mallocs, gcs     float64
	out              outcome
	tr               *tracer
	cpuLayers        layerProfile
	allocLayers      map[string]float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readRuntime() [3]float64 {
	metrics.Read(runtimeSamples)
	var v [3]float64
	for i, s := range runtimeSamples {
		if s.Value.Kind() == metrics.KindUint64 {
			v[i] = float64(s.Value.Uint64())
		}
	}
	return v
}

func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// repeat runs one repetition. The timed window is Engine.Run alone; setup
// is timed separately and the checks run after the window.
func repeat(w workload, p params, traced bool) (repResult, error) {
	var r repResult
	var allocBefore layerProfile
	if traced {
		p.tr = newTracer()
		var err error
		if allocBefore, err = allocSnapshot(); err != nil {
			return r, err
		}
	} else {
		runtime.GC()
	}
	t0 := time.Now()
	inst, err := w.setup(p)
	if err != nil {
		return r, fmt.Errorf("%s setup: %w", w.name, err)
	}
	r.setup = time.Since(t0).Seconds()

	rt0, c0, t1 := readRuntime(), cpuTime(), time.Now()
	if traced {
		if r.cpuLayers, err = cpuProfile(inst.run); err != nil {
			return r, err
		}
	} else {
		inst.run()
	}
	r.wall = time.Since(t1).Seconds()
	r.cpu = cpuTime() - c0
	rt1 := readRuntime()
	r.allocBytes, r.mallocs, r.gcs = rt1[0]-rt0[0], rt1[1]-rt0[1], rt1[2]-rt0[2]

	r.out = inst.finish()
	if traced {
		r.tr = p.tr
		after, err := allocSnapshot()
		if err != nil {
			return r, err
		}
		r.allocLayers = map[string]float64{}
		for _, l := range layers {
			r.allocLayers[l] = after.values[l] - allocBefore.values[l]
		}
	}
	return r, nil
}

// measure keeps starting repetitions until the host time is spent (at
// least one; in a traced run, at least one untraced and one traced) and
// reduces them to the result line and the report.
func measure(w workload, p params, seconds float64, traced bool) (result, report, error) {
	rep := report{Workload: w.name, Seed: p.seed, Trace: traced}
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	var plain, withTrace []repResult
	start := time.Now()
	for len(plain) == 0 || time.Since(start).Seconds() < seconds {
		r, err := repeat(w, p, false)
		if err != nil {
			return res, rep, err
		}
		plain = append(plain, r)
		if traced {
			if r, err = repeat(w, p, true); err != nil {
				return res, rep, err
			}
			withTrace = append(withTrace, r)
		}
	}

	// Correctness: every repetition passes its checks and reproduces the
	// first one's simulated result, traced or not.
	first := plain[0].out
	rep.Digest = fmt.Sprintf("%016x", first.digest)
	problems := map[string]bool{}
	for i, r := range append(append([]repResult(nil), plain...), withTrace...) {
		res.Attempted += r.out.attempted + 1
		res.Failed += r.out.failed
		for _, pr := range r.out.problems {
			problems[pr] = true
		}
		if r.out.digest != first.digest {
			res.Failed++
			problems[fmt.Sprintf("repetition %d simulated digest %016x differs from %s", i, r.out.digest, rep.Digest)] = true
		}
	}
	if len(withTrace) > 0 {
		rep.TracedDigest = fmt.Sprintf("%016x", withTrace[0].out.digest)
	}
	for pr := range problems {
		rep.Problems = append(rep.Problems, pr)
	}
	sort.Strings(rep.Problems)
	res.Correct = res.Failed == 0

	rep.Reps, rep.TracedReps = len(plain), len(withTrace)
	rep.LatSamples = first.samples
	for _, r := range plain {
		rep.WallS = append(rep.WallS, r.wall)
		rep.SetupS = append(rep.SetupS, r.setup)
		rep.CPUS = append(rep.CPUS, r.cpu)
	}
	set := func(name string, v float64) {
		res.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
	}
	pick := func(rs []repResult, f func(repResult) float64) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	if !traced {
		set("wall_s", median(rep.WallS))
		set("setup_s", median(rep.SetupS))
		set("cpu_s", median(rep.CPUS))
		set("alloc_mb", pick(plain, func(r repResult) float64 { return r.allocBytes })/1e6)
		set("peak_rss_mb", peakRSSMB())
		set("sim_elapsed_s", first.elapsed)
		set("sim_p50_ms", first.p50*1e3)
		set("sim_p999_ms", first.p999*1e3)
		set("flush_physical_ratio", first.physRatio)
		return res, rep, nil
	}

	for _, m := range perLayer {
		set(m.name, 0)
	}
	for k, v := range first.counts {
		if _, ok := res.Metrics[k]; ok {
			set(k, v)
		}
	}
	last := withTrace[len(withTrace)-1]
	opMetrics, opHost := last.tr.opSummary()
	for k, v := range opMetrics {
		set(k, v)
	}
	set("sim.engine.flows_started", float64(last.tr.sim.flowsStarted))
	set("runtime.gc.cycles", pick(plain, func(r repResult) float64 { return r.gcs }))
	set("runtime.mallocs", pick(plain, func(r repResult) float64 { return r.mallocs }))
	n := float64(len(withTrace))
	host := map[string]float64{}
	alloc := map[string]float64{}
	var hostTotal, allocTotal, samples float64
	for _, r := range withTrace {
		for _, l := range layers {
			host[l] += r.cpuLayers.values[l] / n
			alloc[l] += r.allocLayers[l] / n
		}
		samples += float64(r.cpuLayers.samples)
	}
	rep.ProfileShares, rep.AllocShares = map[string]float64{}, map[string]float64{}
	for _, l := range layers {
		set(l+".host_s", host[l])
		if _, ok := res.Metrics[l+".alloc_mb"]; ok {
			set(l+".alloc_mb", alloc[l])
		}
		hostTotal += host[l]
		allocTotal += alloc[l]
	}
	for _, l := range layers {
		if hostTotal > 0 {
			rep.ProfileShares[l] = host[l] / hostTotal
		}
		if allocTotal > 0 {
			rep.AllocShares[l] = alloc[l] / allocTotal
		}
	}
	set("profile.samples", samples)
	if f := first.counts["sim.solver.flows_solved"]; f > 0 {
		set("sim.solver.ns_per_flow", host["sim.solver"]*1e9/f)
	}
	set("trace.overhead_s", pick(withTrace, func(r repResult) float64 { return r.wall })-median(rep.WallS))
	rep.HostSpans = opHost
	for _, s := range last.tr.host {
		rep.HostSpans[s.name] += (s.end - s.start).Seconds()
	}
	return res, rep, nil
}

func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.name == name {
			return m.unit
		}
	}
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	return "count"
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
