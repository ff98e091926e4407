package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"univistor/internal/sim"
)

// runScenario drives a small deterministic two-proc simulation with the
// recorder attached: distinct resource capacities keep the fair-share
// allocation (and hence the sampled timelines) stable across runs.
func runScenario(rec *Recorder) {
	e := sim.NewEngine()
	e.SetTracer(rec)
	nic := sim.NewResource("nic", 100)
	disk := sim.NewResource("disk", 40)
	for i := 0; i < 2; i++ {
		i := i
		e.Go([]string{"rank0", "rank1"}[i], func(p *sim.Proc) {
			p.Sleep(float64(i)) // stagger the ranks
			sp := rec.Begin(p, CatWrite, "write-at")
			p.Transfer(200, nic, disk)
			sp.End(p.Now())
			rec.Mark(p, CatFlush, "flush-complete")
			sp = rec.Begin(p, CatMPI, "barrier")
			p.Sleep(0.5)
			sp.End(p.Now())
		})
	}
	e.Run()
}

func TestRecorderSpansAndInstants(t *testing.T) {
	rec := New()
	runScenario(rec)
	if !rec.Enabled() {
		t.Fatal("recorder should report enabled")
	}
	// 2 ranks × (write-at + flush-complete + barrier) = 6 track events.
	if got := rec.Events(); got != 6 {
		t.Fatalf("Events() = %d, want 6", got)
	}
	if got := rec.Flows(); got != 2 {
		t.Fatalf("Flows() = %d, want 2", got)
	}
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	rep, err := ValidateChrome(buf.Bytes())
	if err != nil {
		t.Fatalf("ValidateChrome: %v", err)
	}
	if rep.Spans != 4 {
		t.Errorf("spans = %d, want 4", rep.Spans)
	}
	if rep.Flows != 2 {
		t.Errorf("flows = %d, want 2", rep.Flows)
	}
	if rep.CounterTracks != 4 {
		t.Errorf("counter tracks = %d, want 4 (nic, disk, alloc.components, alloc.flows_solved)", rep.CounterTracks)
	}
	wantCats := []string{"flush", "mpi", "write"}
	if strings.Join(rep.Categories, ",") != strings.Join(wantCats, ",") {
		t.Errorf("categories = %v, want %v", rep.Categories, wantCats)
	}
}

func TestDisabledRecorder(t *testing.T) {
	var rec *Recorder // the disabled recorder
	if rec.Enabled() {
		t.Fatal("nil recorder should report disabled")
	}
	// Every hook is a no-op and must not touch its arguments: a nil proc
	// and nil resources prove no dereference happens.
	sp := rec.Begin(nil, CatWrite, "w")
	sp.End(1)
	rec.Mark(nil, CatFlush, "f")
	rec.Instant(0, "sim", "i")
	rec.FlowBegin(0, 1, 100, nil)
	rec.FlowEnd(1, 1)
	rec.ResourceSample(0, nil, 5)
	rec.Counters(0, StreamCAS, Value{"cas.dead_bytes", KeyPending, 1})
	rec.AllocSample(0, sim.AllocStats{}, 1)
	rec.ParallelSample(0, 2, 2, 2, []int64{1, 1})
	if rec.Events() != 0 || rec.Flows() != 0 {
		t.Fatal("disabled recorder recorded something")
	}
	if rec.Summarize(4) != nil {
		t.Fatal("disabled recorder should summarize to nil")
	}
	if err := rec.WriteChrome(&bytes.Buffer{}); err == nil {
		t.Fatal("exporting a disabled recorder should error")
	}
}

// TestDisabledRecorderZeroAllocs is the acceptance bar for the disabled
// path: tracing off must add zero allocations to the hot write path.
func TestDisabledRecorderZeroAllocs(t *testing.T) {
	var rec *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		sp := rec.Begin(nil, CatWrite, "write-at")
		rec.Mark(nil, CatFlush, "flush-complete")
		rec.FlowBegin(0, 7, 1024, nil)
		rec.ResourceSample(0, nil, 1e9)
		rec.FlowEnd(1, 7)
		rec.Instant(1, "sim", "tick")
		rec.Counters(1, StreamMetaLease, Value{"meta.lease_grants", KeyCumulative, 3})
		sp.End(2)
	})
	if allocs != 0 {
		t.Fatalf("disabled recorder allocated %v times per run, want 0", allocs)
	}
}

func TestSpanDoubleEnd(t *testing.T) {
	rec := New()
	e := sim.NewEngine()
	e.Go("p", func(p *sim.Proc) {
		sp := rec.Begin(p, CatMeta, "op")
		p.Sleep(1)
		sp.End(p.Now())
		p.Sleep(1)
		sp.End(p.Now()) // must not stretch the closed span
	})
	e.Run()
	ev := rec.tracks[0].events[0]
	if ev.Dur != 1 {
		t.Fatalf("span duration = %v, want 1 (second End must be a no-op)", ev.Dur)
	}
}

func TestOpenSpanClampedAtExport(t *testing.T) {
	rec := New()
	e := sim.NewEngine()
	e.Go("p", func(p *sim.Proc) {
		rec.Begin(p, CatMeta, "never-ended")
		p.Sleep(3)
		rec.Mark(p, CatMeta, "tick") // advances maxTime to 3
	})
	e.Run()
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if _, err := ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("open span exported invalid trace: %v", err)
	}
}

func TestSummarize(t *testing.T) {
	rec := New()
	runScenario(rec)
	s := rec.Summarize(10)
	if s == nil {
		t.Fatal("nil summary")
	}
	byCat := map[string]CategorySummary{}
	for _, c := range s.Spans {
		byCat[c.Category] = c
	}
	if byCat["write"].Count != 2 || byCat["mpi"].Count != 2 {
		t.Fatalf("category counts wrong: %+v", s.Spans)
	}
	w := byCat["write"]
	if w.P50 <= 0 || w.P99 < w.P50 || w.MaxSeconds < w.P99 {
		t.Errorf("write percentiles not ordered: %+v", w)
	}
	if len(s.Resources) != 2 {
		t.Fatalf("resources = %d, want 2", len(s.Resources))
	}
	for _, r := range s.Resources {
		if r.BusyFraction <= 0 || r.BusyFraction > 1 {
			t.Errorf("resource %s busy fraction %v out of (0,1]", r.Name, r.BusyFraction)
		}
		if r.MeanUtilization <= 0 || r.MeanUtilization > 1 {
			t.Errorf("resource %s mean utilization %v out of (0,1]", r.Name, r.MeanUtilization)
		}
	}
	// The disk (capacity 40) is the bottleneck: it should be busier than
	// or as busy as the nic in utilization terms.
	var nic, disk ResourceSummary
	for _, r := range s.Resources {
		switch r.Name {
		case "nic":
			nic = r
		case "disk":
			disk = r
		}
	}
	if disk.MeanUtilization < nic.MeanUtilization {
		t.Errorf("disk utilization %v < nic %v; disk is the bottleneck",
			disk.MeanUtilization, nic.MeanUtilization)
	}
	var buf bytes.Buffer
	s.Format(&buf)
	if !strings.Contains(buf.String(), "write") || !strings.Contains(buf.String(), "disk") {
		t.Errorf("formatted summary missing expected rows:\n%s", buf.String())
	}
	var flows CounterSummary
	for _, c := range s.Counters {
		if c.Name == "alloc.flows_solved" {
			flows = c
		}
	}
	if flows.Key != KeyCumulative || flows.Final == 0 || flows.Samples == 0 {
		t.Errorf("allocator counter missing or empty: %+v", s.Counters)
	}
	if !strings.Contains(buf.String(), "alloc.flows_solved") {
		t.Errorf("formatted summary missing the allocator counter:\n%s", buf.String())
	}
}

// The recorder implements sim.AllocTracer: every dirty-batch solve lands
// one allocator reading, and same-instant batches supersede each other.
func TestAllocSampleTimeline(t *testing.T) {
	rec := New()
	runScenario(rec)
	cs := &rec.streams[StreamAlloc]
	if len(cs.readings) == 0 {
		t.Fatal("no allocator readings recorded")
	}
	var prev sim.Time = -1
	for _, rd := range cs.readings {
		if rd.t <= prev {
			t.Fatalf("allocator readings not strictly increasing in time: %v after %v", rd.t, prev)
		}
		prev = rd.t
	}
	last := cs.values(len(cs.readings) - 1)
	if len(last) != 2 || last[1].Name != "alloc.flows_solved" || last[1].V == 0 {
		t.Errorf("final allocator reading has empty counters: %+v", last)
	}
}

// Streams recorded in reverse pid order still export in (pid, tid) order
// with each process named once, and a same-instant reading replaces the
// stream's previous one.
func TestCounterStreamsExportOrder(t *testing.T) {
	rec := New()
	for st := numStreams - 1; ; st-- {
		rec.Counters(1, st, Value{fmt.Sprintf("s%d", st), KeyCumulative, 1})
		rec.Counters(2, st, Value{fmt.Sprintf("s%d", st), KeyCumulative, 2})
		rec.Counters(2, st, Value{fmt.Sprintf("s%d", st), KeyCumulative, 3})
		if st == 0 {
			break
		}
	}
	var buf bytes.Buffer
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var f chromeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	var procs []int
	named := map[int]int{}
	prev := [2]int{}
	counters := 0
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				named[ev.Pid]++
				procs = append(procs, ev.Pid)
			}
		case "C":
			cur := [2]int{ev.Pid, ev.Tid}
			if cur[0] < prev[0] || cur[0] == prev[0] && cur[1] < prev[1] {
				t.Errorf("counter %s at (pid %d, tid %d) exported after (%d, %d)", ev.Name, cur[0], cur[1], prev[0], prev[1])
			}
			prev = cur
			counters++
			if v := ev.Args[KeyCumulative].(float64); ev.Ts == usec(2) && v != 3 {
				t.Errorf("%s at t=2 = %v, want the superseding reading 3", ev.Name, v)
			}
		}
	}
	if !sort.IntsAreSorted(procs) {
		t.Errorf("process_name pids %v not in pid order", procs)
	}
	for pid, n := range named {
		if n != 1 {
			t.Errorf("pid %d named %d times, want once", pid, n)
		}
	}
	if want := 2 * int(numStreams); counters != want {
		t.Errorf("exported %d counter events, want %d (one per stream per instant)", counters, want)
	}
	for _, c := range rec.Summarize(0).Counters {
		if c.Final != 3 || c.Samples != 2 {
			t.Errorf("summary %s = %d over %d readings, want 3 over 2", c.Name, c.Final, c.Samples)
		}
	}
}

// Worker-pool batches land on the solver stream with each worker slot's
// running task total.
func TestParallelSampleAccumulatesTasks(t *testing.T) {
	rec := New()
	rec.ParallelSample(1, 2, 3, 40, []int64{2, 1})
	rec.ParallelSample(2, 3, 4, 50, []int64{1, 1, 2})
	got := map[string]int64{}
	for _, c := range rec.Summarize(0).Counters {
		got[c.Name+" "+c.Key] = c.Final
	}
	want := map[string]int64{
		"solver.batch.workers live": 3, "solver.batch.components live": 4, "solver.batch.flows live": 50,
		"solver.w0.tasks cumulative": 3, "solver.w1.tasks cumulative": 2, "solver.w2.tasks cumulative": 2,
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("solver counters = %v, want %v", got, want)
	}
}
