package sim

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
)

// A resource degraded to zero capacity must park its flows (rate 0, no
// progress, no stall-forever busy loop) and resume them when a recompute
// sees the capacity restored; Utilization must report 0, not NaN.
func TestDegradeToZeroParksAndResumes(t *testing.T) {
	e := NewEngine()
	nic := NewResource("nic", 100)
	disk := NewResource("disk", 100)
	var done Time
	e.Go("w", func(p *Proc) {
		p.Transfer(1000, nic, disk) // alone: 10s at 100 B/s
		done = p.Now()
	})
	e.At(2, func() { // 200 B transferred, 800 B left
		disk.Capacity = 0
		e.RecomputeResources(disk)
	})
	e.At(5, func() {
		if u := disk.Utilization(e); u != 0 || math.IsNaN(u) {
			t.Errorf("Utilization of zero-capacity resource = %v, want 0", u)
		}
		if n := e.ActiveFlows(); n != 1 {
			t.Errorf("parked flow vanished: ActiveFlows = %d", n)
		}
		if s := e.AllocStats(); s.ParkedFlows == 0 {
			t.Error("AllocStats.ParkedFlows = 0, want > 0")
		}
	})
	e.At(10, func() { // parked for 8s, then full speed again
		disk.Capacity = 100
		e.RecomputeResources(disk)
	})
	e.Run()
	if done == 0 {
		t.Fatal("flow never completed after capacity restore")
	}
	// 2s of transfer before the outage + 8s parked + 8s for the rest.
	if want := Time(18); math.Abs(float64(done-want)) > 1e-6 {
		t.Errorf("completion at t=%v, want %v", done, want)
	}
	if u := disk.Utilization(e); u != 0 {
		t.Errorf("idle Utilization = %v, want 0", u)
	}
}

// A flow started while its path already crosses a zero-capacity resource
// must park immediately instead of dividing by zero, and run once the
// capacity comes back.
func TestStartAcrossZeroCapacityResource(t *testing.T) {
	e := NewEngine()
	r := NewResource("link", 50)
	r.Capacity = 0
	var done Time
	e.Go("w", func(p *Proc) {
		p.Transfer(100, r)
		done = p.Now()
	})
	e.At(4, func() {
		r.Capacity = 50
		e.RecomputeResources(r)
	})
	e.Run()
	if want := Time(6); math.Abs(float64(done-want)) > 1e-6 {
		t.Errorf("completion at t=%v, want %v", done, want)
	}
}

// scenario is one randomized workload for the equivalence property test:
// a shared pool of resources, flows with overlapping random paths and
// staggered starts, and capacity-change events including full outages.
type scenario struct {
	caps   []float64
	flows  []scenFlow
	events []scenEvent
}

type scenFlow struct {
	start Time
	size  float64
	path  []int // resource indices, may repeat across flows
}

type scenEvent struct {
	at   Time
	res  int
	frac float64 // 0 = outage; new capacity = original * frac
}

func randomScenario(r *rand.Rand) scenario {
	var sc scenario
	nres := 2 + r.Intn(12)
	for i := 0; i < nres; i++ {
		sc.caps = append(sc.caps, 10+990*r.Float64())
	}
	nflows := 2 + r.Intn(199)
	for i := 0; i < nflows; i++ {
		plen := 1 + r.Intn(4)
		path := make([]int, plen)
		for j := range path {
			path[j] = r.Intn(nres)
		}
		sc.flows = append(sc.flows, scenFlow{
			start: Time(r.Float64() * 20),
			size:  1 + 5000*r.Float64(),
			path:  path,
		})
	}
	for i := 0; i < r.Intn(6); i++ {
		frac := 0.0
		if r.Intn(2) == 0 {
			frac = 0.05 + 0.9*r.Float64()
		}
		sc.events = append(sc.events, scenEvent{
			at:   Time(r.Float64() * 30),
			res:  r.Intn(nres),
			frac: frac,
		})
	}
	return sc
}

// run executes the scenario under the given allocator mode and returns
// each flow's completion time (exactly as computed) plus the final clock.
func (sc scenario) run(t *testing.T, mode AllocMode, diff bool) ([]Time, Time) {
	t.Helper()
	e := NewEngine()
	e.SetAllocMode(mode)
	e.SetDifferentialCheck(diff)
	rs := make([]*Resource, len(sc.caps))
	for i, c := range sc.caps {
		rs[i] = NewResource("r", c)
	}
	completed := make([]Time, len(sc.flows))
	for i := range completed {
		completed[i] = -1
	}
	for i, f := range sc.flows {
		i, f := i, f
		e.At(f.start, func() {
			path := make([]*Resource, len(f.path))
			for j, ri := range f.path {
				path[j] = rs[ri]
			}
			e.StartTransfer(f.size, func() { completed[i] = e.Now() }, path...)
		})
	}
	for _, ev := range sc.events {
		ev := ev
		e.At(ev.at, func() {
			rs[ev.res].Capacity = sc.caps[ev.res] * ev.frac
			e.RecomputeResources(rs[ev.res])
		})
	}
	// Lift every outage late so parked flows finish and the runs compare
	// complete executions.
	e.At(1000, func() {
		for i, r := range rs {
			r.Capacity = sc.caps[i]
		}
		e.RecomputeResources(rs...)
	})
	end := e.Run()
	return completed, end
}

// The incremental component-based allocator must be observationally
// identical to the global reference solver: same completion time for
// every flow (exact float equality) on randomized overlapping topologies
// with capacity changes and outages.
func TestAllocEquivalenceRandomized(t *testing.T) {
	trials := 25
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		r := rand.New(rand.NewSource(int64(1000 + trial)))
		sc := randomScenario(r)
		inc, incEnd := sc.run(t, AllocIncremental, trial%5 == 0)
		glob, globEnd := sc.run(t, AllocGlobal, false)
		if incEnd != globEnd {
			t.Fatalf("trial %d: final clock %v (incremental) != %v (global)", trial, incEnd, globEnd)
		}
		for i := range inc {
			if inc[i] == -1 || glob[i] == -1 {
				t.Fatalf("trial %d: flow %d never completed (incremental=%v global=%v)", trial, i, inc[i], glob[i])
			}
			if inc[i] != glob[i] {
				t.Fatalf("trial %d: flow %d completion %v (incremental) != %v (global)",
					trial, i, float64(inc[i]), float64(glob[i]))
			}
		}
	}
}

// The differential mode must actually run: every dirty batch cross-checks
// the incremental rates against the reference solver.
func TestDifferentialCheckCountsBatches(t *testing.T) {
	e := NewEngine()
	e.SetDifferentialCheck(true)
	r1 := NewResource("a", 100)
	r2 := NewResource("b", 100)
	e.Go("w1", func(p *Proc) { p.Transfer(300, r1) })
	e.Go("w2", func(p *Proc) { p.Transfer(300, r1, r2) })
	e.Go("w3", func(p *Proc) { p.Transfer(300, r2) })
	e.Run()
	s := e.AllocStats()
	if s.DiffChecks == 0 {
		t.Fatal("differential mode enabled but DiffChecks = 0")
	}
	if s.Recomputes == 0 || s.ComponentsSolved == 0 {
		t.Fatalf("allocator counters empty: %+v", s)
	}
}

// Recompute diagnostics must go to stderr, never stdout — stdout carries
// machine-readable output (cmd/univistor-sim encodes JSON there).
func TestRecomputeDebugGoesToStderr(t *testing.T) {
	SetRecomputeDebug(1)
	defer SetRecomputeDebug(0)

	oldOut, oldErr := os.Stdout, os.Stderr
	outR, outW, _ := os.Pipe()
	errR, errW, _ := os.Pipe()
	os.Stdout, os.Stderr = outW, errW

	e := NewEngine()
	r := NewResource("disk", 100)
	e.Go("w1", func(p *Proc) { p.Transfer(200, r) })
	e.Go("w2", func(p *Proc) { p.Transfer(400, r) })
	e.Run()

	outW.Close()
	errW.Close()
	os.Stdout, os.Stderr = oldOut, oldErr
	var stdout, stderr bytes.Buffer
	io.Copy(&stdout, outR)
	io.Copy(&stderr, errR)

	if stdout.Len() != 0 {
		t.Errorf("recompute diagnostics leaked to stdout: %q", stdout.String())
	}
	if !strings.Contains(stderr.String(), "[sim] recompute #") {
		t.Errorf("stderr missing recompute diagnostics, got: %q", stderr.String())
	}
}

// solveRates starts one long flow per path at t=0 under the given
// allocator mode, solves once, and returns the rates in start order.
// Resources are created in caps order, so their ids — the share heap's
// tie-break — follow it too.
func solveRates(mode AllocMode, caps []float64, paths [][]int) []float64 {
	e := NewEngine()
	e.SetAllocMode(mode)
	rs := make([]*Resource, len(caps))
	for i, c := range caps {
		rs[i] = NewResource("r", c)
	}
	for _, p := range paths {
		path := make([]*Resource, len(p))
		for j, ri := range p {
			path[j] = rs[ri]
		}
		e.StartTransfer(1e18, func() {}, path...)
	}
	e.RecomputeFlows()
	rates := make([]float64, len(e.flows.active))
	for i, f := range e.flows.active {
		rates[i] = f.rate
	}
	return rates
}

// requireSameBits fails unless the live solver's rates equal the global
// reference solver's bit for bit.
func requireSameBits(t *testing.T, caps []float64, paths [][]int) []float64 {
	t.Helper()
	live := solveRates(AllocIncremental, caps, paths)
	ref := solveRates(AllocGlobal, caps, paths)
	for i := range ref {
		if math.Float64bits(live[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("flow %d: live rate %v != reference %v (live %v, reference %v)", i, live[i], ref[i], live, ref)
		}
	}
	return live
}

// A freeze can lower another resource's share below its heap key: here
// rounding does it. fl(5/3) rounds up, so once A (tied at that share, lower
// id) freezes f0 at it, C's remaining share drops just below the key it
// still shares with D. The lower-bound heap must sift C up so that C, not
// D, is the next bottleneck; without the sift-up, D would win the stale
// tie on id and every rate after A's would change.
func TestLoweredShareSiftsUp(t *testing.T) {
	k := 5.0 / 3 // rounded up
	const a, d, c = 0, 1, 2
	caps := []float64{k, 2 * k, 5}
	paths := [][]int{{a, c}, {c}, {c, d}, {d}}
	rates := requireSameBits(t, caps, paths)
	lowered := (5 - k) / 2
	if lowered >= k {
		t.Fatalf("scenario lost its rounding: (5-k)/2 = %v >= k = %v", lowered, k)
	}
	want := []float64{k, lowered, lowered, 2*k - lowered}
	for i := range want {
		if rates[i] != want[i] {
			t.Errorf("flow %d rate %v, want %v (rates %v)", i, rates[i], want[i], rates)
		}
	}
}

// Equal shares are popped in resource-id order, and here the order shows
// in the rates: X and Y tie at k = fl(5/3) and share flow f. Whichever is
// popped first freezes f at k; the other's leftover share is then exact
// (k) for Y but rounded ((5-k)/2) for X. Both creation orders must match
// the reference bit for bit, and they must differ from each other.
func TestEqualSharesBreakTiesByID(t *testing.T) {
	k := 5.0 / 3
	// X: cap 5 crossed by f, x1, x2. Y: cap 2k crossed by f, y1.
	lowered := (5 - k) / 2
	if lowered == k {
		t.Fatalf("scenario lost its rounding: (5-k)/2 == k = %v", k)
	}
	xFirst := requireSameBits(t, []float64{5, 2 * k}, [][]int{{0, 1}, {0}, {0}, {1}})
	yFirst := requireSameBits(t, []float64{2 * k, 5}, [][]int{{1, 0}, {1}, {1}, {0}})
	if want := []float64{k, k, k, k}; !slices.Equal(xFirst, want) {
		t.Errorf("X popped first: rates %v, want %v", xFirst, want)
	}
	if want := []float64{k, lowered, lowered, k}; !slices.Equal(yFirst, want) {
		t.Errorf("Y popped first: rates %v, want %v", yFirst, want)
	}
}

// BenchmarkComponentSolve measures one water-fill of a single connected
// component — every flow crosses a shared hub plus one of n/4 spokes of
// distinct capacity, so the fill has many levels — at 10, 1k and 16k
// flows, with allocs/op. Each op toggles the hub capacity and re-solves.
func BenchmarkComponentSolve(b *testing.B) {
	for _, n := range []int{10, 1000, 16000} {
		b.Run(fmt.Sprintf("flows=%d", n), func(b *testing.B) {
			e := NewEngine()
			e.SetDifferentialCheck(false) // the oracle allocates by design
			spokes := make([]*Resource, max(1, n/4))
			for i := range spokes {
				spokes[i] = NewResource("spoke", 100+float64(i))
			}
			hubCaps := [2]float64{60 * float64(n), 61 * float64(n)}
			hub := NewResource("hub", hubCaps[0])
			for i := 0; i < n; i++ {
				e.StartTransfer(1e18, func() {}, hub, spokes[i%len(spokes)])
			}
			e.RecomputeFlows() // fold the pending start batch; grows all scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hub.Capacity = hubCaps[i&1]
				e.RecomputeResources(hub)
				// Drop the completion event each solve schedules: Run never
				// pops it, and the heap would otherwise grow with b.N.
				e.events = e.events[:0]
			}
		})
	}
}
