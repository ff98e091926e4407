// Package trace is the structured event-tracing and telemetry subsystem:
// typed spans and instant events keyed by virtual sim.Time, per-process
// append-only buffers, fluid-flow async events, per-resource rate samples
// (utilization timelines), and per-subsystem counter streams. Recordings
// export to Chrome trace-event JSON (loadable in Perfetto, see export.go)
// and to a compact summary with per-category duration percentiles,
// per-resource busy fractions and final counter values (see summary.go).
//
// The recorder is designed so that *disabled tracing costs one nil check*:
// every method on a nil *Recorder returns immediately without touching its
// arguments, so instrumentation sites pass a possibly-nil recorder and
// never branch themselves. The simulation engine serializes all process
// execution (handoffs synchronize through channels), so event appends need
// no locks; buffers are plain slices grown in the emitting track.
package trace

import (
	"fmt"

	"univistor/internal/sim"
)

// Category classifies events for filtering and summarization. The
// well-known categories below cover the UniviStor stack; storage layers
// use "tier:<name>" (see TierCategory).
type Category string

// The stack's event categories.
const (
	// CatMPI: collectives, sends, and blocking receives.
	CatMPI Category = "mpi"
	// CatMeta: metadata record and open/close server operations.
	CatMeta Category = "meta"
	// CatMetaPlane: replicated metadata-plane operations (sharded commit,
	// failover, recovery).
	CatMetaPlane Category = "metaplane"
	// CatWrite: client write path.
	CatWrite Category = "write"
	// CatRead: client read path.
	CatRead Category = "read"
	// CatFlush: server-side asynchronous flush.
	CatFlush Category = "flush"
	// CatPromote: proactive-placement promotions.
	CatPromote Category = "promote"
	// CatReplicate: volatile-tier buddy replication.
	CatReplicate Category = "replicate"
	// CatFlow: fluid-flow transfers inside the simulation engine.
	CatFlow Category = "flow"
	// CatCAS: content-addressed store operations (dedup planning, GC flows).
	CatCAS Category = "cas"
	// CatChaos: fault injections and invariant sweeps of the chaos harness.
	CatChaos Category = "chaos"
	// CatGateway: multi-tenant gateway operations (admission, tenant ops).
	CatGateway Category = "gateway"
)

// TierCategory returns the category of a storage layer, e.g. "tier:DRAM".
func TierCategory(tierName string) Category { return Category("tier:" + tierName) }

// instantDur marks an event as an instant (no duration).
const instantDur = -2

// openDur marks a span whose End has not run yet.
const openDur = -1

// Event is one recorded span or instant on a track.
type Event struct {
	Name  string
	Cat   Category
	Start sim.Time
	// Dur is the span length in virtual seconds; openDur for a span still
	// open, instantDur for an instant event.
	Dur float64
}

// track is one process's (or synthetic source's) append-only event buffer.
type track struct {
	name   string
	events []Event
}

// flowSpan is one fluid transfer: an async begin/end pair.
type flowSpan struct {
	id    int64
	name  string
	start sim.Time
	end   sim.Time
	open  bool
}

// sample is one point of a resource's allocated-rate timeline.
type sample struct {
	t    sim.Time
	rate float64 // bytes/s allocated across the resource at t
}

// counter is one resource's rate timeline.
type counter struct {
	name     string
	capacity float64
	samples  []sample
}

// Stream is one of the recorder's counter streams: a fixed group of
// counter tracks one subsystem records into with Counters. Each stream
// exports under its own Perfetto process and thread (see streamTracks);
// the constants are declared in that (pid, tid) order, which is the
// export order.
type Stream uint8

// The counter streams.
const (
	// StreamAlloc: the engine's allocator counters (sim.AllocTracer).
	StreamAlloc Stream = iota
	// StreamSolver: worker-pool batches (sim.ParallelTracer). Host
	// telemetry: task placement is work-stealing, so the stream is not
	// deterministic across runs and never feeds byte-compared output.
	StreamSolver
	// StreamMetaOps: the metadata plane's cumulative ops per shard.
	StreamMetaOps
	// StreamMetaLease: the metadata plane's lease and split counters.
	StreamMetaLease
	// StreamCAS: the content-addressed store's flush and GC bytes.
	StreamCAS
	numStreams
)

// The arg keys Perfetto plots a counter value under.
const (
	KeyLive       = "live"       // a level at the instant
	KeyCumulative = "cumulative" // a running total
	KeyPending    = "pending"    // a backlog awaiting work
)

// Value is one counter reading: the track name, the arg key Perfetto
// plots it under, and the value.
type Value struct {
	Name string
	Key  string
	V    int64
}

// reading is one instant of a counter stream; its values run from start
// in the stream's vals up to the next reading's start.
type reading struct {
	t     sim.Time
	start int
}

// counterStream is one stream's timeline, its values in one flat buffer.
type counterStream struct {
	readings []reading
	vals     []Value
}

// values returns the values of reading i.
func (cs *counterStream) values(i int) []Value {
	end := len(cs.vals)
	if i+1 < len(cs.readings) {
		end = cs.readings[i+1].start
	}
	return cs.vals[cs.readings[i].start:end]
}

// Recorder accumulates a simulation's trace. The zero value is not usable;
// create one with New. A nil *Recorder is the disabled recorder: every
// method no-ops after one nil check.
type Recorder struct {
	tracks  []*track
	byProc  map[int64]int32  // sim.Proc ID -> track index
	byName  map[string]int32 // synthetic track name -> track index
	flows   []flowSpan
	flowIdx map[int64]int32 // open flow id -> index into flows

	counters     map[*sim.Resource]*counter
	counterOrder []*sim.Resource // registration order, for deterministic export

	streams [numStreams]counterStream
	// workerTasks is the cumulative task count per worker slot, the
	// solver stream's running totals.
	workerTasks []int64

	maxTime sim.Time // latest event time seen; clamps still-open spans
}

// The recorder implements the engine's extended tracing hooks.
var (
	_ sim.AllocTracer    = (*Recorder)(nil)
	_ sim.ParallelTracer = (*Recorder)(nil)
)

// New returns an empty enabled recorder.
func New() *Recorder {
	return &Recorder{
		byProc:   map[int64]int32{},
		byName:   map[string]int32{},
		flowIdx:  map[int64]int32{},
		counters: map[*sim.Resource]*counter{},
	}
}

// Enabled reports whether events will be recorded. Hot paths may use it to
// skip argument construction entirely.
func (r *Recorder) Enabled() bool { return r != nil }

// note advances the recording's end-of-time watermark.
func (r *Recorder) note(t sim.Time) {
	if t > r.maxTime {
		r.maxTime = t
	}
}

// procTrack returns (creating if needed) the track of a simulated process.
func (r *Recorder) procTrack(p *sim.Proc) int32 {
	if idx, ok := r.byProc[p.ID()]; ok {
		return idx
	}
	idx := int32(len(r.tracks))
	r.tracks = append(r.tracks, &track{name: p.Name()})
	r.byProc[p.ID()] = idx
	return idx
}

// namedTrack returns (creating if needed) a synthetic track, e.g. the
// engine's own diagnostics track.
func (r *Recorder) namedTrack(name string) int32 {
	if idx, ok := r.byName[name]; ok {
		return idx
	}
	idx := int32(len(r.tracks))
	r.tracks = append(r.tracks, &track{name: name})
	r.byName[name] = idx
	return idx
}

// Span is a handle on an open span, returned by Begin. The zero value
// (from a disabled recorder) is inert: End on it is a no-op.
type Span struct {
	r     *Recorder
	track int32
	idx   int32
}

// Begin opens a span on the process's track at the process's current
// virtual time. Close it with Span.End. On a nil recorder it returns the
// inert zero Span without touching p.
func (r *Recorder) Begin(p *sim.Proc, cat Category, name string) Span {
	if r == nil {
		return Span{}
	}
	ti := r.procTrack(p)
	tr := r.tracks[ti]
	now := p.Now()
	r.note(now)
	tr.events = append(tr.events, Event{Name: name, Cat: cat, Start: now, Dur: openDur})
	return Span{r: r, track: ti, idx: int32(len(tr.events) - 1)}
}

// End closes the span at virtual time t. Ending an already-closed span or
// the zero Span is a no-op.
func (s Span) End(t sim.Time) {
	if s.r == nil {
		return
	}
	ev := &s.r.tracks[s.track].events[s.idx]
	if ev.Dur != openDur {
		return
	}
	s.r.note(t)
	ev.Dur = float64(t - ev.Start)
}

// Mark records an instant event on the process's track.
func (r *Recorder) Mark(p *sim.Proc, cat Category, name string) {
	if r == nil {
		return
	}
	ti := r.procTrack(p)
	now := p.Now()
	r.note(now)
	r.tracks[ti].events = append(r.tracks[ti].events,
		Event{Name: name, Cat: cat, Start: now, Dur: instantDur})
}

// ---------------------------------------------------------------------------
// sim.Tracer implementation: the hooks the engine drives directly.

// engineTrack is the synthetic track engine-level instants land on.
const engineTrack = "engine"

// Instant records an engine-level instant event (sim.Tracer hook).
func (r *Recorder) Instant(t sim.Time, cat, name string) {
	if r == nil {
		return
	}
	ti := r.namedTrack(engineTrack)
	r.note(t)
	r.tracks[ti].events = append(r.tracks[ti].events,
		Event{Name: name, Cat: Category(cat), Start: t, Dur: instantDur})
}

// FlowBegin records the start of a fluid transfer (sim.Tracer hook). The
// flow renders as an async span labelled with its path's resource names.
func (r *Recorder) FlowBegin(t sim.Time, id int64, size float64, resources []*sim.Resource) {
	if r == nil {
		return
	}
	r.note(t)
	name := "flow"
	if len(resources) > 0 {
		name = resources[0].Name
		for i := 1; i < len(resources) && i < 3; i++ {
			name += "+" + resources[i].Name
		}
		if len(resources) > 3 {
			name += "+…"
		}
	}
	r.flowIdx[id] = int32(len(r.flows))
	r.flows = append(r.flows, flowSpan{id: id, name: name, start: t, open: true})
}

// FlowEnd records the completion of a fluid transfer (sim.Tracer hook).
func (r *Recorder) FlowEnd(t sim.Time, id int64) {
	if r == nil {
		return
	}
	idx, ok := r.flowIdx[id]
	if !ok {
		return
	}
	delete(r.flowIdx, id)
	r.note(t)
	r.flows[idx].end = t
	r.flows[idx].open = false
}

// ResourceSample records the allocated rate (bytes/s) across a resource at
// time t (sim.Tracer hook, called after every rate recomputation). The
// sample holds until the next one, giving a step-function utilization
// timeline.
func (r *Recorder) ResourceSample(t sim.Time, res *sim.Resource, rate float64) {
	if r == nil {
		return
	}
	c := r.counters[res]
	if c == nil {
		c = &counter{name: res.Name, capacity: res.Capacity}
		r.counters[res] = c
		r.counterOrder = append(r.counterOrder, res)
	}
	r.note(t)
	// Same-instant recomputes supersede each other: keep the last value.
	if n := len(c.samples); n > 0 && c.samples[n-1].t == t {
		c.samples[n-1].rate = rate
		return
	}
	c.samples = append(c.samples, sample{t: t, rate: rate})
}

// Counters records a reading of stream s at time t. A reading at the
// same instant as the stream's previous one supersedes it. vals is not
// retained.
func (r *Recorder) Counters(t sim.Time, s Stream, vals ...Value) {
	if r == nil {
		return
	}
	r.note(t)
	cs := &r.streams[s]
	if n := len(cs.readings); n > 0 && cs.readings[n-1].t == t {
		cs.vals = cs.vals[:cs.readings[n-1].start]
	} else {
		cs.readings = append(cs.readings, reading{t: t, start: len(cs.vals)})
	}
	cs.vals = append(cs.vals, vals...)
}

// AllocSample records the engine's allocator counters after a
// dirty-batch solve (sim.AllocTracer hook).
func (r *Recorder) AllocSample(t sim.Time, s sim.AllocStats, liveComponents int) {
	r.Counters(t, StreamAlloc,
		Value{"alloc.components", KeyLive, int64(liveComponents)},
		Value{"alloc.flows_solved", KeyCumulative, s.FlowsSolved})
}

// ParallelSample records one worker-pool batch (sim.ParallelTracer hook):
// its fan-out width, task and flow counts, and each worker slot's
// cumulative task count. perWorker is engine scratch and is not retained.
func (r *Recorder) ParallelSample(t sim.Time, workers, components, flows int, perWorker []int64) {
	if r == nil {
		return
	}
	vals := []Value{
		{"solver.batch.workers", KeyLive, int64(workers)},
		{"solver.batch.components", KeyLive, int64(components)},
		{"solver.batch.flows", KeyLive, int64(flows)},
	}
	for i, n := range perWorker {
		if i == len(r.workerTasks) {
			r.workerTasks = append(r.workerTasks, 0)
		}
		r.workerTasks[i] += n
		vals = append(vals, Value{fmt.Sprintf("solver.w%d.tasks", i), KeyCumulative, r.workerTasks[i]})
	}
	r.Counters(t, StreamSolver, vals...)
}

// Events returns the total number of recorded track events (spans and
// instants), for tests and reporting.
func (r *Recorder) Events() int {
	if r == nil {
		return 0
	}
	n := 0
	for _, tr := range r.tracks {
		n += len(tr.events)
	}
	return n
}

// Flows returns the number of recorded fluid transfers.
func (r *Recorder) Flows() int {
	if r == nil {
		return 0
	}
	return len(r.flows)
}
