package main

// Tracing for the traced run: a wrapper around the MPI-IO driver that
// records one span per call into core, host spans around the setup calls
// and Engine.Run, and a sim.AllocTracer that counts engine flow starts.
// Spans stay in memory; the report carries their summary.

import (
	"time"

	"univistor/internal/mpi"
	"univistor/internal/mpiio"
	"univistor/internal/sim"
)

// opKind is the kind of a call across the mpiio boundary into core.
type opKind uint8

const (
	opOpen opKind = iota
	opWrite
	opRead
	opFlush
	opDelete
	opClose
	numOps
)

var opNames = [numOps]string{"open", "write", "read", "flush", "delete", "close"}

// span is one call into core: virtual and host start and end.
type span struct {
	kind         opKind
	rank         int32
	vStart, vEnd sim.Time
	hStart, hEnd time.Duration // since the tracer's epoch
}

// hostSpan times one setup call or Engine.Run on the host.
type hostSpan struct {
	name       string
	start, end time.Duration
}

type tracer struct {
	epoch time.Time
	spans []span
	host  []hostSpan
	sim   *simCounter
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), sim: &simCounter{}}
}

// span runs fn, recording a host span when t is non-nil.
func (t *tracer) span(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	s := time.Since(t.epoch)
	fn()
	t.host = append(t.host, hostSpan{name, s, time.Since(t.epoch)})
}

// record times one call of the given kind on rank r.
func (t *tracer) record(kind opKind, r *mpi.Rank, fn func() error) error {
	s := span{kind: kind, rank: int32(r.Rank()), vStart: r.Now(), hStart: time.Since(t.epoch)}
	err := fn()
	s.vEnd, s.hEnd = r.Now(), time.Since(t.epoch)
	t.spans = append(t.spans, s)
	return err
}

// wrap returns a driver that forwards to d and records every call.
func (t *tracer) wrap(d mpiio.Driver) mpiio.Driver { return &tracedDriver{d, t} }

type tracedDriver struct {
	inner mpiio.Driver
	t     *tracer
}

func (d *tracedDriver) Name() string { return d.inner.Name() }

func (d *tracedDriver) Open(r *mpi.Rank, name string, mode mpiio.Mode) (mpiio.File, error) {
	var f mpiio.File
	err := d.t.record(opOpen, r, func() (err error) {
		f, err = d.inner.Open(r, name, mode)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &tracedFile{f, r, d.t}, nil
}

// tracedFile forwards every optional interface the wrapped file has; a
// wrapper that hid Tagger, Flusher or Deleter would silently change what
// the kernels do (no content tags means no dedup).
type tracedFile struct {
	inner mpiio.File
	r     *mpi.Rank
	t     *tracer
}

func (f *tracedFile) Name() string { return f.inner.Name() }

func (f *tracedFile) WriteAt(off, size int64, data []byte) error {
	return f.t.record(opWrite, f.r, func() error { return f.inner.WriteAt(off, size, data) })
}

func (f *tracedFile) ReadAt(off, size int64) ([]byte, error) {
	var b []byte
	err := f.t.record(opRead, f.r, func() (err error) {
		b, err = f.inner.ReadAt(off, size)
		return err
	})
	return b, err
}

func (f *tracedFile) Close() error {
	return f.t.record(opClose, f.r, f.inner.Close)
}

func (f *tracedFile) WriteAtTagged(off, size int64, data []byte, tag uint64) error {
	return f.t.record(opWrite, f.r, func() error { return mpiio.WriteTagged(f.inner, off, size, data, tag) })
}

func (f *tracedFile) Flush() error {
	fl, ok := f.inner.(mpiio.Flusher)
	if !ok {
		return nil
	}
	return f.t.record(opFlush, f.r, fl.Flush)
}

func (f *tracedFile) Delete(off, size int64) (int, error) {
	d, ok := f.inner.(mpiio.Deleter)
	if !ok {
		return 0, nil
	}
	var n int
	err := f.t.record(opDelete, f.r, func() (err error) {
		n, err = d.Delete(off, size)
		return err
	})
	return n, err
}

var (
	_ mpiio.Tagger  = (*tracedFile)(nil)
	_ mpiio.Flusher = (*tracedFile)(nil)
	_ mpiio.Deleter = (*tracedFile)(nil)
)

// opSummary is the per-kind view of the spans: call count and the p99 of
// the virtual duration as metrics, and the summed host duration for the
// report (host duration includes the time a call's process sat parked
// while the engine ran others, so it is not the call's self time).
func (t *tracer) opSummary() (metrics, hostS map[string]float64) {
	var durs [numOps][]float64
	metrics, hostS = map[string]float64{}, map[string]float64{}
	for _, s := range t.spans {
		durs[s.kind] = append(durs[s.kind], float64(s.vEnd-s.vStart))
		hostS["core."+opNames[s.kind]] += (s.hEnd - s.hStart).Seconds()
	}
	for k, name := range opNames {
		metrics["core."+name+".calls"] = float64(len(durs[k]))
		metrics["core."+name+".sim_p99_ms"] = quantile(durs[k], 0.99) * 1e3
	}
	return metrics, hostS
}

// simCounter is the benchmark's sim.AllocTracer: it counts what the engine
// reports and keeps nothing else.
type simCounter struct {
	flowsStarted int64
}

func (c *simCounter) FlowBegin(sim.Time, int64, float64, []*sim.Resource) { c.flowsStarted++ }
func (c *simCounter) FlowEnd(sim.Time, int64)                             {}
func (c *simCounter) ResourceSample(sim.Time, *sim.Resource, float64)     {}
func (c *simCounter) Instant(sim.Time, string, string)                    {}
func (c *simCounter) AllocSample(sim.Time, sim.AllocStats, int)           {}

var _ sim.AllocTracer = (*simCounter)(nil)
