package trace

// Chrome trace-event JSON export. The emitted file loads directly in
// Perfetto (ui.perfetto.dev) and chrome://tracing: simulated processes
// appear as threads of one process (ranks as threads), fluid transfers as
// async spans, and resources as counter tracks plotting allocated
// bandwidth. Virtual times are exported in microseconds, the format's
// native unit.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Process ids of the exported trace: tracks (ranks), resource counters,
// and fluid flows render as three Perfetto process groups; each counter
// stream renders under the process and thread streamTracks gives it.
const (
	pidTracks    = 1
	pidResources = 2
	pidFlows     = 3
)

// streamTracks is each counter stream's Perfetto process and thread, in
// (pid, tid) order.
var streamTracks = [numStreams]struct {
	pid, tid int
	process  string
}{
	StreamAlloc:     {4, 1, "allocator"},
	StreamSolver:    {5, 1, "solver-pool"},
	StreamMetaOps:   {6, 1, "metaplane"},
	StreamMetaLease: {6, 2, "metaplane"},
	StreamCAS:       {7, 1, "cas"},
}

// chromeEvent is one entry of the trace-event array.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds of virtual time
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// chromeFile is the top-level JSON object.
type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// usec converts virtual seconds to the format's microseconds.
func usec(t float64) float64 { return t * 1e6 }

// chromeEvents flattens the recording into trace-event entries, in a
// deterministic order: metadata, then per-track events, flows, resource
// counters, and the counter streams in (pid, tid) order.
func (r *Recorder) chromeEvents() []chromeEvent {
	var out []chromeEvent
	meta := func(pid int, name string) {
		out = append(out, chromeEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name}})
	}
	meta(pidTracks, "ranks")
	meta(pidResources, "resources")
	meta(pidFlows, "flows")
	lastPid := 0
	for s, cs := range r.streams {
		if id := streamTracks[s]; len(cs.readings) > 0 && id.pid != lastPid {
			meta(id.pid, id.process)
			lastPid = id.pid
		}
	}
	for i, tr := range r.tracks {
		out = append(out, chromeEvent{Name: "thread_name", Ph: "M", Pid: pidTracks,
			Tid: i + 1, Args: map[string]any{"name": tr.name}})
	}
	for i, tr := range r.tracks {
		tid := i + 1
		for _, ev := range tr.events {
			ce := chromeEvent{Name: ev.Name, Cat: string(ev.Cat),
				Ts: usec(float64(ev.Start)), Pid: pidTracks, Tid: tid}
			switch {
			case ev.Dur == instantDur:
				ce.Ph = "i"
				ce.S = "t"
			default:
				d := ev.Dur
				if d == openDur { // never ended: clamp at the trace end
					d = float64(r.maxTime - ev.Start)
				}
				du := usec(d)
				ce.Ph = "X"
				ce.Dur = &du
			}
			out = append(out, ce)
		}
	}
	for _, f := range r.flows {
		end := f.end
		if f.open {
			end = r.maxTime
		}
		b := chromeEvent{Name: f.name, Cat: string(CatFlow), Ph: "b",
			Ts: usec(float64(f.start)), Pid: pidFlows, Tid: 1,
			ID: fmt.Sprintf("%#x", f.id)}
		e := b
		e.Ph = "e"
		e.Ts = usec(float64(end))
		out = append(out, b, e)
	}
	for _, res := range r.counterOrder {
		c := r.counters[res]
		for _, s := range c.samples {
			out = append(out, chromeEvent{Name: c.name, Ph: "C",
				Ts: usec(float64(s.t)), Pid: pidResources, Tid: 1,
				Args: map[string]any{"bytes_per_sec": s.rate}})
		}
	}
	// Counter streams, each absent entirely until its subsystem records,
	// so runs without a plane, dedup or a parallel batch export as before.
	for s := range r.streams {
		cs, id := &r.streams[s], streamTracks[s]
		for i, rd := range cs.readings {
			for _, v := range cs.values(i) {
				out = append(out, chromeEvent{Name: v.Name, Ph: "C",
					Ts: usec(float64(rd.t)), Pid: id.pid, Tid: id.tid,
					Args: map[string]any{v.Key: v.V}})
			}
		}
	}
	return out
}

// WriteChrome writes the recording as Chrome trace-event JSON.
func (r *Recorder) WriteChrome(w io.Writer) error {
	if r == nil {
		return fmt.Errorf("trace: cannot export a disabled (nil) recorder")
	}
	f := chromeFile{TraceEvents: r.chromeEvents(), DisplayTimeUnit: "ms"}
	if f.TraceEvents == nil {
		f.TraceEvents = []chromeEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&f)
}

// ExportChromeFile writes the recording to the named file, creating or
// truncating it.
func (r *Recorder) ExportChromeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// CheckReport summarizes a validated Chrome trace-event file.
type CheckReport struct {
	// Events is the total trace-event count, metadata included.
	Events int
	// Spans is the number of complete ("X") span events.
	Spans int
	// Categories lists the distinct span/instant categories, sorted.
	Categories []string
	// CounterTracks is the number of distinct counter ("C") names.
	CounterTracks int
	// Flows is the number of async begin events.
	Flows int
}

// ValidateChrome parses data as Chrome trace-event JSON and verifies the
// structural invariants the exporter guarantees (and Perfetto needs):
// a traceEvents array whose events carry a name and a known phase, with
// finite non-negative timestamps and durations. It reports what the trace
// contains, so callers can assert coverage.
func ValidateChrome(data []byte) (*CheckReport, error) {
	var f chromeFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("trace: invalid JSON: %w", err)
	}
	if len(f.TraceEvents) == 0 {
		return nil, fmt.Errorf("trace: no traceEvents")
	}
	rep := &CheckReport{Events: len(f.TraceEvents)}
	cats := map[string]bool{}
	counters := map[string]bool{}
	for i, ev := range f.TraceEvents {
		if ev.Name == "" {
			return nil, fmt.Errorf("trace: event %d has no name", i)
		}
		if math.IsNaN(ev.Ts) || math.IsInf(ev.Ts, 0) || ev.Ts < 0 {
			return nil, fmt.Errorf("trace: event %d (%s) has bad ts %v", i, ev.Name, ev.Ts)
		}
		switch ev.Ph {
		case "X":
			if ev.Dur == nil || *ev.Dur < 0 || math.IsNaN(*ev.Dur) || math.IsInf(*ev.Dur, 0) {
				return nil, fmt.Errorf("trace: span %d (%s) has bad dur", i, ev.Name)
			}
			rep.Spans++
			if ev.Cat != "" {
				cats[ev.Cat] = true
			}
		case "i", "I":
			if ev.Cat != "" {
				cats[ev.Cat] = true
			}
		case "b":
			if ev.ID == "" {
				return nil, fmt.Errorf("trace: async begin %d (%s) has no id", i, ev.Name)
			}
			rep.Flows++
		case "e":
			if ev.ID == "" {
				return nil, fmt.Errorf("trace: async end %d (%s) has no id", i, ev.Name)
			}
		case "C":
			counters[ev.Name] = true
		case "M":
		default:
			return nil, fmt.Errorf("trace: event %d (%s) has unknown phase %q", i, ev.Name, ev.Ph)
		}
	}
	for c := range cats {
		rep.Categories = append(rep.Categories, c)
	}
	sort.Strings(rep.Categories)
	rep.CounterTracks = len(counters)
	return rep, nil
}
