package main

// Layer attribution from runtime/pprof profiles. The profiles are decoded
// here (a minimal reader of the profile.proto wire format, so the benchmark
// needs nothing outside the standard library) and every sample is put into
// exactly one layer bucket by the functions on its stack.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"runtime"
	"runtime/pprof"
	"strings"
)

// layers are the profile buckets, in report order. Every sample lands in
// exactly one; "other" keeps what no layer claims visible.
var layers = []string{
	"sim.solver", "sim.pool", "sim.engine", "sim.switch", "runtime.gc",
	"core", "hdf5lite", "mpi", "metaplane", "castore", "gateway", "other",
}

// pkgLayer maps a univistor package to its layer. core's own storage
// internals (tiers, logs, extents, striping, PFS and BB models, workflow
// coordination, placement) count as core; metadata records and the legacy
// ring count as metaplane.
var pkgLayer = map[string]string{
	"core": "core", "tier": "core", "logstore": "core", "extent": "core",
	"striping": "core", "lustre": "core", "bb": "core", "workflow": "core",
	"schedule": "core", "topology": "core",
	"hdf5lite": "hdf5lite",
	"mpi":      "mpi", "mpiio": "mpi",
	"metaplane": "metaplane", "kvstore": "metaplane", "meta": "metaplane",
	"castore": "castore",
	"gateway": "gateway",
}

// gcFuncs mark a stack as garbage collection or allocation wherever they
// appear on it.
var gcFuncs = []string{
	"runtime.gc", "runtime.mallocgc", "runtime.newobject", "runtime.makeslice",
	"runtime.growslice", "runtime.makemap", "runtime.newarray", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.sweepone", "runtime.scanobject", "runtime.scanblock",
	"runtime.scanstack", "runtime.markroot", "runtime.greyobject", "runtime.(*gcWork)",
	"runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mspan)",
	"runtime.(*sweepLocked)", "runtime.wbBuf", "runtime.gcWriteBarrier",
}

// switchFuncs are the runtime's channel, park and scheduling functions:
// the cost of handing control between the engine and its processes.
var switchFuncs = []string{
	"runtime.chansend", "runtime.chanrecv", "runtime.send", "runtime.recv",
	"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.schedule",
	"runtime.findRunnable", "runtime.park_m", "runtime.mcall", "runtime.gosched",
	"runtime.goschedImpl", "runtime.runq", "runtime.stealWork", "runtime.execute",
	"runtime.gogo", "runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.mPark",
	"runtime.note", "runtime.futex", "runtime.lock", "runtime.unlock", "runtime.casgstatus",
	"runtime.selectgo", "runtime.usleep", "runtime.osyield", "runtime.procyield",
	"runtime.semacquire", "runtime.semrelease", "runtime.newproc", "runtime.goexit",
	"runtime.gfget", "runtime.gfput", "runtime.resetspinning", "runtime.acquirep",
	"runtime.releasep", "runtime.checkTimers", "runtime.netpoll", "runtime.injectglist",
	"runtime.mstart", "runtime.morestack", "runtime.newstack", "runtime.copystack",
	"runtime.sendDirect", "runtime.recvDirect",
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// frameLayer names the layer a univistor or benchmark frame belongs to, or
// "" for a frame that defers to its caller (runtime and standard library).
func frameLayer(fn, file string) string {
	if strings.HasPrefix(fn, "main.") {
		return "other"
	}
	rest, ok := strings.CutPrefix(fn, "univistor/internal/")
	if !ok {
		if strings.HasPrefix(fn, "univistor") {
			return "other"
		}
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	if pkg == "sim" {
		switch path.Base(file) {
		case "alloc.go", "components.go":
			return "sim.solver"
		case "parallel.go":
			return "sim.pool"
		}
		return "sim.engine"
	}
	if l, ok := pkgLayer[pkg]; ok {
		return l
	}
	return "other"
}

// cpuLayer buckets one CPU sample: anything under GC or allocation is
// runtime.gc; otherwise the leaf-most frame that is either a scheduling
// function or univistor code decides.
func cpuLayer(stack []frame) string {
	for _, f := range stack {
		if hasAnyPrefix(f.fn, gcFuncs) {
			return "runtime.gc"
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f.fn, "runtime.") && hasAnyPrefix(f.fn, switchFuncs) {
			return "sim.switch"
		}
		if l := frameLayer(f.fn, f.file); l != "" {
			return l
		}
	}
	return "other"
}

// allocLayer buckets one allocation sample by its allocating site: the
// leaf-most univistor or benchmark frame.
func allocLayer(stack []frame) string {
	for _, f := range stack {
		if l := frameLayer(f.fn, f.file); l != "" {
			return l
		}
	}
	return "other"
}

// layerProfile is a profile reduced to one value per layer.
type layerProfile struct {
	values  map[string]float64
	samples int64
}

// bucket reduces a decoded profile: value index vi of each sample, scaled
// by scale, summed per layer.
func (p *profile) bucket(vi int, scale float64, classify func([]frame) string) layerProfile {
	lp := layerProfile{values: map[string]float64{}}
	for _, s := range p.samples {
		if vi >= len(s.values) || s.values[vi] == 0 {
			continue
		}
		lp.samples++
		lp.values[classify(p.stack(s))] += float64(s.values[vi]) * scale
	}
	return lp
}

// cpuProfile profiles fn and returns the host seconds per layer.
func cpuProfile(fn func()) (layerProfile, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return layerProfile{}, fmt.Errorf("start cpu profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	p, err := decodeProfile(buf.Bytes())
	if err != nil {
		return layerProfile{}, fmt.Errorf("cpu profile: %w", err)
	}
	vi := p.valueIndex("cpu")
	if vi < 0 {
		return layerProfile{}, errors.New("cpu profile has no cpu sample type")
	}
	return p.bucket(vi, 1e-9, cpuLayer), nil
}

// allocSnapshot returns the cumulative allocated megabytes per layer so
// far. Two GCs first: the runtime publishes allocation records only at the
// end of a cycle.
func allocSnapshot() (layerProfile, error) {
	runtime.GC()
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return layerProfile{}, fmt.Errorf("write allocs profile: %w", err)
	}
	p, err := decodeProfile(buf.Bytes())
	if err != nil {
		return layerProfile{}, fmt.Errorf("allocs profile: %w", err)
	}
	vi := p.valueIndex("alloc_space")
	if vi < 0 {
		return layerProfile{}, errors.New("allocs profile has no alloc_space sample type")
	}
	return p.bucket(vi, 1e-6, allocLayer), nil
}

// ---------------------------------------------------------------------------
// A minimal profile.proto reader.

type frame struct{ fn, file string }

type sample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	sampleTypes []int64 // string-table index of each value's type
	samples     []sample
	locs        map[uint64][]uint64 // location id -> function ids, leaf first
	funcs       map[uint64][2]int64 // function id -> name, file string indexes
	strs        []string
}

func (p *profile) valueIndex(typ string) int {
	for i, t := range p.sampleTypes {
		if t >= 0 && int(t) < len(p.strs) && p.strs[t] == typ {
			return i
		}
	}
	return -1
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// stack returns a sample's frames, leaf first, inlined frames expanded.
func (p *profile) stack(s sample) []frame {
	var out []frame
	for _, l := range s.locs {
		for _, fid := range p.locs[l] {
			f := p.funcs[fid]
			out = append(out, frame{p.str(f[0]), p.str(f[1])})
		}
	}
	return out
}

func decodeProfile(data []byte) (*profile, error) {
	if len(data) > 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64][2]int64{}}
	err := fields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var typ int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typ = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case 2: // sample
			var s sample
			err := fields(b, func(n int, v uint64, vb []byte) error {
				switch n {
				case 1:
					return repeated(v, vb, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return repeated(v, vb, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, vb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(vb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var f [2]int64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					f[0] = int64(v)
				case 4:
					f[1] = int64(v)
				}
				return nil
			})
			p.funcs[id] = f
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("truncated protobuf")

func varint(b []byte) (uint64, int, error) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1, nil
		}
	}
	return 0, 0, errTruncated
}

// fields walks a message, calling fn with each field's number and either
// its varint value or its length-delimited bytes.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n, err := varint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, n, err = varint(b); err != nil {
				return err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n, err := varint(b)
			if err != nil || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("protobuf wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// repeated decodes a repeated varint field in either its packed (data set)
// or unpacked (one value) encoding.
func repeated(v uint64, data []byte, fn func(uint64)) error {
	if data == nil {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n, err := varint(data)
		if err != nil {
			return err
		}
		fn(x)
		data = data[n:]
	}
	return nil
}
