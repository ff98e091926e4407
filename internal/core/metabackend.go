package core

// The metadata backend seam, the one place core chooses its metadata
// store: the legacy kvstore.Ring, charged on core's own server queues (the
// paper figures depend on those exact costs), or the sharded, replicated
// metaplane.Plane, which charges its own transport, commits and leases.

import (
	"fmt"

	"univistor/internal/kvstore"
	"univistor/internal/meta"
	"univistor/internal/metaplane"
	"univistor/internal/sim"
	"univistor/internal/trace"
)

// metaBackend is the metadata key-value service behind every client path.
// An index is a metadata server (ring) or a shard id (plane).
type metaBackend interface {
	// put inserts rec with one charged round trip, returning the exact-key
	// record it replaced and the serving index.
	put(p *sim.Proc, fromNode int, rec meta.Record) (prev meta.Record, replaced bool, idx int)
	// covering resolves the records overlapping [off, off+size) and the
	// indices holding them, free of charge.
	covering(fid meta.FileID, off, size int64) ([]meta.Record, []int)
	lookup(p *sim.Proc, fromNode, idx int) // one charged read round trip
	delete(p *sim.Proc, fromNode int, fid meta.FileID, off int64) (existed bool, idx int)
	// repoint rewrites a record's placement; charged is false when free.
	repoint(p *sim.Proc, fromNode int, rec meta.Record) (idx int, charged bool)
	// stat charges a client Stat; fid is zero for a missing file.
	stat(p *sim.Proc, fromNode int, name string, fid meta.FileID)
	// deleteRange charges the round trip closing a range delete at off.
	deleteRange(p *sim.Proc, fromNode int, off int64)
	checkInvariants() []string
}

// ---------------------------------------------------------------------------
// Ring backend: the default, one logical ring over core's servers. Ring
// index i is served by server i; with CentralMetadata the ring has a single
// store, so every op lands on server 0.

type ringMeta struct {
	sys  *System
	ring *kvstore.Ring
}

func newRingMeta(sys *System) *ringMeta {
	n := len(sys.W.Cluster.Nodes) * sys.Cfg.ServersPerNode
	if sys.Cfg.CentralMetadata {
		n = 1
	}
	return &ringMeta{sys: sys, ring: kvstore.NewRing(n, sys.Cfg.MetaRangeSize)}
}

// charge costs one record operation from a process on fromNode against
// server srv: transport latency (shared memory when co-located, network
// otherwise) plus the serialized service on the server's queue, which open
// ops share.
func (b *ringMeta) charge(p *sim.Proc, fromNode int, srv *Server) {
	b.sys.stats.MetaOps++
	sp := b.sys.W.Trace.Begin(p, trace.CatMeta, "meta-op")
	b.sys.chargeOp(p, fromNode, srv, b.sys.Cfg.MetaOpTime)
	sp.End(p.Now())
}

func (b *ringMeta) put(p *sim.Proc, fromNode int, rec meta.Record) (meta.Record, bool, int) {
	srv := b.ring.HomeServer(rec.Offset)
	b.charge(p, fromNode, b.sys.servers[srv])
	prev, replaced := b.ring.Get(rec.FID, rec.Offset)
	b.ring.Put(rec)
	return prev, replaced, srv
}

func (b *ringMeta) covering(fid meta.FileID, off, size int64) ([]meta.Record, []int) {
	return b.ring.Covering(fid, off, size)
}

func (b *ringMeta) lookup(p *sim.Proc, fromNode, idx int) {
	b.charge(p, fromNode, b.sys.servers[idx])
}

// Deletes and repoints are free on the ring: a range delete pays one round
// trip for the whole range (deleteRange), and a promotion already paid for
// moving the bytes it repoints.
func (b *ringMeta) delete(_ *sim.Proc, _ int, fid meta.FileID, off int64) (bool, int) {
	return b.ring.Delete(fid, off), b.ring.HomeServer(off)
}

func (b *ringMeta) repoint(_ *sim.Proc, _ int, rec meta.Record) (int, bool) {
	return b.ring.Put(rec), false
}

func (b *ringMeta) stat(p *sim.Proc, fromNode int, name string, _ meta.FileID) {
	b.charge(p, fromNode, b.sys.homeServer(name))
}

func (b *ringMeta) deleteRange(p *sim.Proc, fromNode int, off int64) {
	b.charge(p, fromNode, b.sys.servers[b.ring.HomeServer(off)])
}

func (b *ringMeta) checkInvariants() []string {
	if err := b.ring.Validate(); err != nil {
		return []string{err.Error()}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Plane backend: the sharded replicated metadata plane (Cfg.MetaShards > 0).

type planeMeta struct {
	sys *System
	pl  *metaplane.Plane
}

// newPlaneMeta builds the plane and wires it into the deployment: split
// migrations as real flows, split completion into the explain log and the
// invariant hook, and the trace recorder's counter tracks.
func newPlaneMeta(sys *System) (*planeMeta, error) {
	cfg := sys.Cfg
	w := sys.W
	nNodes := len(w.Cluster.Nodes)
	replicas := cfg.MetaReplicas
	if replicas <= 0 {
		replicas = 1
	}
	sys.Cfg.MetaReplicas = replicas
	apply := cfg.MetaApplyTime
	if apply <= 0 {
		apply = cfg.MetaOpTime / 2
	}
	pl, err := metaplane.New(metaplane.Config{
		Shards:          cfg.MetaShards,
		Replicas:        replicas,
		Nodes:           nNodes,
		RangeSize:       cfg.MetaRangeSize,
		SnapshotEvery:   cfg.MetaSnapshotEvery,
		Seed:            424242,
		RecordLatencies: cfg.MetaRecordLatencies,
		FollowerReads:   cfg.MetaFollowerReads,
		LeaseTime:       cfg.MetaLeaseTime,
		Costs: metaplane.Costs{
			NetLatency: w.Cluster.Cfg.NetLatency,
			ShmLatency: cfg.ShmLatency,
			OpTime:     cfg.MetaOpTime,
			ApplyTime:  apply,
		},
	})
	if err != nil {
		return nil, err
	}
	// Split-migration batches ship as real flows over the source and
	// target NICs and the fabric, competing with application traffic in
	// the max-min allocator — migration is charged work, not an
	// administrative sweep.
	pl.Mover = func(p *sim.Proc, from, to int, bytes int64) {
		path := w.Cluster.NetPath(from, to)
		if path == nil {
			p.Sleep(cfg.ShmLatency)
			return
		}
		p.Sleep(w.Cluster.Cfg.NetLatency)
		p.Transfer(float64(bytes), path...)
	}
	pl.SplitDone = func(shard int) {
		sys.logEvent("metasplitdone", "metasplit: shard %d migration complete; ring now %d shards",
			shard, pl.Shards())
	}
	pl.Trace = w.Trace
	sys.explain = append(sys.explain, fmt.Sprintf(
		"metadata plane: %d shards × %d replicas across %d nodes",
		cfg.MetaShards, replicas, nNodes))
	if cfg.MetaFollowerReads {
		sys.explain = append(sys.explain,
			"metadata plane: leased follower reads enabled")
	}
	return &planeMeta{sys: sys, pl: pl}, nil
}

// span opens a plane-op span; end closes it and counts the charged op.
func (b *planeMeta) span(p *sim.Proc, name string) trace.Span {
	return b.sys.W.Trace.Begin(p, trace.CatMetaPlane, name)
}

func (b *planeMeta) end(p *sim.Proc, sp trace.Span) {
	sp.End(p.Now())
	b.sys.stats.MetaOps++
}

// put answers the rewrite check from the leader's applied state; it rides
// inside the same commit round trip.
func (b *planeMeta) put(p *sim.Proc, fromNode int, rec meta.Record) (meta.Record, bool, int) {
	prev, replaced := b.pl.GetLocal(rec.FID, rec.Offset)
	sp := b.span(p, "plane-put")
	shard := b.pl.Put(p, fromNode, rec)
	b.end(p, sp)
	return prev, replaced, shard
}

func (b *planeMeta) covering(fid meta.FileID, off, size int64) ([]meta.Record, []int) {
	return b.pl.CoveringLocal(fid, off, size)
}

func (b *planeMeta) lookup(p *sim.Proc, fromNode, idx int) {
	sp := b.span(p, "plane-lookup")
	b.pl.Lookup(p, fromNode, idx)
	b.end(p, sp)
}

// delete is a replicated commit per record.
func (b *planeMeta) delete(p *sim.Proc, fromNode int, fid meta.FileID, off int64) (bool, int) {
	sp := b.span(p, "plane-delete")
	existed, shard := b.pl.Delete(p, fromNode, fid, off)
	b.end(p, sp)
	return existed, shard
}

// repoint commits through the WAL like any other mutation.
func (b *planeMeta) repoint(p *sim.Proc, fromNode int, rec meta.Record) (int, bool) {
	sp := b.span(p, "plane-repoint")
	shard := b.pl.Put(p, fromNode, rec)
	b.end(p, sp)
	return shard, true
}

// stat is served by the shard owning the file's first range; a
// nonexistent name resolves on the zero-fid shard, the one that would own
// it.
func (b *planeMeta) stat(p *sim.Proc, fromNode int, _ string, fid meta.FileID) {
	sp := b.span(p, "plane-stat")
	b.pl.Stat(p, fromNode, fid, 0)
	b.end(p, sp)
}

// deleteRange is a no-op: the plane paid a replicated commit per record.
func (b *planeMeta) deleteRange(*sim.Proc, int, int64) {}

func (b *planeMeta) checkInvariants() []string {
	var out []string
	for _, v := range b.pl.CheckInvariants() {
		out = append(out, "metaplane "+v)
	}
	return out
}

// Plane exposes the metadata plane (nil in ring mode).
func (sys *System) Plane() *metaplane.Plane {
	if b, ok := sys.meta.(*planeMeta); ok {
		return b.pl
	}
	return nil
}

// Ring exposes the metadata ring to tests and tools (nil in plane mode).
func (sys *System) Ring() *kvstore.Ring {
	if b, ok := sys.meta.(*ringMeta); ok {
		return b.ring
	}
	return nil
}
