package core

// Metadata-service routing: every Put/Get/Covering/Delete of the write,
// read, placement, and flush paths goes through the helpers here, which
// call the deployment's single metaBackend (metabackend.go): the legacy
// logical ring by default, or the sharded, replicated metadata plane when
// Config.MetaShards is set. No code above the seam branches on the
// backend. The helpers also keep the MetaOpDetail counters univistor-sim
// surfaces, once for both backends; the plane-only fault hooks at the end
// check Plane() once each.

import (
	"univistor/internal/meta"
	"univistor/internal/sim"
)

// MetaOpDetail breaks metadata record operations down by kind and by
// serving store: per metadata server in ring mode, per shard in plane
// mode. Only client-path operations count — cost-free invariant sweeps
// and flush planning do not.
type MetaOpDetail struct {
	Puts      int64 `json:"puts"`
	Gets      int64 `json:"gets"`
	Coverings int64 `json:"coverings"`
	Deletes   int64 `json:"deletes"`
	// StatOps counts client Stat calls (size resolution without open).
	StatOps int64 `json:"stat_ops"`
	// PerServer is indexed by metadata server (ring mode) or shard id
	// (plane mode) and counts the charged ops each served.
	PerServer []int64 `json:"per_server"`
}

func (d *MetaOpDetail) bump(idx int) {
	for len(d.PerServer) <= idx {
		d.PerServer = append(d.PerServer, 0)
	}
	d.PerServer[idx]++
}

// MetaOpDetail returns a snapshot of the metadata-op breakdown.
func (sys *System) MetaOpDetail() MetaOpDetail {
	d := sys.metaDetail
	d.PerServer = append([]int64(nil), sys.metaDetail.PerServer...)
	return d
}

// metaPut inserts a record through the metadata service, charging one
// client round trip, and reports the exact-key record it replaced (the
// rewrite check rides inside the same round trip on both backends).
func (sys *System) metaPut(p *sim.Proc, fromNode int, rec meta.Record) (prev meta.Record, replaced bool) {
	sys.metaDetail.Puts++
	prev, replaced, idx := sys.meta.put(p, fromNode, rec)
	sys.metaDetail.bump(idx)
	return prev, replaced
}

// metaCovering resolves the records overlapping [off, off+size) without
// charging time — the charged per-index round trips follow separately via
// metaChargeLookup, exactly as the read path batches them.
func (sys *System) metaCovering(fid meta.FileID, off, size int64) ([]meta.Record, []int) {
	sys.metaDetail.Coverings++
	return sys.meta.covering(fid, off, size)
}

// metaCoveringFree resolves records for internal planning and invariant
// sweeps: no time, no counters.
func (sys *System) metaCoveringFree(fid meta.FileID, off, size int64) []meta.Record {
	recs, _ := sys.meta.covering(fid, off, size)
	return recs
}

// metaChargeLookup charges one read-side metadata round trip against the
// given index.
func (sys *System) metaChargeLookup(p *sim.Proc, fromNode, idx int) {
	sys.metaDetail.Gets++
	sys.metaDetail.bump(idx)
	sys.meta.lookup(p, fromNode, idx)
}

// metaDelete removes one record (see metaBackend.delete for what each
// backend charges).
func (sys *System) metaDelete(p *sim.Proc, fromNode int, fid meta.FileID, off int64) bool {
	sys.metaDetail.Deletes++
	existed, idx := sys.meta.delete(p, fromNode, fid, off)
	sys.metaDetail.bump(idx)
	return existed
}

// metaRepoint rewrites a record's placement (promotion re-point); it
// counts as a put only where the backend charges it.
func (sys *System) metaRepoint(p *sim.Proc, fromNode int, rec meta.Record) {
	if idx, charged := sys.meta.repoint(p, fromNode, rec); charged {
		sys.metaDetail.Puts++
		sys.metaDetail.bump(idx)
	}
}

// ---------------------------------------------------------------------------
// Fault injection (chaos `metacrash`).

// MetaCrashLeader crashes the metadata plane's current leader of the given
// shard: the group elects the longest-log survivor, which replays its
// unapplied WAL suffix before serving. Returns the crashed replica index
// for later recovery. ok is false when no plane is configured, the shard
// is unknown, or the crash would kill the last alive replica.
func (sys *System) MetaCrashLeader(shard int) (replica int, ok bool) {
	pl := sys.Plane()
	if pl == nil {
		return -1, false
	}
	if replica, ok = pl.CrashLeader(shard); ok {
		sys.logEvent("metacrash", "metacrash: shard %d leader (replica %d) crashed; failed over", shard, replica)
	}
	return replica, ok
}

// MetaSplit starts an online metadata shard split (chaos `metasplit` and
// the -meta-split schedule): a new shard is minted and the hash-circle
// arcs the post-split ring assigns to it migrate as charged batches —
// real flows in the allocator — while the plane keeps serving. Returns
// the new shard id. ok is false when no plane is configured or another
// split is still migrating.
func (sys *System) MetaSplit() (shard int, ok bool) {
	pl := sys.Plane()
	if pl == nil {
		return -1, false
	}
	shard, err := pl.StartSplit(sys.W.E)
	if err != nil {
		return -1, false
	}
	sys.logEvent("metasplit", "metasplit: online split started into new shard %d", shard)
	return shard, true
}

// MetaRecover restarts a crashed metadata replica and catches it up from
// the current leader (WAL suffix or snapshot install).
func (sys *System) MetaRecover(shard, replica int) bool {
	pl := sys.Plane()
	if pl == nil {
		return false
	}
	ok := pl.Recover(shard, replica)
	if ok {
		sys.logEvent("metarecover", "metarecover: shard %d replica %d recovered", shard, replica)
	}
	return ok
}
