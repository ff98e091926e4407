package core

import (
	"bytes"
	"reflect"
	"testing"

	"univistor/internal/meta"
	"univistor/internal/topology"
)

// backendRun is what one metadata backend produced for the differential
// workload.
type backendRun struct {
	read  [][]byte        // per rank: the other rank's region, read back
	stats []FileInfo      // per rank: Stat of the file, then of a missing name
	recs  [][]meta.Record // per file: the cost-free covering record set
}

// runBackendWorkload drives the same write → exact-key rewrite → range
// delete → stat → read-back sequence on a deployment whose metadata
// backend is chosen by shards/replicas (shards == 0 is the ring).
func runBackendWorkload(t *testing.T, shards, replicas int) (*System, backendRun) {
	t.Helper()
	w, sys := testEnv(t, func(tc *topology.Config, cc *Config) {
		cc.MetaShards = shards
		cc.MetaReplicas = replicas
		// One partition range per segment, so records spread over every
		// server or shard.
		cc.MetaRangeSize = 1 * mib
	})
	seg := func(rank, i int64, gen byte) []byte {
		return bytes.Repeat([]byte{byte('a' + 4*rank + i), gen}, int(mib/2))
	}
	out := backendRun{read: make([][]byte, 2), stats: make([]FileInfo, 4)}
	runApp(t, w, sys, 2, 1, func(c *Client) {
		rank := int64(c.Rank().Rank())
		base := rank * 4 * mib
		f, err := c.Open("f", WriteOnly)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		for i := int64(0); i < 4; i++ {
			if err := f.WriteAt(base+i*mib, 1*mib, seg(rank, i, 0)); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		}
		if err := f.WriteAt(base+1*mib, 1*mib, seg(rank, 1, 1)); err != nil {
			t.Errorf("rewrite: %v", err)
		}
		if n, err := f.Delete(base+2*mib, 1*mib); err != nil || n != 1 {
			t.Errorf("delete = (%d, %v), want (1, nil)", n, err)
		}
		f.Close()
		c.Rank().Barrier()
		out.stats[2*rank], _ = c.Stat("f")
		out.stats[2*rank+1], _ = c.Stat("ghost")
		rf, err := c.Open("f", ReadOnly)
		if err != nil {
			t.Errorf("open read: %v", err)
			return
		}
		other := (1 - rank) * 4 * mib
		if out.read[rank], err = rf.ReadAt(other, 4*mib); err != nil {
			t.Errorf("read: %v", err)
		}
		rf.Close()
	})
	for _, fs := range sys.sortedFiles() {
		out.recs = append(out.recs, sys.metaCoveringFree(fs.fid, 0, fs.logicalSize))
	}
	if v := sys.CheckInvariants(); len(v) != 0 {
		t.Errorf("invariant violations: %v", v)
	}
	// The rewritten segment reads back at its second generation.
	for rank := int64(0); rank < 2; rank++ {
		got := out.read[1-rank]
		if len(got) < int(2*mib) || !bytes.Equal(got[mib:2*mib], seg(rank, 1, 1)) {
			t.Errorf("rank %d's rewritten segment did not read back", rank)
		}
	}
	return sys, out
}

// TestMetaBackendsAgree runs one workload on the ring and on the plane at
// 1×1 and 3×3: the bytes read back, the Stat answers and the covering
// record sets must not depend on which backend served them, and exactly
// one of Ring()/Plane() is set.
func TestMetaBackendsAgree(t *testing.T) {
	ringSys, want := runBackendWorkload(t, 0, 0)
	if ringSys.Ring() == nil || ringSys.Plane() != nil {
		t.Errorf("ring backend: Ring() = %p, Plane() = %p", ringSys.Ring(), ringSys.Plane())
	}
	if len(want.recs) != 1 || len(want.recs[0]) != 6 {
		t.Fatalf("ring covering = %v, want one file with 6 records", want.recs)
	}
	for _, shape := range []struct{ shards, replicas int }{{1, 1}, {3, 3}} {
		sys, got := runBackendWorkload(t, shape.shards, shape.replicas)
		if sys.Plane() == nil || sys.Ring() != nil {
			t.Errorf("plane %d×%d: Ring() = %p, Plane() = %p",
				shape.shards, shape.replicas, sys.Ring(), sys.Plane())
		}
		for rank := range want.read {
			if !bytes.Equal(got.read[rank], want.read[rank]) {
				t.Errorf("plane %d×%d: rank %d read-back differs from the ring",
					shape.shards, shape.replicas, rank)
			}
		}
		if !reflect.DeepEqual(got.stats, want.stats) {
			t.Errorf("plane %d×%d: stats = %v, ring %v", shape.shards, shape.replicas, got.stats, want.stats)
		}
		if !reflect.DeepEqual(got.recs, want.recs) {
			t.Errorf("plane %d×%d: covering records = %v, ring %v",
				shape.shards, shape.replicas, got.recs, want.recs)
		}
	}
}
