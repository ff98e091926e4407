package core

import (
	"bytes"
	"reflect"
	"testing"

	"univistor/internal/sim"
	"univistor/internal/topology"
)

// allocModeRun is what one allocator mode produced for the shared
// workload.
type allocModeRun struct {
	stats Stats
	read  [][]byte // per rank: the next rank's region, read back
	end   sim.Time // final virtual time
	peak  int      // the allocator's peak live component count
}

// runAllocModeWorkload drives write → flush → read-back with four ranks on
// two nodes whose DRAM overflows into the BB, so cache writes, spills,
// the PFS flush and local and remote reads all compete for bandwidth in
// the flow allocator. global switches the engine to the reference solver
// before anything runs.
func runAllocModeWorkload(t *testing.T, global bool) allocModeRun {
	t.Helper()
	const ranks, segs = 4, 6
	w, sys := testEnv(t, func(tc *topology.Config, cc *Config) {
		tc.DRAMPerNode = 16 * mib
	})
	if global {
		w.E.SetAllocMode(sim.AllocGlobal)
	}
	region := int64(segs) * 2 * mib
	seg := func(rank, i int64) []byte {
		return bytes.Repeat([]byte{byte('a' + rank), byte('0' + i)}, int(mib))
	}
	out := allocModeRun{read: make([][]byte, ranks)}
	runApp(t, w, sys, ranks, 2, func(c *Client) {
		rank := int64(c.Rank().Rank())
		f, err := c.Open("f", WriteOnly)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		for i := int64(0); i < segs; i++ {
			if err := f.WriteAt(rank*region+i*2*mib, 2*mib, seg(rank, i)); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		}
		f.Close()
		sys.WaitFlush(c.Rank().P, "f")
		c.Rank().Barrier()
		rf, err := c.Open("f", ReadOnly)
		if err != nil {
			t.Errorf("open read: %v", err)
			return
		}
		next := (rank + 1) % ranks
		if out.read[rank], err = rf.ReadAt(next*region, region); err != nil {
			t.Errorf("read: %v", err)
		}
		rf.Close()
	})
	for rank := int64(0); rank < ranks; rank++ {
		next := (rank + 1) % ranks
		got := out.read[rank]
		if int64(len(got)) != region || !bytes.Equal(got[:2*mib], seg(next, 0)) {
			t.Errorf("rank %d did not read back rank %d's region", rank, next)
		}
	}
	if v := sys.CheckInvariants(); len(v) != 0 {
		t.Errorf("invariant violations: %v", v)
	}
	out.stats = sys.Stats()
	out.end = w.E.Now()
	out.peak = w.E.AllocStats().PeakComponents
	return out
}

// TestAllocModesIdenticalOutput runs one workload on the default
// incremental allocator and on the reference global solver: the two must
// be observationally identical — same stats, same bytes read back, same
// final virtual time.
func TestAllocModesIdenticalOutput(t *testing.T) {
	inc := runAllocModeWorkload(t, false)
	glob := runAllocModeWorkload(t, true)
	if inc.stats.BytesFlushed == 0 || inc.stats.Spills == 0 {
		t.Fatalf("workload did not flush and spill: %+v", inc.stats)
	}
	// The global solver keeps every flow in one component; the incremental
	// one must have split them, or the comparison proves nothing.
	if glob.peak != 1 || inc.peak < 2 {
		t.Fatalf("peak components: incremental %d, global %d", inc.peak, glob.peak)
	}
	if !reflect.DeepEqual(inc.stats, glob.stats) {
		t.Errorf("stats differ:\nincremental: %+v\nglobal:      %+v", inc.stats, glob.stats)
	}
	for rank := range inc.read {
		if !bytes.Equal(inc.read[rank], glob.read[rank]) {
			t.Errorf("rank %d read-back differs across allocator modes", rank)
		}
	}
	if inc.end != glob.end {
		t.Errorf("final virtual time: incremental %v, global %v", inc.end, glob.end)
	}
}
