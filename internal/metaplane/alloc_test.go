package metaplane

import (
	"fmt"
	"reflect"
	"testing"

	"univistor/internal/meta"
	"univistor/internal/sim"
)

// A compacted log reuses its buffer: once it has grown to the snapshot
// threshold, append → truncate cycles allocate nothing.
func TestWALCompactionReusesBuffer(t *testing.T) {
	const every = 16
	var w wal
	next := int64(1)
	cycle := func() {
		for len(w.entries) < every {
			w.append(Entry{Index: next, Kind: OpPut, Rec: rec(1, next*8, 8)})
			next++
		}
		w.truncate(next - 4) // keep a short tail, as a lagging replica would
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("steady-state append/truncate cycle allocates %v times, want 0", allocs)
	}
	if es, ok := w.entriesFrom(next - 3); !ok || len(es) != 3 || es[0].Index != next-3 {
		t.Fatalf("retained tail after compaction = %+v ok=%v", es, ok)
	}
}

// A replica that crashes and recovers — by snapshot install when the
// leader compacted past its log, or from the leader's retained log suffix
// — ends with the leader's exact store once both have compacted in place
// several more times.
func TestRecoveredReplicaMatchesLeaderAfterInPlaceCompaction(t *testing.T) {
	for _, tc := range []struct {
		name     string
		missed   int64 // puts the replica misses while down
		installs int64
	}{
		{"snapshot-install", 100, 1},
		{"log-suffix", 4, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(1, 3)
			cfg.SnapshotEvery = 16
			pl := mustPlane(t, cfg)
			g := pl.groups[0]

			var crashed int
			drive(t, func(p *sim.Proc) {
				for i := int64(0); i < 8; i++ {
					pl.Put(p, 0, rec(3, i*64, 64))
				}
				var ok bool
				if crashed, ok = pl.CrashLeader(0); !ok {
					t.Errorf("CrashLeader refused")
					return
				}
				for i := int64(0); i < tc.missed; i++ {
					pl.Put(p, 0, rec(1, i*64, 64))
					if i%5 == 4 {
						pl.Delete(p, 0, 1, (i-2)*64)
					}
				}
				if !pl.Recover(0, crashed) {
					t.Errorf("Recover failed")
					return
				}
				// Enough mutations that every replica compacts its own log
				// several times.
				for i := int64(0); i < 80; i++ {
					pl.Put(p, 1, rec(2, i*64, 64))
					if i%3 == 2 {
						pl.Delete(p, 1, 1, i*64)
					}
				}
			})
			if got := pl.Stats().SnapshotInstalls; got != tc.installs {
				t.Fatalf("SnapshotInstalls = %d, want %d", got, tc.installs)
			}
			r := g.replicas[crashed]
			if r.log.snapIndex <= g.lead().log.snapIndex-int64(cfg.SnapshotEvery) {
				t.Fatalf("recovered replica's log stopped compacting at %d", r.log.snapIndex)
			}
			for _, rep := range g.replicas {
				if c := cap(rep.log.entries); c > 2*cfg.SnapshotEvery {
					t.Errorf("replica %d log buffer grew to %d entries (SnapshotEvery %d)",
						rep.idx, c, cfg.SnapshotEvery)
				}
			}
			r.applyTo(r.log.lastIndex())
			if got, want := r.store.All(), g.lead().store.All(); !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered replica holds %d records, leader %d; stores differ", len(got), len(want))
			}
			if v := pl.CheckInvariants(); len(v) != 0 {
				t.Fatalf("invariant violations: %v", v)
			}
		})
	}
}

// CoveringLocal allocates only its result slices: no dedupe maps and no
// reflective sort. The bound is the measured count for an 81-record
// answer spanning 20 partitions on a 3-shard, R=3 plane.
func TestCoveringLocalAllocs(t *testing.T) {
	pl := mustPlane(t, testConfig(3, 3))
	drive(t, func(p *sim.Proc) {
		for off := int64(0); off < 96*256; off += 256 {
			pl.Put(p, 0, rec(1, off, 256))
		}
	})
	const off, size = 100, 80 * 256
	if recs, shards := pl.CoveringLocal(1, off, size); len(recs) != 81 || len(shards) != 3 {
		t.Fatalf("CoveringLocal = %d records on shards %v, want 81 on 3", len(recs), shards)
	}
	const bound = 11
	if allocs := testing.AllocsPerRun(100, func() { pl.CoveringLocal(1, off, size) }); allocs > bound {
		t.Errorf("CoveringLocal allocates %v times per call, want ≤ %d", allocs, bound)
	}
}

func BenchmarkPlanePut(b *testing.B) {
	for _, replicas := range []int{1, 3} {
		b.Run(fmt.Sprintf("R=%d", replicas), func(b *testing.B) {
			pl, err := New(testConfig(3, replicas))
			if err != nil {
				b.Fatal(err)
			}
			e := sim.NewEngine()
			e.Go("bench", func(p *sim.Proc) {
				for i := 0; i < b.N; i++ {
					pl.Put(p, i%4, rec(meta.FileID(1+i%3), int64(i/3)*256, 256))
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
		})
	}
}
