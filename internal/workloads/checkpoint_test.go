package workloads

import (
	"testing"

	"univistor/internal/core"
	"univistor/internal/meta"
	"univistor/internal/mpi"
	"univistor/internal/mpiio"
	"univistor/internal/schedule"
	"univistor/internal/sim"
	"univistor/internal/topology"
)

// dedupStack is testStack with the content-addressed flush layer enabled:
// 1 MiB blocks so checkpoint segments map 1:1 onto CAS blocks. mutate, when
// set, adjusts the configuration before the system is built.
func dedupStack(t *testing.T, mutate func(*topology.Config, *core.Config)) (*mpi.World, *mpiio.Env, *mpiio.UniviStorDriver) {
	t.Helper()
	tc := topology.Cori()
	tc.Nodes = 2
	tc.CoresPerNode = 8
	tc.DRAMPerNode = 256 * mib
	tc.BBNodes = 2
	tc.BBCapPerNode = 512 * mib
	tc.BBStripeSize = 1 * mib
	tc.OSTs = 8
	e := sim.NewEngine()
	cc := core.DefaultConfig()
	cc.ChunkSize = 1 * mib
	cc.MetaRangeSize = 16 * mib
	cc.Dedup = true
	cc.DedupBlockBytes = 1 * mib
	cc.DedupGCBatchBytes = 8 * mib
	if mutate != nil {
		mutate(&tc, &cc)
	}
	w := mpi.NewWorld(e, topology.New(e, tc), schedule.InterferenceAware)
	sys, err := core.NewSystem(w, cc)
	if err != nil {
		t.Fatal(err)
	}
	drv := mpiio.NewUniviStorDriver(sys)
	env, err := mpiio.NewEnv("univistor", drv)
	if err != nil {
		t.Fatal(err)
	}
	return w, env, drv
}

// TestCheckpointDedup drives the checkpoint kernel at a 10% change rate
// and checks the content-addressed layer moves only the changed fraction:
// the acceptance bound is physical ≤ 50% of logical, and the deterministic
// expectation is far lower (step 0 full + ~10% per later step).
func TestCheckpointDedup(t *testing.T) {
	w, env, drv := dedupStack(t, nil)
	cfg := CheckpointConfig{
		SegmentsPerRank: 8,
		SegmentBytes:    1 * mib,
		TimeSteps:       6,
		ChangeRate:      0.10,
		ComputeSeconds:  5,
		Seed:            42,
	}
	var sts [2]CheckpointStats
	app := w.Launch("ckpt", 2, func(r *mpi.Rank) {
		st, err := RunCheckpoint(r, env, cfg)
		if err != nil {
			t.Errorf("checkpoint: %v", err)
		}
		sts[r.Rank()] = st
	}, mpi.LaunchOpts{})
	runAll(t, w, drv, app)

	s := drv.Sys.Stats()
	logical := s.BytesFlushed
	physical := s.BytesFlushedPhysical
	wantLogical := int64(cfg.TimeSteps) * 2 * cfg.BytesPerRankStep()
	if logical != wantLogical {
		t.Fatalf("logical flushed = %d, want %d", logical, wantLogical)
	}
	if physical <= 0 || physical > logical/2 {
		t.Errorf("physical flushed = %d, want in (0, %d] (dedup at 10%% change)", physical, logical/2)
	}
	if s.DedupBytesSaved != logical-physical {
		t.Errorf("DedupBytesSaved = %d, want %d", s.DedupBytesSaved, logical-physical)
	}
	// The changed-segment ledger predicts the physical bytes exactly:
	// segments are block-aligned, so each mutation is one new block.
	var changed int64
	for _, st := range sts {
		changed += st.SegmentsChanged
	}
	if want := changed * cfg.SegmentBytes; physical != want {
		t.Errorf("physical flushed = %d, want %d (= %d changed segments)", physical, want, changed)
	}
	if viol := drv.Sys.CheckInvariants(); len(viol) > 0 {
		t.Errorf("invariants violated: %v", viol)
	}
}

// TestCheckpointRetentionGC retires old step files and checks the dead
// blocks actually flow through the ref-counted GC: reclaim runs happen,
// every retired byte is collected, and nothing is left pending.
func TestCheckpointRetentionGC(t *testing.T) {
	w, env, drv := dedupStack(t, nil)
	cfg := CheckpointConfig{
		SegmentsPerRank: 4,
		SegmentBytes:    1 * mib,
		TimeSteps:       5,
		ChangeRate:      1.0, // every step fully new: retired blocks die
		ComputeSeconds:  5,
		Seed:            7,
		Retention:       2,
	}
	app := w.Launch("ckpt", 2, func(r *mpi.Rank) {
		st, err := RunCheckpoint(r, env, cfg)
		if err != nil {
			t.Errorf("checkpoint: %v", err)
		}
		if want := cfg.TimeSteps - cfg.Retention; st.FilesRetired != want {
			t.Errorf("rank %d retired %d files, want %d", r.Rank(), st.FilesRetired, want)
		}
	}, mpi.LaunchOpts{})
	runAll(t, w, drv, app)

	s := drv.Sys.Stats()
	if s.CASGCRuns == 0 {
		t.Fatal("retention deletes produced no GC runs")
	}
	// ChangeRate 1 means no block is ever shared across steps, so the GC
	// must reclaim exactly the retired steps' bytes.
	want := int64(cfg.TimeSteps-cfg.Retention) * 2 * cfg.BytesPerRankStep()
	if s.CASGCBytes != want {
		t.Errorf("GC reclaimed %d bytes, want %d", s.CASGCBytes, want)
	}
	cs := drv.Sys.CASStats()
	if cs == nil {
		t.Fatal("CASStats nil with dedup enabled")
	}
	if cs.DeadBytes != 0 {
		t.Errorf("%d dead bytes left pending after run", cs.DeadBytes)
	}
	if viol := drv.Sys.CheckInvariants(); len(viol) > 0 {
		t.Errorf("invariants violated: %v", viol)
	}
}

// TestCheckpointFlushAccountsPlannedBytes runs back-to-back checkpoints (no
// compute phase) with retention, so step s-2's range deletes land while
// step s's flush is still in flight. The flush must still count the full
// image it planned: BytesFlushed is every step's logical bytes and agrees
// with what the dedup layer interned and deduped at plan time.
func TestCheckpointFlushAccountsPlannedBytes(t *testing.T) {
	const ranks, perNode = 16, 8
	cfg := CheckpointConfig{
		SegmentsPerRank: 4,
		SegmentBytes:    4 * mib,
		TimeSteps:       4,
		ChangeRate:      0.10,
		Seed:            1,
		Retention:       2,
	}
	w, env, drv := dedupStack(t, func(tc *topology.Config, cc *core.Config) {
		cc.CacheTiers = []meta.Tier{meta.TierDRAM, meta.TierBB}
		cc.DedupBlockBytes = cfg.SegmentBytes
		cc.MetaShards = 3
		cc.MetaReplicas = 3
	})
	app := w.Launch("ckpt", ranks, func(r *mpi.Rank) {
		if _, err := RunCheckpoint(r, env, cfg); err != nil {
			t.Errorf("rank %d: %v", r.Rank(), err)
		}
	}, mpi.LaunchOpts{RanksPerNode: perNode})
	runAll(t, w, drv, app)

	sys := drv.Sys
	s := sys.Stats()
	logical := int64(ranks*cfg.TimeSteps) * cfg.BytesPerRankStep()
	if s.BytesFlushed != logical {
		t.Errorf("BytesFlushed = %d, want every step's logical image %d", s.BytesFlushed, logical)
	}
	cs := sys.CASStats()
	if cs == nil {
		t.Fatal("CASStats nil with dedup enabled")
	}
	if got := cs.InternedBytes + cs.DedupedBytes; got != s.BytesFlushed {
		t.Errorf("CAS interned+deduped = %d, BytesFlushed = %d", got, s.BytesFlushed)
	}
	if viol := sys.CheckInvariants(); len(viol) > 0 {
		t.Errorf("invariants violated: %v", viol)
	}
}

// TestCheckpointRankSeedDeterminism pins the (seed, rank) → RNG-stream map.
// The additive derivation this replaced collided: (S, r) and (S+γ, r−1)
// produced the same seed, so adjacent ranks of "different" experiments
// mutated identical segment sets. sim.StreamSeed must keep equal
// inputs equal and break exactly that collision family.
func TestCheckpointRankSeedDeterminism(t *testing.T) {
	const golden = int64(-0x61C8864680B583EB) // 0x9E3779B97F4A7C15 as int64
	if sim.StreamSeed(42, 3) != sim.StreamSeed(42, 3) {
		t.Fatal("StreamSeed not deterministic")
	}
	seeds := map[int64][2]int{}
	for _, S := range []int64{0, 1, 42, -7, golden} {
		for rank := 0; rank < 64; rank++ {
			s := sim.StreamSeed(S, rank)
			if prev, dup := seeds[s]; dup {
				t.Fatalf("StreamSeed collision: (S=%d, r=%d) and (S=%d, r=%d) → %d",
					S, rank, prev[0], prev[1], s)
			}
			seeds[s] = [2]int{int(S), rank}
		}
	}
	// The specific collision family of the additive formula.
	for rank := 1; rank < 32; rank++ {
		a := sim.StreamSeed(100, rank)
		b := sim.StreamSeed(100+golden, rank-1)
		if a == b {
			t.Fatalf("additive collision survived: (100, %d) == (100+γ, %d)", rank, rank-1)
		}
	}
}

// TestCheckpointDedupOffStillRuns pins the kernel to the legacy path:
// with dedup disabled the tagged writes degrade to plain writes and the
// physical counters stay zero.
func TestCheckpointDedupOffStillRuns(t *testing.T) {
	w, env, drv := testStack(t)
	cfg := CheckpointConfig{
		SegmentsPerRank: 4,
		SegmentBytes:    1 * mib,
		TimeSteps:       3,
		ChangeRate:      0.25,
		Seed:            1,
	}
	app := w.Launch("ckpt", 2, func(r *mpi.Rank) {
		if _, err := RunCheckpoint(r, env, cfg); err != nil {
			t.Errorf("checkpoint: %v", err)
		}
	}, mpi.LaunchOpts{})
	runAll(t, w, drv, app)

	s := drv.Sys.Stats()
	if s.BytesFlushedPhysical != 0 || s.DedupBytesSaved != 0 || s.CASGCRuns != 0 {
		t.Errorf("dedup counters moved with dedup off: %+v", s)
	}
	if drv.Sys.CASStats() != nil {
		t.Error("CASStats non-nil with dedup disabled")
	}
	if viol := drv.Sys.CheckInvariants(); len(viol) > 0 {
		t.Errorf("invariants violated: %v", viol)
	}
}
