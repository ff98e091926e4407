package main

// The four workloads. Each one builds a fresh simulated cluster from the
// seed (setup), runs the engine to completion (the timed window), and then
// checks the outcome and derives the simulated metrics (after the window).

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"univistor/internal/core"
	"univistor/internal/gateway"
	"univistor/internal/meta"
	"univistor/internal/mpi"
	"univistor/internal/mpiio"
	"univistor/internal/schedule"
	"univistor/internal/sim"
	"univistor/internal/topology"
	"univistor/internal/workloads"
)

const mib = 1 << 20

// params are the inputs of one repetition.
type params struct {
	seed    int64
	unit    int64   // the run's byte unit, seededUnit(seed)
	smoke   bool    // tiny shapes, for the benchmark's own tests
	workers int     // engine solver workers
	tr      *tracer // nil for an untraced repetition
}

// outcome is what a repetition produced, read after the timed window.
type outcome struct {
	end       sim.Time // virtual end time
	elapsed   float64  // sim_elapsed_s
	samples   int      // latency samples behind p50 and p999
	p50, p999 float64  // seconds; the worst across op kinds on tenant_storm
	physRatio float64  // flush_physical_ratio
	attempted int64    // operations issued plus checks run
	failed    int64    // failed operations plus failed checks
	problems  []string // what failed, for the report
	digest    uint64   // hash of the simulated result
	counts    map[string]float64
}

// instance is one built, not yet run, repetition.
type instance interface {
	run()
	finish() outcome
}

type workload struct {
	name  string
	why   string
	setup func(p params) (instance, error)
}

var allWorkloads = []workload{
	{"vpic_spill", "Fig. 8: 2048-rank VPIC-IO spilling from DRAM to BB to PFS; the only workload past the solver pool's 2048-flow gate", setupVPICSpill},
	{"vpic_bdcats", "Fig. 10: overlapped VPIC producer and BD-CATS consumer; bulk local and shared reads beside writes", setupVPICBDCATS},
	{"ckpt_dedup", "checkpoint kernel with dedup, retention deletes, CAS GC and a 3-shard R=3 metadata plane; solver-bound", setupCkptDedup},
	{"tenant_storm", "open-loop multi-tenant gateway with QoS on a leased, splitting 4-shard plane; small requests, tail latency", setupTenantStorm},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// stack is the simulated system shared by every workload.
type stack struct {
	e   *sim.Engine
	w   *mpi.World
	sys *core.System
	uv  *mpiio.UniviStorDriver
	env *mpiio.Env
}

// newStack builds engine, cluster, world and UniviStor, routing MPI-IO
// through the tracing wrapper on traced repetitions.
func newStack(p params, tc topology.Config, cc core.Config) (*stack, error) {
	// The default 8 MiB chunks and stripes and 64 MiB metadata ranges, in
	// the run's unit.
	cc.ChunkSize, cc.MetaRangeSize, tc.BBStripeSize = 8*p.unit, 64*p.unit, 8*p.unit
	e := sim.NewEngine()
	e.SetWorkers(p.workers)
	var cl *topology.Cluster
	p.tr.span("setup.topology", func() { cl = topology.New(e, tc) })
	w := mpi.NewWorld(e, cl, schedule.InterferenceAware)
	var sys *core.System
	var err error
	p.tr.span("setup.core", func() { sys, err = core.NewSystem(w, cc) })
	if err != nil {
		return nil, fmt.Errorf("core.NewSystem: %w", err)
	}
	st := &stack{e: e, w: w, sys: sys, uv: mpiio.NewUniviStorDriver(sys)}
	var drv mpiio.Driver = st.uv
	if p.tr != nil {
		e.SetTracer(p.tr.sim)
		drv = p.tr.wrap(st.uv)
	}
	if st.env, err = mpiio.NewEnv(drv.Name(), drv); err != nil {
		return nil, err
	}
	return st, nil
}

// cluster sizes a Cori-flavoured cluster the way the figure sweeps do:
// the BB allocation scales with the job and DRAM overflows about halfway
// through a steps-long run of bytesPerRank per step.
func cluster(ranks, perNode int, bytesPerRank int64, steps int) topology.Config {
	tc := topology.Cori()
	tc.Nodes = (ranks + perNode - 1) / perNode
	tc.BBNodes = max(tc.Nodes/2, 2)
	tc.DRAMPerNode = int64(0.55 * float64(steps) * float64(bytesPerRank) * float64(perNode))
	return tc
}

// seededUnit is the run's byte unit: 1 MiB scaled by a seeded factor in
// [0.99, 1), rounded down to 1 KiB. Every byte size of a workload and the
// system's byte granules (log chunk, BB stripe, metadata range) are whole
// multiples of it, so each seed runs an exactly scaled copy of the nominal
// system: the event structure is the same for every seed, and the
// simulated times move smoothly, by under 1%, with the data volume.
func seededUnit(seed int64) int64 {
	f := 0.99 + 0.01*rand.New(rand.NewSource(seed)).Float64()
	return int64(float64(mib)*f) / 1024 * 1024
}

// base carries the engine, the checks and the digest common to all
// workloads.
type base struct {
	st        *stack
	tr        *tracer
	rankErrs  []string
	attempted int64
}

func (b *base) run() {
	b.tr.span("engine.run", func() { b.st.e.Run() })
}

func (b *base) rankErr(format string, args ...any) {
	if len(b.rankErrs) < 8 {
		b.rankErrs = append(b.rankErrs, fmt.Sprintf(format, args...))
	}
}

// check runs the checks shared by every workload and appends the
// workload's own conservation checks.
func (b *base) check(o *outcome, extra map[string]bool) {
	checks := map[string]bool{
		"no deadlocked processes":   b.st.e.Deadlocked() == 0,
		"no kernel errors":          len(b.rankErrs) == 0,
		"system invariants hold":    true,
		"simulated time progressed": b.st.e.Now() > 0,
	}
	if v := b.st.sys.CheckInvariants(); len(v) > 0 {
		checks["system invariants hold"] = false
		o.problems = append(o.problems, v[:min(len(v), 4)]...)
	}
	o.problems = append(o.problems, b.rankErrs...)
	for k, v := range extra {
		checks[k] = v
	}
	for name, ok := range checks {
		o.attempted++
		if !ok {
			o.failed++
			o.problems = append(o.problems, "check failed: "+name)
		}
	}
	o.attempted += b.attempted
	o.end = b.st.e.Now()
	o.physRatio = physRatio(b.st.sys.Stats())
}

// latencies sets the latency quantiles from per-rank step I/O times.
func (o *outcome) latencies(xs []float64) {
	o.samples = len(xs)
	o.p50, o.p999 = quantile(xs, 0.5), quantile(xs, 0.999)
}

// physRatio is the PFS bytes the flush moved per logical byte flushed: 1
// when dedup is off (every logical byte moves) or nothing was flushed.
func physRatio(s core.Stats) float64 {
	if s.BytesFlushed == 0 || s.BytesFlushedPhysical == 0 && s.DedupBytesSaved == 0 {
		return 1
	}
	return float64(s.BytesFlushedPhysical) / float64(s.BytesFlushed)
}

// digest hashes the simulated result: the virtual end time, the core,
// allocator, metadata-plane and CAS counters, and any extra report.
func (b *base) digest(extra ...any) uint64 {
	h := fnv.New64a()
	enc := json.NewEncoder(h)
	sys := b.st.sys
	fmt.Fprintf(h, "%x|", math.Float64bits(float64(b.st.e.Now())))
	_ = enc.Encode(sys.Stats()) // hash.Hash writes never fail
	_ = enc.Encode(b.st.e.AllocStats())
	_ = enc.Encode(sys.MetaOpDetail())
	if pl := sys.Plane(); pl != nil {
		_ = enc.Encode(pl.Stats())
	}
	if cs := sys.CASStats(); cs != nil {
		_ = enc.Encode(cs)
	}
	for _, x := range extra {
		_ = enc.Encode(x)
	}
	return h.Sum64()
}

// layerCounts gathers the deterministic per-layer counters of a finished
// repetition.
func (b *base) layerCounts() map[string]float64 {
	s := b.st.sys.Stats()
	c := map[string]float64{
		"core.bytes_written.dram": float64(s.BytesWritten[meta.TierDRAM]),
		"core.bytes_written.bb":   float64(s.BytesWritten[meta.TierBB]),
		"core.bytes_written.pfs":  float64(s.BytesWritten[meta.TierPFS]),
		"core.bytes_read.local":   float64(s.BytesReadLocal),
		"core.bytes_read.shared":  float64(s.BytesReadShared),
		"core.bytes_read.remote":  float64(s.BytesReadRemote),
		"core.spills":             float64(s.Spills),
		"core.flushes":            float64(s.Flushes),
		"core.meta_ops":           float64(s.MetaOps),
		"core.open_ops":           float64(s.OpenOps),
	}
	as := b.st.e.AllocStats()
	c["sim.solver.recompute_batches"] = float64(as.Recomputes)
	c["sim.solver.components_solved"] = float64(as.ComponentsSolved)
	c["sim.solver.flows_solved"] = float64(as.FlowsSolved)
	c["sim.solver.merges"] = float64(as.Merges)
	c["sim.solver.splits"] = float64(as.Splits)
	c["sim.solver.peak_components"] = float64(as.PeakComponents)
	ps := b.st.e.ParallelStats()
	c["sim.pool.batches"] = float64(ps.Batches)
	c["sim.pool.components"] = float64(ps.Components)
	c["sim.pool.max_workers"] = float64(ps.MaxWorkers)
	if pl := b.st.sys.Plane(); pl != nil {
		s := pl.Stats()
		c["metaplane.puts"] = float64(s.Puts)
		c["metaplane.lookups"] = float64(s.Lookups)
		c["metaplane.lease_grants"] = float64(s.LeaseGrants)
		c["metaplane.follower_reads"] = float64(s.FollowerReads)
		c["metaplane.forwarded_reads"] = float64(s.ForwardedReads)
		c["metaplane.split_records"] = float64(s.SplitRecords)
		c["metaplane.double_applies"] = float64(s.DoubleApplies)
		if r := s.FollowerReads + s.ForwardedReads; r > 0 {
			c["metaplane.follower_read_frac"] = float64(s.FollowerReads) / float64(r)
		}
		c["metaplane.put.sim_p99_ms"] = quantile(pl.PutLatencies(), 0.99) * 1e3
		c["metaplane.stat.sim_p99_ms"] = quantile(pl.StatLatencies(), 0.99) * 1e3
	}
	if cs := b.st.sys.CASStats(); cs != nil {
		c["castore.interned_mb"] = float64(cs.InternedBytes) / 1e6
		c["castore.deduped_mb"] = float64(cs.DedupedBytes) / 1e6
		c["castore.dedup_hits"] = float64(cs.DedupHits)
		c["castore.gc_batches"] = float64(cs.GCBatches)
		c["castore.dead_mb_end"] = float64(cs.DeadBytes) / 1e6
	}
	return c
}

// ---------------------------------------------------------------------------
// vpic_spill: Fig. 8, VPIC-IO through DRAM+BB+PFS.

type vpicSpill struct {
	base
	cfg       workloads.VPICConfig
	ranks     int
	maxIO     sim.Time
	lastClose sim.Time
	flushTail sim.Time
	stepTimes []float64
}

func setupVPICSpill(p params) (instance, error) {
	ranks, perNode, steps, compute := 2048, 8, 4, 5.0
	if p.smoke {
		ranks, steps = 32, 3
	}
	cfg := workloads.DefaultVPIC(steps)
	cfg.ComputeSeconds = compute
	cfg.ParticlesPerRank = 24 * p.unit / 32 // 24 units per rank and step
	bytes := cfg.BytesPerRankStep()

	cc := core.DefaultConfig()
	cc.CacheTiers = []meta.Tier{meta.TierDRAM, meta.TierBB}
	cc.DRAMLogBytes = bytes + 8*p.unit
	cc.BBLogBytes = bytes + 8*p.unit
	st, err := newStack(p, cluster(ranks, perNode, bytes, steps), cc)
	if err != nil {
		return nil, err
	}
	v := &vpicSpill{base: base{st: st, tr: p.tr}, cfg: cfg, ranks: ranks}
	v.attempted = int64(ranks * steps * (cfg.Props + 2))
	last := cfg.StepFile(steps - 1)
	app := st.w.Launch("vpic", ranks, func(r *mpi.Rank) {
		stats, err := workloads.RunVPIC(r, st.env, cfg)
		if err != nil {
			v.rankErr("rank %d: %v", r.Rank(), err)
		}
		v.maxIO = max(v.maxIO, stats.TotalIO)
		v.lastClose = max(v.lastClose, stats.LastClose)
		for _, d := range stats.StepIOTime {
			v.stepTimes = append(v.stepTimes, float64(d))
		}
		r.Barrier()
		st.sys.WaitFlush(r.P, last)
		r.Barrier()
		if r.Rank() == 0 {
			if _, _, end, ok := st.sys.FlushStats(last); ok && end > v.lastClose {
				v.flushTail = end - v.lastClose
			}
		}
		st.uv.Disconnect(r)
	}, mpi.LaunchOpts{RanksPerNode: perNode})
	janitor(st, app)
	return v, nil
}

func janitor(st *stack, jobs ...*mpi.Comm) {
	st.e.Go("janitor", func(p *sim.Proc) {
		for _, j := range jobs {
			j.Wait(p)
		}
		st.sys.Shutdown()
	})
}

// hdfMetaBytes is what hdf5lite's root writes into one step file's
// metadata region: the 64 KiB region once per dataset create and once at
// close.
func hdfMetaBytes(props int) int64 { return int64(props+1) * 64 << 10 }

func (v *vpicSpill) finish() outcome {
	var o outcome
	steps := v.cfg.TimeSteps
	want := int64(v.ranks*steps)*v.cfg.BytesPerRankStep() + int64(steps)*hdfMetaBytes(v.cfg.Props)
	s := v.st.sys.Stats()
	v.check(&o, map[string]bool{
		"bytes written by tier sum to ranks x steps x bytes per rank": s.TotalBytesWritten() == want,
		"every step file flushed":                                     s.Flushes >= int64(steps),
		"one step time per rank and step":                             len(v.stepTimes) == v.ranks*steps,
	})
	o.elapsed = float64(v.maxIO + v.flushTail)
	o.latencies(v.stepTimes)
	o.digest = v.digest(o.elapsed, v.stepTimes)
	o.counts = v.layerCounts()
	return o
}

// ---------------------------------------------------------------------------
// vpic_bdcats: Fig. 10, overlapped VPIC -> BD-CATS workflow on DRAM+BB.

type vpicBDCATS struct {
	base
	cfg       workloads.VPICConfig
	writers   int
	readers   int
	elapsed   sim.Time
	stepTimes []float64
}

func setupVPICBDCATS(p params) (instance, error) {
	ranks, perNode, steps := 2048, 8, 4
	if p.smoke {
		ranks, steps = 32, 3
	}
	cfg := workloads.DefaultVPIC(steps)
	// The workflow measures the data-movement pipeline: no compute phase.
	cfg.ComputeSeconds = 0
	cfg.ParticlesPerRank = 24 * p.unit / 32 // 24 units per rank and step
	bytes := cfg.BytesPerRankStep()

	cc := core.DefaultConfig()
	cc.CacheTiers = []meta.Tier{meta.TierDRAM, meta.TierBB}
	cc.DRAMLogBytes = bytes + 8*p.unit
	cc.BBLogBytes = bytes + 8*p.unit
	cc.Workflow = true
	st, err := newStack(p, cluster(ranks, perNode, bytes, steps), cc)
	if err != nil {
		return nil, err
	}
	writers := ranks / 2
	v := &vpicBDCATS{base: base{st: st, tr: p.tr}, cfg: cfg, writers: writers, readers: ranks - writers}
	v.attempted = int64(ranks * steps * (cfg.Props + 2))
	nodes := make([]int, len(st.w.Cluster.Nodes))
	for i := range nodes {
		nodes[i] = i
	}
	opts := mpi.LaunchOpts{RanksPerNode: perNode / 2, Nodes: nodes}
	bd := workloads.BDCATSConfig{VPIC: cfg, WritersN: writers, Collective: true}
	vpic := st.w.Launch("vpic", writers, func(r *mpi.Rank) {
		stats, err := workloads.RunVPIC(r, st.env, cfg)
		if err != nil {
			v.rankErr("vpic rank %d: %v", r.Rank(), err)
		}
		for _, d := range stats.StepIOTime {
			v.stepTimes = append(v.stepTimes, float64(d))
		}
		st.uv.Disconnect(r)
	}, opts)
	bdcats := st.w.Launch("bdcats", v.readers, func(r *mpi.Rank) {
		stats, err := workloads.RunBDCATS(r, st.env, bd)
		if err != nil {
			v.rankErr("bdcats rank %d: %v", r.Rank(), err)
		}
		for _, d := range stats.StepIOTime {
			v.stepTimes = append(v.stepTimes, float64(d))
		}
		v.elapsed = max(v.elapsed, r.Now())
		st.uv.Disconnect(r)
	}, opts)
	janitor(st, vpic, bdcats)
	return v, nil
}

func (v *vpicBDCATS) finish() outcome {
	var o outcome
	steps := v.cfg.TimeSteps
	data := int64(v.writers*steps) * v.cfg.BytesPerRankStep()
	s := v.st.sys.Stats()
	// BD-CATS reads every data byte once, plus (collective open) the root's
	// one metadata-region read per step.
	v.check(&o, map[string]bool{
		"bytes written by tier sum to writers x steps x bytes per rank": s.TotalBytesWritten() == data+int64(steps)*hdfMetaBytes(v.cfg.Props),
		"BD-CATS read every byte written":                               s.TotalBytesRead() == data+int64(steps)*64<<10,
		"one step time per rank and step":                               len(v.stepTimes) == (v.writers+v.readers)*steps,
	})
	o.elapsed = float64(v.elapsed)
	o.latencies(v.stepTimes)
	o.digest = v.digest(o.elapsed, v.stepTimes)
	o.counts = v.layerCounts()
	return o
}

// ---------------------------------------------------------------------------
// ckpt_dedup: the checkpoint kernel with dedup, retention and a 3-shard
// R=3 metadata plane.

type ckptDedup struct {
	base
	cfg       workloads.CheckpointConfig
	ranks     int
	maxIO     sim.Time
	changed   int64
	stepTimes []float64
}

func setupCkptDedup(p params) (instance, error) {
	ranks, perNode := 256, 8
	cfg := workloads.CheckpointConfig{
		SegmentsPerRank: 16,
		SegmentBytes:    4 * p.unit,
		TimeSteps:       10,
		ChangeRate:      0.10,
		ComputeSeconds:  5,
		Seed:            p.seed,
		Retention:       2,
	}
	if p.smoke {
		ranks, cfg.SegmentsPerRank, cfg.TimeSteps = 16, 4, 4
	}
	cc := core.DefaultConfig()
	cc.CacheTiers = []meta.Tier{meta.TierDRAM, meta.TierBB}
	cc.Dedup = true
	cc.DedupBlockBytes = cfg.SegmentBytes
	cc.MetaShards = 3
	cc.MetaReplicas = 3
	cc.MetaRecordLatencies = true
	tc := cluster(ranks, perNode, cfg.BytesPerRankStep(), cfg.TimeSteps)
	st, err := newStack(p, tc, cc)
	if err != nil {
		return nil, err
	}
	c := &ckptDedup{base: base{st: st, tr: p.tr}, cfg: cfg, ranks: ranks}
	// Per step and rank: open, the segment writes and the flush; plus a
	// delete and close per retired step.
	c.attempted = int64(ranks * cfg.TimeSteps * (cfg.SegmentsPerRank + 4))
	app := st.w.Launch("ckpt", ranks, func(r *mpi.Rank) {
		stats, err := workloads.RunCheckpoint(r, st.env, cfg)
		if err != nil {
			c.rankErr("rank %d: %v", r.Rank(), err)
		}
		c.maxIO = max(c.maxIO, stats.TotalIO)
		c.changed += stats.SegmentsChanged
		for _, d := range stats.StepIOTime {
			c.stepTimes = append(c.stepTimes, float64(d))
		}
		st.uv.Disconnect(r)
	}, mpi.LaunchOpts{RanksPerNode: perNode})
	janitor(st, app)
	return c, nil
}

func (c *ckptDedup) finish() outcome {
	var o outcome
	s := c.st.sys.Stats()
	cs := c.st.sys.CASStats()
	logical := int64(c.ranks*c.cfg.TimeSteps) * c.cfg.BytesPerRankStep()
	c.check(&o, map[string]bool{
		"bytes written by tier sum to ranks x steps x bytes per rank": s.TotalBytesWritten() == logical,
		"every step flushed its full logical image":                   s.BytesFlushed == logical,
		"CAS interned + deduped equal logical bytes flushed":          cs != nil && cs.InternedBytes+cs.DedupedBytes == s.BytesFlushed,
		"dedup moved fewer bytes than it flushed":                     s.BytesFlushedPhysical < s.BytesFlushed,
		"one step time per rank and step":                             len(c.stepTimes) == c.ranks*c.cfg.TimeSteps,
	})
	o.elapsed = float64(c.maxIO)
	o.latencies(c.stepTimes)
	o.digest = c.digest(o.elapsed, c.changed, c.stepTimes)
	o.counts = c.layerCounts()
	return o
}

// ---------------------------------------------------------------------------
// tenant_storm: the gateway in open loop on a leased, splitting plane.

type tenantStorm struct {
	base
	gw *gateway.Gateway
}

func setupTenantStorm(p params) (instance, error) {
	tenants, nodes, seconds := 256, 32, 12.0
	splitAt := 1.0
	if p.smoke {
		tenants, nodes, seconds, splitAt = 16, 4, 1.5, 0.2
	}
	tc := topology.Cori()
	tc.Nodes = nodes
	tc.BBNodes = nodes / 2
	cc := core.DefaultConfig()
	cc.MetaShards = 4
	cc.MetaReplicas = 3
	cc.MetaFollowerReads = true
	cc.MetaRecordLatencies = true
	st, err := newStack(p, tc, cc)
	if err != nil {
		return nil, err
	}
	gc := gateway.DefaultConfig()
	gc.Tenants = tenants
	gc.ZipfS = 1.2
	gc.QoS = true
	gc.Seed = p.seed
	gc.OpBytes = p.unit / 16 // 64 KiB in the run's unit
	gc.ArrivalRate = 40
	gc.OpsPerTenant = 0
	gc.DurationSeconds = seconds
	t := &tenantStorm{base: base{st: st, tr: p.tr}}
	p.tr.span("setup.gateway", func() { t.gw, err = gateway.Start(st.sys, gc) })
	if err != nil {
		return nil, fmt.Errorf("gateway.Start: %w", err)
	}
	// One online shard split early in the run.
	sys := st.sys
	st.e.Go("split", func(pr *sim.Proc) {
		pr.Sleep(splitAt)
		if _, ok := sys.MetaSplit(); !ok {
			t.rankErr("online split at %.2fs refused", splitAt)
		}
	})
	return t, nil
}

func (t *tenantStorm) finish() outcome {
	var o outcome
	rep := t.gw.Report()
	gwErr := t.gw.Err()
	viol := t.gw.CheckInvariants()
	pl := t.st.sys.Plane()
	t.check(&o, map[string]bool{
		"gateway finished without error":   gwErr == nil,
		"gateway invariants hold":          len(viol) == 0,
		"issued = completed + rejected":    rep.Issued == rep.Completed+rep.Rejected,
		"quota denials are rejections":     rep.QuotaDenied <= rep.Rejected,
		"one latency sample per completed": int64(rep.Write.Count+rep.Read.Count+rep.Stat.Count) == rep.Completed,
		"the online split ran":             pl != nil && pl.Stats().Splits == 1,
	})
	if gwErr != nil {
		o.problems = append(o.problems, gwErr.Error())
	}
	o.problems = append(o.problems, viol...)
	// Every refused or quota-denied op is a failed op.
	o.attempted += rep.Issued
	o.failed += rep.Rejected
	o.elapsed = float64(o.end)
	o.p50 = max(rep.Write.P50, rep.Read.P50, rep.Stat.P50)
	o.p999 = max(rep.Write.P999, rep.Read.P999, rep.Stat.P999)
	o.samples = int(rep.Completed)
	o.digest = t.digest(rep)
	o.counts = t.layerCounts()
	o.counts["gateway.issued"] = float64(rep.Issued)
	o.counts["gateway.completed"] = float64(rep.Completed)
	o.counts["gateway.rejected"] = float64(rep.Rejected)
	o.counts["gateway.quota_denied"] = float64(rep.QuotaDenied)
	o.counts["gateway.admission_wait_s"] = rep.AdmissionWaitSeconds
	o.counts["gateway.write.sim_p99_ms"] = rep.Write.P99 * 1e3
	o.counts["gateway.read.sim_p99_ms"] = rep.Read.P99 * 1e3
	o.counts["gateway.stat.sim_p99_ms"] = rep.Stat.P99 * 1e3
	o.counts["gateway.jain"] = rep.JainFairness
	return o
}
