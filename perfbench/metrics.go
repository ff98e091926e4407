package main

import (
	"math"
	"sort"
)

// metric is one named number of the report.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metric{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"sim_elapsed_s", "s", "lower"},
	{"sim_p50_ms", "ms", "lower"},
	{"sim_p999_ms", "ms", "lower"},
	{"flush_physical_ratio", "ratio", "lower"},
}

// perLayer are the metrics a traced run reports, on every workload; a
// layer the workload does not exercise reads 0.
var perLayer = func() []metric {
	var m []metric
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			m = append(m, metric{n, unit, better})
		}
	}
	add("lower", "count", "sim.solver.recompute_batches", "sim.solver.components_solved",
		"sim.solver.flows_solved", "sim.solver.merges", "sim.solver.splits", "sim.solver.peak_components")
	add("lower", "ns", "sim.solver.ns_per_flow")
	add("lower", "count", "sim.pool.batches", "sim.pool.components", "sim.pool.max_workers")
	add("lower", "count", "sim.engine.flows_started", "runtime.gc.cycles", "runtime.mallocs")
	for _, l := range layers {
		add("lower", "s", l+".host_s")
	}
	for _, l := range layers {
		if l != "sim.switch" && l != "runtime.gc" {
			add("lower", "MB", l+".alloc_mb")
		}
	}
	add("higher", "B", "core.bytes_written.dram", "core.bytes_written.bb")
	add("lower", "B", "core.bytes_written.pfs")
	add("higher", "B", "core.bytes_read.local", "core.bytes_read.shared")
	add("lower", "B", "core.bytes_read.remote")
	add("lower", "count", "core.spills", "core.flushes", "core.meta_ops", "core.open_ops")
	for _, op := range opNames {
		add("lower", "count", "core."+op+".calls")
		add("lower", "ms", "core."+op+".sim_p99_ms")
	}
	add("lower", "count", "metaplane.puts", "metaplane.lookups", "metaplane.lease_grants")
	add("higher", "count", "metaplane.follower_reads")
	add("lower", "count", "metaplane.forwarded_reads", "metaplane.split_records", "metaplane.double_applies")
	add("higher", "ratio", "metaplane.follower_read_frac")
	add("lower", "ms", "metaplane.put.sim_p99_ms", "metaplane.stat.sim_p99_ms")
	add("lower", "MB", "castore.interned_mb")
	add("higher", "MB", "castore.deduped_mb")
	add("higher", "count", "castore.dedup_hits")
	add("lower", "count", "castore.gc_batches")
	add("lower", "MB", "castore.dead_mb_end")
	add("higher", "count", "gateway.issued", "gateway.completed")
	add("lower", "count", "gateway.rejected", "gateway.quota_denied")
	add("lower", "s", "gateway.admission_wait_s")
	add("lower", "ms", "gateway.write.sim_p99_ms", "gateway.read.sim_p99_ms", "gateway.stat.sim_p99_ms")
	add("higher", "ratio", "gateway.jain")
	add("lower", "s", "trace.overhead_s")
	add("higher", "count", "profile.samples")
	return m
}()

// quantile is the R-7 (linear interpolation) quantile of xs; 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
