package main

// The metric catalogue: every number the benchmark can print, with its
// unit and direction. BENCHMARK.json at the repository root lists the
// same names; bench_test.go keeps the two in step.
//
// End-to-end metrics are measured on every workload from runs without
// -trace. Per-layer metrics come from -trace runs; a layer a workload
// never exercises (the gateway on svc-cold, the job server on the
// in-process sweeps) reports 0 for its metrics.

type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"done_ms_p50", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"mem_peak_mb", "MiB", "lower"},
}

// simPkgs are the simulator packages a traced CPU profile is split
// into; profilePkgs adds the Go runtime's collector and allocator and
// everything else.
var (
	simPkgs     = []string{"sim", "gpu", "cache", "tlb", "mmu", "iommu", "core", "pwc", "dram"}
	profilePkgs = append(append([]string(nil), simPkgs...), "gc", "malloc", "other")
)

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"workload.generate_ms", "ms", "lower"},
		{"gpu.build_ms", "ms", "lower"},
		{"gpu.run_ns_per_event", "ns", "lower"},
		{"sim.events", "count", "lower"},
		{"gpu.allocs_per_event", "count", "lower"},
		{"gpu.alloc_bytes_per_event", "B", "lower"},
	}
	for _, p := range profilePkgs {
		defs = append(defs, metricDef{"cpu." + p + "_ns_per_event", "ns", "lower"})
	}
	return append(defs, []metricDef{
		{"model.cycles", "cycles", "lower"},
		{"model.simt_speedup", "ratio", "higher"},
		{"gpu.l2tlb_hit_rate", "frac", "higher"},
		{"cache.l1d_hit_rate", "frac", "higher"},
		{"iommu.walks", "count", "lower"},
		{"iommu.buffer_wait_cycles", "cycles", "lower"},
		{"iommu.walk_cycles", "cycles", "lower"},
		{"pwc.hit_rate", "frac", "higher"},
		{"dram.prio_reads", "count", "lower"},
		{"dram.row_hit_rate", "frac", "higher"},
		{"dram.queue_cycles", "cycles", "lower"},

		{"micro.engine_event_ns", "ns", "lower"},
		{"micro.tlb_lookup_ns", "ns", "lower"},
		{"micro.pwc_probe_ns", "ns", "lower"},
		{"micro.dram_access_ns", "ns", "lower"},
		{"micro.sched_pick_ns", "ns", "lower"},
		{"micro.engine_allocs_per_op", "count", "lower"},
		{"micro.dram_allocs_per_op", "count", "lower"},

		{"client.submit_ms_p50", "ms", "lower"},
		{"client.submit_ms_p99", "ms", "lower"},
		{"client.done_ms_p99", "ms", "lower"},
		{"client.late_ms_p99", "ms", "lower"},
		{"client.new_conns", "count", "lower"},
		{"client.warm_s", "s", "lower"},

		{"jobd.cpu_ms_per_job", "ms", "lower"},
		{"cluster.cpu_ms_per_job", "ms", "lower"},
		{"jobd.cache_hit_rate", "frac", "higher"},
		{"jobd.queue_highwater", "count", "lower"},
		{"jobd.gc_cycles_per_kjob", "count", "lower"},

		{"cluster.submit_self_ms_p50", "ms", "lower"},
		{"cluster.route_ms_p50", "ms", "lower"},
		{"cluster.proxy_self_ms_p50", "ms", "lower"},
		{"jobd.submit_self_ms_p50", "ms", "lower"},
		{"jobd.journal_ms_p50", "ms", "lower"},
		{"jobd.journal_ms_p99", "ms", "lower"},
		{"jobd.queue_wait_ms_p50", "ms", "lower"},
		{"jobd.queue_wait_ms_p99", "ms", "lower"},
		{"jobd.exec_self_ms_p50", "ms", "lower"},
		{"simcache.lookup_ms_p50", "ms", "lower"},
		{"sim.run_ms_p50", "ms", "lower"},
		{"simcache.put_ms_p50", "ms", "lower"},
		{"trace.unattributed_ms_p50", "ms", "lower"},
		{"trace.overhead_frac", "frac", "lower"},
		{"failed_frac", "frac", "lower"},
	}...)
}()

// metricSet collects one run's values by name.
type metricSet map[string]float64

// selectDefs returns the catalogue section a run reports: end-to-end
// metrics without -trace, per-layer metrics with it.
func selectDefs(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}
