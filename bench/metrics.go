package main

// metricDef is one named metric. The lists below are the benchmark's
// vocabulary: BENCHMARK.json at the repository root repeats them (a test
// keeps the two in step) and bench/README.md is their glossary.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // allowed relative worsening; 0 = not gated
}

// endToEnd are the metrics every workload reports from the untraced run.
// Each has one meaning on every workload, stated per workload in the
// README: an op is one cold simulation (core_*), one report (report_*) or
// one cold job (serve_jobs); simulated work is what the timed ops
// delivered, whether simulated or served from a cache. Times are
// reference-box milliseconds (calib.go).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"sim_mcycles_per_s", "Mcycles/s", "higher", 0.25},
	{"sim_mthreadops_per_s", "Mops/s", "higher", 0.25},
	{"allocs_per_sim", "count", "lower", 0.02},
	{"alloc_mb_per_sim", "MB", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the metrics of the traced run, one group per package of
// the repo. A layer a workload never enters reports 0 there. Bounds are
// set only where the repo's own -compare should judge a phase the
// uniform end-to-end list cannot name (the daemon's cold, traced and
// streaming paths, report tail latency, and the simulated headline).
var perLayer = []metricDef{
	{"engine.ns_per_event", "ns", "lower", 0},
	{"engine.ns_per_event_far", "ns", "lower", 0},
	{"engine.idle_rununtil_ns", "ns", "lower", 0},
	{"engine.cpu_share", "share", "lower", 0},

	{"mem.l1_hit_ns", "ns", "lower", 0},
	{"mem.l1_miss_ns", "ns", "lower", 0},
	{"mem.funcmem_rw_ns", "ns", "lower", 0},
	{"mem.cpu_share.l1", "share", "lower", 0},
	{"mem.cpu_share.l2", "share", "lower", 0},
	{"mem.cpu_share.dram_xbar", "share", "lower", 0},
	{"mem.cpu_share.funcmem", "share", "lower", 0},
	{"mem.l1_accesses", "count", "lower", 0},
	{"mem.l1_misses", "count", "lower", 0},
	{"mem.l2_accesses", "count", "lower", 0},
	{"mem.l2_misses", "count", "lower", 0},
	{"mem.dram_accesses", "count", "lower", 0},
	{"mem.xbar_transfers", "count", "lower", 0},

	{"wpu.alu_issue_ns_per_instr", "ns", "lower", 0},
	{"wpu.cpu_share", "share", "lower", 0},
	{"wpu.issued", "count", "lower", 0},
	{"wpu.threadops", "count", "lower", 0},
	{"wpu.subdiv_branch", "count", "lower", 0},
	{"wpu.subdiv_mem", "count", "lower", 0},
	{"wpu.revivals", "count", "lower", 0},
	{"wpu.pc_merges", "count", "lower", 0},
	{"wpu.cycles.busy", "count", "lower", 0},
	{"wpu.cycles.mem_coherent", "count", "lower", 0},
	{"wpu.cycles.mem_divergent", "count", "lower", 0},
	{"wpu.cycles.barrier", "count", "lower", 0},
	{"wpu.cycles.icache", "count", "lower", 0},
	{"wpu.cycles.wst_full", "count", "lower", 0},
	{"wpu.cycles.slot_wait", "count", "lower", 0},
	{"wpu.cycles.idle", "count", "lower", 0},

	{"isa.alu_lane_ns", "ns", "lower", 0},
	{"isa.cpu_share", "share", "lower", 0},

	{"program.verify_us", "us", "lower", 0},
	{"program.memaccess_us", "us", "lower", 0},
	{"program.costmodel_us", "us", "lower", 0},
	{"program.cpu_share", "share", "lower", 0},

	{"workloads.build_ms", "ms", "lower", 0},
	{"workloads.verify_ms", "ms", "lower", 0},
	{"workloads.cpu_share", "share", "lower", 0},

	{"sim.new_ms", "ms", "lower", 0},
	{"sim.run_ms", "ms", "lower", 0},
	{"sim.host_ns_per_cycle.conv", "ns", "lower", 0},
	{"sim.host_ns_per_cycle.dws", "ns", "lower", 0},
	{"sim.host_ns_per_instr.conv", "ns", "lower", 0},
	{"sim.host_ns_per_instr.dws", "ns", "lower", 0},
	{"sim.cpu_share", "share", "lower", 0},
	{"sim.op_child_coverage", "share", "higher", 0},

	{"energy.estimate_us", "us", "lower", 0},

	{"obs.events", "count", "lower", 0},
	{"obs.samples", "count", "lower", 0},
	{"obs.traced_over_untraced", "ratio", "lower", 0},
	{"obs.hist_record_ns", "ns", "lower", 0},
	{"obs.chrome_export_ms", "ms", "lower", 0},
	{"obs.cpu_share", "share", "lower", 0},

	{"report.render_ms", "ms", "lower", 0},
	{"report.store_open_ms", "ms", "lower", 0},
	{"report.store_save_us", "us", "lower", 0},
	{"report.store_load_us", "us", "lower", 0},
	{"report.store_record_bytes", "bytes", "lower", 0},
	{"report.rundoc_us", "us", "lower", 0},
	{"report.j1_over_j2", "ratio", "higher", 0},
	{"report.mem_hits", "count", "higher", 0},
	{"report.disk_hits", "count", "higher", 0},
	{"report.misses", "count", "lower", 0},
	{"report.cpu_share", "share", "lower", 0},
	{"report.op_p90_ms", "ms", "lower", 0.25},
	{"report.dws_speedup_hmean", "ratio", "higher", 0.001},

	{"serve.daemon_ready_ms", "ms", "lower", 0},
	{"serve.http_floor_us", "us", "lower", 0},
	{"serve.submit_ms", "ms", "lower", 0},
	{"serve.result_get_ms", "ms", "lower", 0},
	{"serve.polls_per_job", "count", "lower", 0},
	{"serve.decode_us", "us", "lower", 0},
	{"serve.render_doc_us", "us", "lower", 0},
	{"serve.result_key_us", "us", "lower", 0},
	{"serve.metrics_scrape_ms", "ms", "lower", 0},
	{"serve.first_frame_ms", "ms", "lower", 0},
	{"serve.stream_frames", "count", "lower", 0},
	{"serve.stream_mb", "MB", "lower", 0},
	{"serve.cold_result_p50_ms", "ms", "lower", 0.25},
	{"serve.warm_result_p50_ms", "ms", "lower", 0.25},
	{"serve.warm_result_p90_ms", "ms", "lower", 0.25},
	{"serve.warm_result_p98_ms", "ms", "lower", 0},
	{"serve.traced_over_untraced", "ratio", "lower", 0.25},
	{"serve.stream_kevents_per_s", "kframes/s", "higher", 0.25},
	{"serve.daemon_peak_rss_mb", "MB", "lower", 0},
	{"serve.jobs_done", "count", "higher", 0},
	{"serve.session_mem", "count", "higher", 0},
	{"serve.session_disk", "count", "higher", 0},
	{"serve.session_simulated", "count", "lower", 0},

	{"host.cpu_share.runtime", "share", "lower", 0},
	{"host.cpu_share.other", "share", "lower", 0},
	{"host.gc_cycles", "count", "lower", 0},
	{"host.gc_pause_ms", "ms", "lower", 0},
	{"host.peak_rss_mb", "MB", "lower", 0},
	{"host.calibration_ms", "ms", "lower", 0},
	{"host.op_p50_wall_ms", "ms", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}

// workloadDef names a workload and says why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"core_mem", "FFT, Filter, HotSpot, LU under Conv and DWS at scale 1, one cold simulation per op: 61-74% memory stall, so the L1 miss path, L2, DRAM, crossbar and event delivery do the host work."},
	{"core_issue", "Merge, Short, KMeans, SVM likewise: busy 59-87% with few misses and up to 41% divergent branches, so scheduler, issue, split/merge and lane loops dominate and the memory system is nearly bypassed."},
	{"core_long", "LU, Merge, KMeans at scale 4: runs 4-10x longer, so per-simulation set-up is amortised away and allocation growth, GC and host-cache footprint dominate instead."},
	{"report_cold", "The 96-simulation exhibit spine from an empty store at -j 2: what dwsreport users wait for, many short simulations through the executor, store write-through and rendering."},
	{"report_warm", "The same exhibits from a populated store: bypasses the simulator core entirely, leaving store open, load, JSON decode and rendering."},
	{"serve_jobs", "A real dwsimd child over loopback HTTP with job bodies from data files: cold jobs simulate, warm resubmissions isolate the serving layer, traced jobs stream events over SSE."},
}

func defOf(list []metricDef, name string) (metricDef, bool) {
	for _, d := range list {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// lookupMetric finds a metric in either list.
func lookupMetric(name string) (metricDef, bool) {
	if d, ok := defOf(endToEnd, name); ok {
		return d, true
	}
	return defOf(perLayer, name)
}
