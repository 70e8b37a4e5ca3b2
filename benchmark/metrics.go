package main

// metricKind tells the self-agreement mode how to compare two runs of
// one metric: timings and allocation counts within their bound, counts
// bit-for-bit.
type metricKind int

const (
	kindTime  metricKind = iota // wall-clock derived; compared within Bound
	kindAlloc                   // Mallocs or RSS derived; compared within Bound
	kindCount                   // deterministic in the seed; must repeat exactly
)

// metricDef declares one reported metric. BENCHMARK.json restates
// name, unit, direction and bound; main_test.go holds the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Kind   metricKind
}

// endToEnd lists the metrics a user of the deployment system sees,
// measured by the untraced pass.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, kindTime},
	{"deploy_p50_ms", "ms", "lower", 0.15, kindTime},
	{"deploys_per_s", "1/s", "higher", 0.15, kindTime},
	{"gated_deploy_p50_ms", "ms", "lower", 0.20, kindTime},
	{"deploy_allocs_per_op", "count", "lower", 0.02, kindAlloc},
	{"heal_p50_ms", "ms", "lower", 0.15, kindTime},
	{"heal_p90_ms", "ms", "lower", 0.20, kindTime},
	{"replay_pkts_per_s", "1/s", "higher", 0.15, kindTime},
	{"amax_bytes", "bytes", "lower", 0.01, kindCount},
	{"cross_bytes_total", "bytes", "lower", 0.01, kindCount},
	{"heal_amax_bytes", "bytes", "lower", 0.01, kindCount},
	{"heal_moved_mats", "count", "lower", 0.01, kindCount},
	{"peak_rss_mb", "MB", "lower", 0.15, kindAlloc},
}

// perLayer lists the traced pass's single-layer metrics, grouped by the
// package whose public calls the spans wrap. README.md maps each group
// to the end-to-end metric it should move.
var perLayer = []metricDef{
	{"analyzer.analyze_ms", "ms", "lower", 0, kindTime},
	{"analyzer.allocs", "count", "lower", 0, kindAlloc},
	{"analyzer.mats_out", "count", "lower", 0, kindCount},
	{"analyzer.edges_out", "count", "lower", 0, kindCount},
	{"merge.savings_mats", "count", "higher", 0, kindCount},

	{"lint.graph_ms", "ms", "lower", 0, kindTime},
	{"lint.plan_ms", "ms", "lower", 0, kindTime},
	{"lint.findings", "count", "lower", 0, kindCount},

	{"placement.solve_ms", "ms", "lower", 0, kindTime},
	{"placement.solve_allocs", "count", "lower", 0, kindAlloc},
	{"placement.validate_ms", "ms", "lower", 0, kindTime},
	{"placement.used_switches", "count", "lower", 0, kindCount},
	{"placement.replan_ms", "ms", "lower", 0, kindTime},
	{"placement.replan_allocs", "count", "lower", 0, kindAlloc},
	{"placement.replan_dirty_mats", "count", "lower", 0, kindCount},
	{"placement.replan_moved_mats", "count", "lower", 0, kindCount},
	{"placement.replan_repair_share", "ratio", "higher", 0, kindCount},

	{"shard.solve_ms", "ms", "lower", 0, kindTime},
	{"shard.partition_ms", "ms", "lower", 0, kindTime},
	{"shard.region_ms", "ms", "lower", 0, kindTime},
	{"shard.exchange_ms", "ms", "lower", 0, kindTime},
	{"shard.unattributed_ms", "ms", "lower", 0, kindTime},
	{"shard.exchange_rounds", "count", "lower", 0, kindCount},
	{"shard.exchange_moves", "count", "lower", 0, kindCount},
	{"shard.boundary_hosts", "count", "lower", 0, kindCount},
	{"shard.fell_back", "count", "lower", 0, kindCount},
	{"shard.regional_replan_ms", "ms", "lower", 0, kindTime},
	{"shard.regions_touched", "count", "lower", 0, kindCount},

	{"network.partition_ms", "ms", "lower", 0, kindTime},
	{"network.traffic_gen_ms", "ms", "lower", 0, kindTime},
	{"network.oracle_hits", "count", "higher", 0, kindCount},
	{"network.oracle_misses", "count", "lower", 0, kindCount},

	{"deploy.compile_ms", "ms", "lower", 0, kindTime},
	{"deploy.compile_allocs", "count", "lower", 0, kindAlloc},
	{"deploy.verify_ms", "ms", "lower", 0, kindTime},
	{"deploy.header_bytes_max", "bytes", "lower", 0, kindCount},
	{"deploy.switch_configs", "count", "lower", 0, kindCount},

	{"equiv.plan_check_ms", "ms", "lower", 0, kindTime},
	{"equiv.check_ms", "ms", "lower", 0, kindTime},
	{"equiv.check_allocs", "count", "lower", 0, kindAlloc},
	{"equiv.recheck_ms", "ms", "lower", 0, kindTime},
	{"equiv.recheck_share", "ratio", "lower", 0, kindCount},
	{"equiv.findings_warn", "count", "lower", 0, kindCount},
	{"equiv.findings_err", "count", "lower", 0, kindCount},

	{"rollout.new_ms", "ms", "lower", 0, kindTime},
	{"rollout.execute_ms", "ms", "lower", 0, kindTime},
	{"rollout.allocs", "count", "lower", 0, kindAlloc},
	{"rollout.ops", "count", "lower", 0, kindCount},
	{"rollout.retries", "count", "lower", 0, kindCount},

	{"dataplane.pipeline_build_ms", "ms", "lower", 0, kindTime},
	{"dataplane.load_ns_per_pkt", "ns", "lower", 0, kindTime},
	{"dataplane.run_ns_per_pkt", "ns", "lower", 0, kindTime},
	{"dataplane.allocs_per_pkt", "count", "lower", 0, kindAlloc},
	{"dataplane.coord_bytes_per_pkt", "bytes", "lower", 0, kindCount},
	{"dataplane.engine_ns_per_pkt", "ns", "lower", 0, kindTime},
	{"dataplane.reference_ns_per_pkt", "ns", "lower", 0, kindTime},

	{"supervisor.new_ms", "ms", "lower", 0, kindTime},
	{"supervisor.poll_idle_us", "us", "lower", 0, kindTime},
	{"supervisor.poll_heal_ms", "ms", "lower", 0, kindTime},
	{"supervisor.polls", "count", "lower", 0, kindCount},
	{"supervisor.replans", "count", "lower", 0, kindCount},
	{"supervisor.incremental_share", "ratio", "higher", 0, kindCount},
	{"supervisor.shed_events", "count", "lower", 0, kindCount},
	{"supervisor.monitor_probes", "count", "lower", 0, kindCount},

	{"trace.deploy_coverage", "ratio", "higher", 0, kindTime},
	{"trace.overhead_share", "ratio", "lower", 0, kindTime},
}

// metricValue is one emitted measurement; N is the sample count behind
// a timing (0 for counts) and is printed, not serialised.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"`
}
