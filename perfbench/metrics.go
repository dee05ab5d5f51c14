package main

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics an untraced run prints in its JSON line, on
// every workload. A pass is the workload's unit of load: one re-solve
// of every cell on tower and flat, a block of requests holding one
// request per mix cell on serve-mixed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"pass_ms_p50", "ms", "lower"},
	{"latency_ms_p99", "ms", "lower"},
	{"solves_per_s", "1/s", "higher"},
	{"alloc_mb_per_pass", "MB", "lower"},
	{"kallocs_per_pass", "kallocs", "lower"},
	{"live_heap_mb", "MB", "lower"},
}

// ungated are end-to-end metrics an untraced run prints as text only.
// On serve-mixed, latency_ms_p50 sits where the latency distribution
// jumps from the sub-millisecond cells to the padded ones, and
// pass_ms_p90 rests on about sixty passes whose slowest requests turn
// on how often tower-cell requests collide; a shift in load between
// runs moves both by more than any bound BENCHMARK.json may set.
var ungated = []metricDef{
	{"pass_ms_p90", "ms", "lower"},
	{"latency_ms_p50", "ms", "lower"},
}

// perLayer are the metrics a traced run prints, on every workload; a
// layer the workload does not reach reads 0. Times and counts are
// medians over traced passes of their per-pass sums. What each should
// move is listed in README.md.
var perLayer = []metricDef{
	{"graph.build_ms", "ms", "lower"},
	{"graph.cycles_ms", "ms", "lower"},
	{"core.build_ms", "ms", "lower"},
	{"core.decode_ms", "ms", "lower"},
	{"core.verify_ms", "ms", "lower"},
	{"core.verify_alloc_mb", "MB", "lower"},
	{"core.solve_ms", "ms", "lower"},
	{"core.solve_alloc_mb", "MB", "lower"},
	{"core.relay_assemble_ms", "ms", "lower"},
	{"core.level1.rounds", "count", "lower"},
	{"core.level1.deliveries", "count", "lower"},
	{"core.level1.relay_words", "count", "lower"},
	{"core.level2.rounds", "count", "lower"},
	{"core.level2.deliveries", "count", "lower"},
	{"core.level2.relay_words", "count", "lower"},
	{"errorproof.psi_ms", "ms", "lower"},
	{"errorproof.psi_rounds", "count", "lower"},
	{"errorproof.psi_deliveries", "count", "lower"},
	{"engine.rounds", "count", "lower"},
	{"engine.deliveries", "count", "lower"},
	{"engine.ns_per_delivery", "ns", "lower"},
	{"coloring.cv_ms", "ms", "lower"},
	{"sinkless.det_ms", "ms", "lower"},
	{"sinkless.rand_ms", "ms", "lower"},
	{"sinkless.msg_ms", "ms", "lower"},
	{"netdecomp.build_ms", "ms", "lower"},
	{"lcl.verify_ms", "ms", "lower"},
	{"solver.prepare_ms", "ms", "lower"},
	{"solver.run_ms", "ms", "lower"},
	{"solver.checksum_us", "us", "lower"},
	{"serve.pool_hit_ratio", "ratio", "higher"},
	{"serve.queue_depth_max", "count", "lower"},
	{"serve.coalesced", "count", "higher"},
	{"serve.rejected", "count", "lower"},
	{"driver.late_ms_p99", "ms", "lower"},
	{"slo_miss_ratio", "ratio", "lower"},
	{"fail_ratio", "ratio", "lower"},
	{"trace.overhead_ms", "ms", "lower"},
}

// spanMetrics maps a replay span name to the per-layer metric holding
// its per-pass time in milliseconds.
var spanMetrics = map[string]string{
	"graph.cycles":    "graph.cycles_ms",
	"core.decode":     "core.decode_ms",
	"core.verify":     "core.verify_ms",
	"core.solve":      "core.solve_ms",
	"errorproof.psi":  "errorproof.psi_ms",
	"coloring.cv":     "coloring.cv_ms",
	"sinkless.det":    "sinkless.det_ms",
	"sinkless.rand":   "sinkless.rand_ms",
	"sinkless.msg":    "sinkless.msg_ms",
	"netdecomp.build": "netdecomp.build_ms",
	"lcl.verify":      "lcl.verify_ms",
}

// countMetrics are replay counts and allocations summed per pass under
// their metric names.
var countMetrics = []string{
	"core.solve_alloc_mb", "core.verify_alloc_mb",
	"core.level1.rounds", "core.level1.deliveries", "core.level1.relay_words",
	"core.level2.rounds", "core.level2.deliveries", "core.level2.relay_words",
	"errorproof.psi_rounds", "errorproof.psi_deliveries",
	"engine.rounds", "engine.deliveries",
}
