package main

// layerMetric is one per-layer metric of the traced run. A layer a
// workload does not touch reports 0 there.
type layerMetric struct{ name, unit, better string }

// layerMetrics lists every per-layer metric, in the order BENCHMARK.json
// lists them. The comment before each group names the end-to-end
// metric the group should move, and on which workload. Time a layer
// spends computing moves op_cpu_ms_p50; time it spends waiting (idle
// workers, fsync, queueing) moves only the wall-time latencies of the
// traced run, trace.untraced_op_ms_p50 and _p90.
var layerMetrics = []layerMetric{
	// run-16x16: set-up breakdown -> setup_s.
	{"seec.build_ms", "ms", "lower"},
	{"seec.warmup_ms", "ms", "lower"},
	// run-16x16: host time per simulated cycle -> op_cpu_ms_p50.
	{"noc.step_us", "us", "lower"},
	{"express.hooks_us", "us", "lower"},
	{"traffic.gen_us", "us", "lower"},
	{"noc.self_us", "us", "lower"},
	// run-16x16: the simulated work itself; a speed-only change leaves
	// these exactly as they were.
	{"noc.flits_per_cycle", "flits/cycle", "higher"},
	{"noc.in_flight", "packets", "lower"},
	{"express.ff_upgrades", "count", "higher"},
	// sweep-cold: cells -> op_cpu_ms_p50; runner.busy_share (workers
	// idle in the batch's tail) -> the batch's wall time only.
	{"runner.cell_ms_p50", "ms", "lower"},
	{"runner.cell_ms_p90", "ms", "lower"},
	{"runner.busy_share", "share", "higher"},
	{"exp.scheme_s.xy", "s", "lower"},
	{"exp.scheme_s.west-first", "s", "lower"},
	{"exp.scheme_s.tfc", "s", "lower"},
	{"exp.scheme_s.escape", "s", "lower"},
	{"exp.scheme_s.minbd", "s", "lower"},
	{"exp.scheme_s.spin", "s", "lower"},
	{"exp.scheme_s.swap", "s", "lower"},
	{"exp.scheme_s.drain", "s", "lower"},
	{"exp.scheme_s.seec", "s", "lower"},
	{"exp.scheme_s.mseec", "s", "lower"},
	{"exp.scheme_s.app", "s", "lower"},
	{"exp.scheme_s.table3", "s", "lower"},
	{"seec.build_ms_p50", "ms", "lower"},
	{"plan.post_run_ms_p50", "ms", "lower"},
	{"plan.jobs", "count", "lower"},
	{"plan.simulated", "count", "lower"},
	// sweep-cold and sweep-warm -> op_cpu_ms_p50.
	{"exp.render_ms", "ms", "lower"},
	// sweep-warm: the store's read side -> op_cpu_ms_p50.
	{"plan.hit_us", "us", "lower"},
	{"plan.store_hits", "count", "higher"},
	// seecd-mixed: restart -> setup_s.
	{"serve.replay_ms", "ms", "lower"},
	// seecd-mixed: the submit's durability barrier and the job path ->
	// op_cpu_ms_p50 where they compute; the fsync waits -> serve.ack_ms_p50,
	// the job's wall-time latency and jobs_per_s.
	{"serve.ack_ms_p50", "ms", "lower"},
	{"serve.wal_sync_us_p50", "us", "lower"},
	{"serve.store_put_ms_p50", "ms", "lower"},
	{"serve.store_get_us_p50", "us", "lower"},
	{"serve.run_ms_p50", "ms", "lower"},
	{"serve.queue_ms_p50", "ms", "lower"},
	{"serve.polls_per_op", "count", "lower"},
	{"serve.cache_hits", "count", "higher"},
	{"serve.cache_misses", "count", "lower"},
	// seecd-mixed: throughput of the two closed-loop clients, from the
	// traced run's untraced phase (about 2 / mean turnaround).
	{"serve.jobs_per_s", "1/s", "higher"},
	// Every workload: allocation -> op_cpu_ms_p50, peak_rss_mb.
	{"runtime.alloc_mb_per_op", "MB", "lower"},
	{"runtime.gc_per_op", "count", "lower"},
	// Every workload: self time per operation of each traced layer
	// (span minus its open children, shared equally among parallel
	// workers). Per workload these and trace.other_ms add up to
	// trace.op_ms_mean.
	{"self.noc.run_ms", "ms", "lower"},
	{"self.express.hooks_ms", "ms", "lower"},
	{"self.traffic.gen_ms", "ms", "lower"},
	{"self.exp.fig8_ms", "ms", "lower"},
	{"self.exp.table3_ms", "ms", "lower"},
	{"self.exp.fig14_ms", "ms", "lower"},
	{"self.exp.render_ms", "ms", "lower"},
	{"self.runner.cell_ms", "ms", "lower"},
	{"self.seec.build_ms", "ms", "lower"},
	{"self.seec.run_ms", "ms", "lower"},
	{"self.plan.post_run_ms", "ms", "lower"},
	{"self.http.post_ms", "ms", "lower"},
	{"self.wal.sync_ms", "ms", "lower"},
	{"self.serve.queue_ms", "ms", "lower"},
	{"self.serve.run_ms", "ms", "lower"},
	{"self.store.get_ms", "ms", "lower"},
	{"self.store.put_ms", "ms", "lower"},
	{"self.http.poll_ms", "ms", "lower"},
	{"self.http.result_ms", "ms", "lower"},
	{"trace.other_ms", "ms", "lower"},
	// Every workload: the traced operation time the self times account
	// for, and what tracing costs.
	{"trace.op_ms_mean", "ms", "lower"},
	{"trace.op_ms_p50", "ms", "lower"},
	{"trace.untraced_op_ms_p50", "ms", "lower"},
	{"trace.untraced_op_ms_p90", "ms", "lower"},
	{"trace.overhead_ms", "ms", "lower"},
	{"trace.ops", "count", "higher"},
}
