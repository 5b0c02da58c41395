package main

// metricDef names one reported metric and its unit. The end-to-end and
// per-layer lists here are the ones BENCHMARK.json declares; a test
// keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics every workload reports in its untraced
// run's result line: the costs a user of the deployment pays on any
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"alloc_mb", "MB"},
	{"retained_mb", "MB"},
}

// workloadEndToEnd are the end-to-end metrics that exist only on some
// workloads. They are printed and recorded for the workloads they
// apply to, but not in the result line, which must carry the same
// metrics for every workload.
var workloadEndToEnd = []metricDef{
	{"recover_s", "s"},
	{"portal_p50_ms", "ms"},
	{"portal_tail_ms", "ms"},
	{"latency_p50_h", "virtual_h"},
	{"latency_tail_h", "virtual_h"},
	{"makespan_h", "virtual_h"},
	{"goodput_per_h", "jobs/virtual_h"},
	{"failed_ratio", "ratio"},
	{"shed_ratio", "ratio"},
}

// cpuModules are the repository modules a CPU profile sample can be
// attributed to (the first path element under lattice/internal).
var cpuModules = []string{
	"portal", "gsbl", "admit", "shard", "core", "estimate", "forest",
	"metasched", "lrm", "boinc", "faults", "dag", "sim", "obs", "wal",
	"phylo", "beagle", "workload", "grid",
}

// perLayer are the traced run's metrics, grouped by layer. A layer a
// workload does not exercise reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"portal.create_calls", "count"},
		{"portal.create_busy_s", "s"},
		{"portal.status_202", "count"},
		{"portal.status_429", "count"},
		{"portal.status_4xx", "count"},
		{"portal.metrics_scrape_s", "s"},
		{"portal.metrics_bytes", "bytes"},

		{"gsbl.accept_calls", "count"},
		{"gsbl.accept_busy_s", "s"},
		{"gsbl.ingest_wait_tail_s", "virtual_s"},
		{"gsbl.ingest_peak_depth", "count"},
		{"gsbl.ingest_errors", "count"},

		{"admit.shed_quota", "count"},
		{"admit.shed_overload", "count"},

		{"shard.balance", "ratio"},

		{"core.recover_inputs", "count"},
		{"core.recover_records", "count"},
		{"core.recover_busy_s", "s"},
		{"wal.load_s", "s"},

		{"estimate.bootstrap_s", "s"},
		{"estimate.predict_calls", "count"},
		{"estimate.predict_busy_s", "s"},
		{"estimate.retrains", "count"},

		{"metasched.submitted", "count"},
		{"metasched.completed", "count"},
		{"metasched.failed", "count"},
		{"metasched.retries", "count"},
		{"metasched.requeued", "count"},
		{"metasched.submit_retries", "count"},
		{"metasched.breaker_trips", "count"},
		{"metasched.bundled", "count"},
		{"metasched.place_wait_tail_s", "virtual_s"},

		{"lrm.submit_calls", "count"},
		{"lrm.submit_busy_s", "s"},
		{"lrm.submit_errors", "count"},
		{"lrm.queue_wait_tail_s", "virtual_s"},
		{"lrm.preemptions", "count"},

		{"boinc.issued", "count"},
		{"boinc.reissues", "count"},
		{"boinc.late", "count"},
		{"boinc.deadline_misses", "count"},
		{"faults.injected", "count"},

		{"dag.workflows", "count"},
		{"dag.stage_batches", "count"},

		{"sim.events", "count"},
		{"sim.busy_s", "s"},
		{"sim.events_per_s", "1/s"},

		{"obs.journal_events", "count"},
		{"obs.collect_s", "s"},

		{"wal.bytes", "bytes"},
		{"wal.records", "count"},
		{"wal.bytes_per_record", "bytes"},
	}
	for _, dt := range []string{"nuc", "aa"} {
		defs = append(defs,
			metricDef{"beagle.evals." + dt, "count"},
			metricDef{"beagle.eval_busy_s." + dt, "s"},
			metricDef{"beagle.optimize_calls." + dt, "count"},
			metricDef{"beagle.optimize_busy_s." + dt, "s"},
			metricDef{"beagle.cells." + dt, "cells"},
			metricDef{"beagle.cells_per_s." + dt, "cells/s"},
			metricDef{"phylo.ga_self_s." + dt, "s"},
		)
	}
	defs = append(defs,
		metricDef{"go.gc_cycles", "count"},
		metricDef{"go.gc_pause_s", "s"},
		metricDef{"go.gc_cpu_s", "s"},
		metricDef{"go.alloc_objects", "count"},
	)
	for _, m := range cpuModules {
		defs = append(defs, metricDef{"cpu." + m + "_s", "s"})
	}
	defs = append(defs,
		metricDef{"cpu.gc_s", "s"},
		metricDef{"cpu.other_s", "s"},
		metricDef{"cpu.total_s", "s"},
		metricDef{"trace.untraced_run_s", "s"},
		metricDef{"trace.traced_run_s", "s"},
		metricDef{"trace.overhead_s", "s"},
	)
	return defs
}()
