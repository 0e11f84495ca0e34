package main

// Metric catalogue. BENCHMARK.json at the repository root lists the same
// names, units and directions; TestCatalogueMatchesBenchmarkJSON keeps the
// two in step. README.md maps each per-layer metric to the end-to-end
// figure it should move.

// The workload names.
const (
	wSec7  = "sec7_tx"
	wMesh8 = "mesh8_cbr_meso"
	wPlan  = "plan32_transpose"
	wServe = "serve_mixed"
)

var allWorkloads = []string{wSec7, wMesh8, wPlan, wServe}

// A metricDef describes one printed metric.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// on lists the workloads that measure the metric; nil means all. On
	// the others the metric prints as 0 and the availability line says
	// why (unavailable).
	on          []string
	unavailable string
}

func (m metricDef) measuredOn(workload string) bool {
	if m.on == nil {
		return true
	}
	for _, w := range m.on {
		if w == workload {
			return true
		}
	}
	return false
}

// endToEnd are printed by untraced runs (-trace 0), on every workload.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "wall_s", unit: "s", better: "lower"},
	{name: "alloc_mb", unit: "MB", better: "lower"},
	{name: "max_rss_mb", unit: "MB", better: "lower"},
}

var (
	simOn   = []string{wSec7, wMesh8}
	planOn  = []string{wPlan}
	serveOn = []string{wServe}

	noSim   = "no simulation: the workload plans allocations or drives serve jobs"
	noPlan  = "no allocation-only planning on this workload"
	noServe = "only serve_mixed runs jobs through the serve control plane"
	noBus   = "no trace bus is attached on this workload; only serve_mixed's compare jobs emit trace events"
)

// perLayer are printed by traced runs (-trace 1). The first block holds
// workload-scoped end-to-end figures, measured on the untraced ops of the
// traced run: an end-to-end metric must exist, non-zero, on every
// workload.
var perLayer = []metricDef{
	{name: "sim_kcycles_per_s", unit: "kcycles/s", better: "higher", on: simOn, unavailable: noSim},
	{name: "placed_frac", unit: "ratio", better: "higher", on: planOn, unavailable: noPlan},
	{name: "job_p50_ms", unit: "ms", better: "lower", on: serveOn, unavailable: noServe},
	{name: "job_p90_ms", unit: "ms", better: "lower", on: serveOn, unavailable: noServe},
	{name: "failed_frac", unit: "ratio", better: "lower"},
	{name: "bench.ops", unit: "count", better: "higher"},
	{name: "bench.trace_overhead_frac", unit: "ratio", better: "lower"},

	{name: "spec.gen_s", unit: "s", better: "lower", on: []string{wSec7, wMesh8, wPlan}, unavailable: "serve generates inside its jobs"},
	{name: "backend.build_s", unit: "s", better: "lower", on: simOn, unavailable: noSim},
	{name: "core.table_size", unit: "count", better: "lower", on: simOn, unavailable: noSim},
	{name: "core.plan_s", unit: "s", better: "lower", on: simOn, unavailable: noSim},

	{name: "slots.greedy_s", unit: "s", better: "lower", on: planOn, unavailable: noPlan},
	{name: "slots.ripup_s", unit: "s", better: "lower", on: planOn, unavailable: noPlan},
	{name: "slots.greedy_placed", unit: "count", better: "higher", on: planOn, unavailable: noPlan},
	{name: "slots.ripup_placed", unit: "count", better: "higher", on: planOn, unavailable: noPlan},
	{name: "slots.ripups_adopted", unit: "count", better: "higher", on: planOn, unavailable: noPlan},
	{name: "slots.ripup_useful_frac", unit: "ratio", better: "higher", on: planOn, unavailable: noPlan},

	{name: "sim.run_s", unit: "s", better: "lower", on: simOn, unavailable: noSim},
	{name: "sim.edges", unit: "count", better: "lower", on: simOn, unavailable: noSim},
	{name: "sim.ns_per_edge", unit: "ns", better: "lower", on: simOn, unavailable: noSim},

	{name: "replay.replayed_instants", unit: "count", better: "higher", on: simOn, unavailable: noSim},
	{name: "replay.engagements", unit: "count", better: "higher", on: simOn, unavailable: noSim},
	{name: "replay.deopts", unit: "count", better: "lower", on: simOn, unavailable: noSim},
	{name: "replay.inert", unit: "count", better: "lower", on: simOn, unavailable: noSim},

	{name: "trace.events", unit: "count", better: "lower", on: serveOn, unavailable: noBus},
	{name: "trace.ns_per_event", unit: "ns", better: "lower", on: serveOn, unavailable: noBus},
	{name: "audit.violations", unit: "count", better: "lower", on: serveOn, unavailable: noBus},

	{name: "serve.submit_ms", unit: "ms", better: "lower", on: serveOn, unavailable: noServe},
	{name: "serve.queue_ms", unit: "ms", better: "lower", on: serveOn, unavailable: noServe},
	{name: "serve.compare_shard_ms", unit: "ms", better: "lower", on: serveOn, unavailable: noServe},
	{name: "serve.async_shard_ms", unit: "ms", better: "lower", on: serveOn, unavailable: noServe},
	{name: "serve.finalize_ms", unit: "ms", better: "lower", on: serveOn, unavailable: noServe},
	{name: "serve.fetch_ms", unit: "ms", better: "lower", on: serveOn, unavailable: noServe},
	{name: "serve.journal_bytes_per_job", unit: "bytes", better: "lower", on: serveOn, unavailable: noServe},
	{name: "serve.retries", unit: "count", better: "lower", on: serveOn, unavailable: noServe},
}

// cpuModules are the leaf-frame groups of the CPU profile split, each
// printed as <module>.cpu_frac. "core" and "other" (the standard library
// outside the runtime, the remaining internal packages and the benchmark
// itself) close the sum to 1.
var cpuModules = []string{
	"router", "ni", "link", "sim", "traffic", "replay", "wrapper", "aethereal", "routerless",
	"trace", "audit", "slots", "route", "analysis", "serve", "runtime", "core", "other",
}

func init() {
	for _, m := range cpuModules {
		perLayer = append(perLayer, metricDef{name: m + ".cpu_frac", unit: "ratio", better: "lower"})
	}
}
