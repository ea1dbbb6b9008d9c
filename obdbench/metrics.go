package main

import "strings"

// metricDef names one reported metric. The lists below are the ones
// BENCHMARK.json declares (a test keeps the two in step); bounds live only
// in BENCHMARK.json.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the untraced run's metrics, reported for every workload.
// latency_tail_ms is each workload's own tail percentile (workload.tail).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics, reported for every workload.
// Stages that every workload runs are in ms per op. Stages that only some
// workloads run are a percentage of the op's time (0 where a workload
// never enters the stage), allocation counts are per op, and work
// counters are per op and repeat exactly for a given seed.
var perLayer = []metricDef{
	{"trace.op_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"logic.parse_ms", "ms", "lower"},
	{"logic.validate_ms", "ms", "lower"},
	{"fault.universe_ms", "ms", "lower"},
	{"logic.fingerprint_pct", "%", "lower"},
	{"logic.digest_pct", "%", "lower"},
	{"logic.scoap_pct", "%", "lower"},
	{"netcheck.collapse_pct", "%", "lower"},
	{"netcheck.exact_pct", "%", "lower"},
	{"atpg.pairgrader_pct", "%", "lower"},
	{"atpg.grade_pct", "%", "lower"},
	{"atpg.generate_pct", "%", "lower"},
	{"atpg.final_grade_pct", "%", "lower"},
	{"seq.from_circuit_pct", "%", "lower"},
	{"seq.generate_pct", "%", "lower"},
	{"serve.decode_pct", "%", "lower"},
	{"serve.other_pct", "%", "lower"},
	{"serve.cache_hit_pct", "%", "higher"},
	{"logic.parse_allocs", "count", "lower"},
	{"fault.universe_allocs", "count", "lower"},
	{"netcheck.collapse_allocs", "count", "lower"},
	{"netcheck.exact_allocs", "count", "lower"},
	{"atpg.pairgrader_allocs", "count", "lower"},
	{"atpg.grade_allocs", "count", "lower"},
	{"atpg.generate_allocs", "count", "lower"},
	{"seq.generate_allocs", "count", "lower"},
	{"fault.faults", "count", "higher"},
	{"netcheck.collapse_classes", "count", "lower"},
	{"atpg.pair_sims", "count", "lower"},
	{"atpg.podem_backtracks", "count", "lower"},
	{"atpg.tests", "count", "lower"},
	{"sat.unsat_frames", "count", "lower"},
	{"sat.pin_conflicts", "count", "higher"},
	{"sat.proof_lemmas", "count", "lower"},
}

// layerMetrics derives every per-layer metric from a traced run.
// overheadPct compares the run's traced ops with its untraced ones.
func layerMetrics(sum summary, tr *tracer, classOf func(int) string, overheadPct float64) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	op := sum.opMs()
	for _, m := range perLayer {
		var v float64
		switch name := m.Name; {
		case name == "trace.op_ms":
			v = op
		case name == "trace.overhead_pct":
			v = overheadPct
		case name == "serve.other_pct":
			v = serveOtherPct(sum)
		case name == "serve.cache_hit_pct":
			v = tr.values[name]
		case strings.HasSuffix(name, "_ms"):
			v = sum.perOpMs(strings.TrimSuffix(name, "_ms"))
		case strings.HasSuffix(name, "_pct"):
			if op > 0 {
				v = 100 * sum.perOpMs(strings.TrimSuffix(name, "_pct")) / op
			}
		case strings.HasSuffix(name, "_allocs"):
			v = sum.perOpAllocs(strings.TrimSuffix(name, "_allocs"))
		default:
			v = tr.perOpCount(name, sum.ops, classOf)
		}
		out[m.Name] = v
	}
	return out
}

// serveOtherPct is the share of a /v1 request that the replayed
// request-path stages (the probes of serve-mix) do not explain: HTTP, the
// mux, the LRU, pair parsing and, on misses, the compute itself.
func serveOtherPct(sum summary) float64 {
	req := sum.stages["serve.request"]
	if req == nil || len(sum.ops) == 0 {
		return 0
	}
	rest := float64(req.loopNs) / float64(len(sum.ops)) / 1e6
	for key := range sum.stages {
		if sum.stages[key].probeNs > 0 {
			rest -= sum.perOpMs(key)
		}
	}
	return 100 * rest / sum.opMs()
}
