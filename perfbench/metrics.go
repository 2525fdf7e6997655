package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metric is one number the benchmark prints; BENCHMARK.json at the
// repository root declares the same names and units.
type metric struct{ name, unit string }

// endToEnd are the metrics of an untraced run (-trace 0).
var endToEnd = []metric{
	{"setup_s", "s"},
	{"warmup_s", "s"},
	{"restart_s", "s"},
	{"req_p50_us", "us"},
	{"req_p90_us", "us"},
	{"rps", "1/s"},
	{"guest_cycles_per_req", "cycles"},
	{"code_bytes", "bytes"},
	{"alloc_bytes_per_req", "bytes"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the metrics of a traced run (-trace 1), named
// <module>.<metric> after the repository's internal packages.
var perLayer = []metric{
	// Frontend, median over the run's traced compiles.
	{"lexer.tokenize_ms", "ms"},
	{"lexer.tokens", "count"},
	{"parser.parse_self_ms", "ms"},
	{"hphpc.optimize_ms", "ms"},
	{"emitter.emit_ms", "ms"},
	{"emitter.bytecode_instrs", "count"},
	{"hhbbc.optimize_ms", "ms"},
	{"vm.new_engine_ms", "ms"},
	// Backend replay of one engine's published region translations.
	{"hhir.build_ms", "ms"},
	{"hhir.instrs_built", "count"},
	{"hhir.simplify_ms", "ms"},
	{"hhir.loadelim_ms", "ms"},
	{"hhir.gvn_ms", "ms"},
	{"hhir.shapeguardelim_ms", "ms"},
	{"hhir.rce_ms", "ms"},
	{"hhir.dce_ms", "ms"},
	{"hhir.prune_ms", "ms"},
	{"hhir.instrs_optimized", "count"},
	{"vasm.lower_ms", "ms"},
	{"vasm.layout_ms", "ms"},
	{"vasm.regalloc_ms", "ms"},
	{"vasm.fuse_ms", "ms"},
	{"vasm.instrs", "count"},
	{"vasm.fused_instrs", "count"},
	{"mcode.assemble_ms", "ms"},
	{"mcode.replay_bytes", "bytes"},
	{"machine.prepare_dispatch_ms", "ms"},
	{"region.regions", "count"},
	{"region.bc_instrs", "count"},
	// JIT lifecycle.
	{"jit.trigger_request_ms", "ms"},
	{"jit.profile_requests", "count"},
	{"jit.optimized_translations", "count"},
	{"jit.profiling_translations", "count"},
	{"jit.live_translations", "count"},
	{"jit.bytes_optimized", "bytes"},
	{"jit.bytes_live", "bytes"},
	// Jumpstart.
	{"jumpstart.snapshot_ms", "ms"},
	{"jumpstart.encode_ms", "ms"},
	{"jumpstart.decode_ms", "ms"},
	{"jumpstart.bytes", "bytes"},
	{"jumpstart.load_ms", "ms"},
	{"jumpstart.stale_funcs", "count"},
	// Execution tiers.
	{"vm.ns_per_kcycle", "ns"},
	{"interp.ns_per_kcycle", "ns"},
	{"jit.lookups_per_req", "1/req"},
	{"jit.side_exits_per_req", "1/req"},
	{"jit.guard_fails_per_req", "1/req"},
	{"jit.interp_runs_per_req", "1/req"},
	{"jit.machine_enters_per_req", "1/req"},
	{"jit.bind_requests_per_req", "1/req"},
	{"jit.interp_cycles_per_req", "cycles"},
	{"jit.live_cycles_per_req", "cycles"},
	{"jit.optimized_cycles_per_req", "cycles"},
	{"machine.chained_jumps_per_req", "1/req"},
	{"machine.chained_calls_per_req", "1/req"},
	// Shapes and the guest runtime.
	{"shapes.propic_hit_ratio", "ratio"},
	{"shapes.propic_hits", "count"},
	{"shapes.propic_misses", "count"},
	{"shapes.generic_prop_calls_per_req", "1/req"},
	{"shapes.guard_fail_ratio", "ratio"},
	{"shapes.guards", "count"},
	{"runtime.increfs_per_req", "1/req"},
	{"runtime.decrefs_per_req", "1/req"},
	{"runtime.cow_copies_per_req", "1/req"},
	{"runtime.destructs_per_req", "1/req"},
	// Go runtime.
	{"gc.mallocs_per_req", "1/req"},
	{"gc.cycles_per_kreq", "1/kreq"},
	{"gc.pause_total_ms", "ms"},
	{"gc.cpu_fraction", "ratio"},
	// Minting while serving.
	{"jit.live_minted", "count"},
	{"jit.mint_req_p50_us", "us"},
	{"jit.nomint_req_p50_us", "us"},
	{"jit.cache_full_events", "count"},
	{"jit.degrade_level", "level"},
	// Workload property shares and their base.
	{"workload.requests", "count"},
	{"workload.longtail_req_share", "ratio"},
	{"workload.side_exit_req_share", "ratio"},
	// Correctness and the tracing itself.
	{"error_rate", "ratio"},
	{"trace.spans", "count"},
	{"trace.overhead_pct", "%"},
}

// countMetrics are the per-layer metrics that count work rather than
// time it: for a fixed seed they must repeat exactly (see
// determinism_test.go), apart from those listed in notRepeatable.
var countMetrics = func() map[string]bool {
	m := map[string]bool{"guest_cycles_per_req": true, "code_bytes": true}
	for _, x := range perLayer {
		switch x.unit {
		case "count", "bytes", "1/req", "cycles", "level":
			m[x.name] = true
		}
	}
	m["shapes.propic_hit_ratio"] = true
	m["shapes.guard_fail_ratio"] = true
	m["workload.longtail_req_share"] = true
	m["workload.side_exit_req_share"] = true
	m["error_rate"] = true
	// Counted by the Go runtime, not by the engine.
	delete(m, "gc.mallocs_per_req")
	delete(m, "trace.spans")
	return m
}()

// report collects a run's metric values by name.
type report map[string]float64

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// encode renders the result line with the metrics of the given set; a
// metric the run did not produce is a benchmark bug.
func (r report) encode(set []metric, correct bool, attempted, failed int) ([]byte, error) {
	res := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range set {
		v, ok := r[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s not measured", m.name)
		}
		res.Metrics[m.name] = metricValue{v, m.unit}
	}
	return json.Marshal(res)
}

// median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile by linear interpolation between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQuantile is the highest of the usual tail percentiles that
// leaves at least ten samples beyond it.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9, 0.5} {
		if float64(n)*(1-q) >= 10 {
			return q
		}
	}
	return 0.5
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
