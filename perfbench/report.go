package main

import (
	"fmt"
	goruntime "runtime"
	"time"

	"repro/internal/core"
	"repro/internal/jit"
	"repro/internal/runtime"
)

// window is what a workload served and the counters around it.
type window struct {
	// acct is the accounting window: a fixed set of requests per seed,
	// over which guest cycles and the count metrics are taken.
	acct *tally
	// all is every timed request; latency and rps come from it.
	all  *tally
	wall time.Duration // wall time serving all

	st0, st1  jit.Stats    // JIT counters around acct
	heap      runtime.Heap // guest heap counter deltas over acct
	codeBytes uint64       // JITed bytes at the end of acct

	ms0, ms1    *goruntime.MemStats // Go runtime around the serving window
	allocPerReq float64

	engine      *core.Engine // replayed by the traced run
	interpReqs  []req        // replayed on the interpreter by the traced run
	overheadPct float64      // traced units' time over untraced units'
}

// minSamples is the least number of timed requests a run reports
// latency from; the summary line's tail percentile then has at least
// ten samples beyond it.
const minSamples = 1000

// endToEndMetrics fills the metrics of an untraced run.
func endToEndMetrics(b *bench, w *window, rep report) error {
	if len(w.all.lat) < minSamples {
		return fmt.Errorf("only %d timed requests; need %d", len(w.all.lat), minSamples)
	}
	rep["setup_s"] = median(b.setups)
	rep["warmup_s"] = median(b.warmups)
	rep["restart_s"] = median(b.restarts)
	rep["req_p50_us"] = median(w.all.lat)
	// The tail is the 90th percentile, not the 99th: on a shared
	// virtual machine the hypervisor takes the CPU away in slices of
	// milliseconds, which hit 1-2% of requests, so the 99th percentile
	// follows the host's steal time. On a 2-vCPU VM it moved 30-40%
	// between runs as steal went from 0.4% to 17% of CPU, while the
	// 90th moved 5-11%.
	rep["req_p90_us"] = quantile(w.all.lat, 0.9)
	rep["rps"] = float64(w.all.n) / w.wall.Seconds()
	rep["guest_cycles_per_req"] = float64(w.acct.cycles) / float64(w.acct.n)
	rep["code_bytes"] = float64(w.codeBytes)
	rep["alloc_bytes_per_req"] = w.allocPerReq
	rep["peak_heap_mb"] = float64(b.peakHeap) / (1 << 20)
	return nil
}

// layerMetrics fills the metrics of a traced run. It replays the
// backend and the interpreter after the serving window, so neither
// disturbs it.
func layerMetrics(b *bench, w *window, rep report) error {
	col := func(get func(f frontendTimes) float64) float64 {
		xs := make([]float64, len(b.fronts))
		for i, f := range b.fronts {
			xs[i] = get(f)
		}
		return median(xs)
	}
	rep["lexer.tokenize_ms"] = col(func(f frontendTimes) float64 { return f.tokenize })
	rep["lexer.tokens"] = col(func(f frontendTimes) float64 { return float64(f.tokens) })
	// parser.Parse tokenizes internally; the separate Tokenize call of
	// the same compile measures that share.
	rep["parser.parse_self_ms"] = col(func(f frontendTimes) float64 { return f.parse - f.tokenize })
	rep["hphpc.optimize_ms"] = col(func(f frontendTimes) float64 { return f.hphpc })
	rep["emitter.emit_ms"] = col(func(f frontendTimes) float64 { return f.emit })
	rep["emitter.bytecode_instrs"] = col(func(f frontendTimes) float64 { return float64(f.bcInstrs) })
	rep["hhbbc.optimize_ms"] = col(func(f frontendTimes) float64 { return f.hhbbc })
	rep["vm.new_engine_ms"] = median(b.newEngine)

	rp, err := replay(b.tr, w.engine)
	if err != nil {
		return err
	}
	for _, step := range []string{"hhir.build", "hhir.simplify", "hhir.loadelim", "hhir.gvn",
		"hhir.shapeguardelim", "hhir.rce", "hhir.dce", "hhir.prune", "vasm.lower", "vasm.layout",
		"vasm.regalloc", "vasm.fuse", "mcode.assemble", "machine.prepare_dispatch"} {
		rep[step+"_ms"] = rp.ms[step]
	}
	rep["hhir.instrs_built"] = float64(rp.hhirBuilt)
	rep["hhir.instrs_optimized"] = float64(rp.hhirOptimized)
	rep["vasm.instrs"] = float64(rp.vasmInstrs)
	rep["vasm.fused_instrs"] = float64(rp.fusedInstrs)
	rep["mcode.replay_bytes"] = float64(rp.bytes)
	rep["region.regions"] = float64(rp.regions)
	rep["region.bc_instrs"] = float64(rp.bcInstrs)

	st0, st1 := w.st0, w.st1
	rep["jit.trigger_request_ms"] = median(b.trigger)
	rep["jit.profile_requests"] = float64(b.profileReqs)
	rep["jit.optimized_translations"] = float64(st1.OptimizedTranslations)
	rep["jit.profiling_translations"] = float64(st1.ProfilingTranslations)
	rep["jit.live_translations"] = float64(st1.LiveTranslations)
	rep["jit.bytes_optimized"] = float64(st1.BytesOptimized)
	rep["jit.bytes_live"] = float64(st1.BytesLive)

	rep["jumpstart.snapshot_ms"] = median(b.jsSnap)
	rep["jumpstart.encode_ms"] = median(b.jsEnc)
	rep["jumpstart.decode_ms"] = median(b.jsDec)
	rep["jumpstart.bytes"] = float64(b.jsBytes)
	rep["jumpstart.load_ms"] = median(b.jsLoad)
	rep["jumpstart.stale_funcs"] = float64(b.staleFuncs)

	n := float64(w.acct.n)
	perReq := func(a, b uint64) float64 { return float64(b-a) / n }
	rep["vm.ns_per_kcycle"] = float64(w.acct.hostNS) / (float64(w.acct.cycles) / 1000)
	rep["interp.ns_per_kcycle"], err = interpCost(b, w.interpReqs)
	if err != nil {
		return err
	}
	rep["jit.lookups_per_req"] = perReq(st0.Lookups, st1.Lookups)
	rep["jit.side_exits_per_req"] = perReq(st0.SideExits, st1.SideExits)
	rep["jit.guard_fails_per_req"] = perReq(st0.GuardFails, st1.GuardFails)
	rep["jit.interp_runs_per_req"] = perReq(st0.InterpRuns, st1.InterpRuns)
	rep["jit.machine_enters_per_req"] = perReq(st0.MachineEnters, st1.MachineEnters)
	rep["jit.bind_requests_per_req"] = perReq(st0.BindRequests, st1.BindRequests)
	// Raw per tier, never as shares: a nested machine entry counts in
	// its own tier and in the tier of the translation around it.
	rep["jit.interp_cycles_per_req"] = perReq(st0.InterpCycles, st1.InterpCycles)
	rep["jit.live_cycles_per_req"] = perReq(st0.MachineCyclesLive, st1.MachineCyclesLive)
	rep["jit.optimized_cycles_per_req"] = perReq(st0.MachineCyclesOptimized, st1.MachineCyclesOptimized)
	rep["machine.chained_jumps_per_req"] = perReq(st0.ChainedJumps, st1.ChainedJumps)
	rep["machine.chained_calls_per_req"] = perReq(st0.ChainedCalls, st1.ChainedCalls)

	hits := float64(st1.PropICHits - st0.PropICHits)
	misses := float64(st1.PropICMisses - st0.PropICMisses)
	guards := float64(st1.ShapeGuards - st0.ShapeGuards)
	rep["shapes.propic_hits"] = hits
	rep["shapes.propic_misses"] = misses
	rep["shapes.propic_hit_ratio"] = ratio(hits, hits+misses)
	rep["shapes.generic_prop_calls_per_req"] = perReq(st0.GenericPropCalls, st1.GenericPropCalls)
	rep["shapes.guards"] = guards
	rep["shapes.guard_fail_ratio"] = ratio(float64(st1.ShapeGuardFails-st0.ShapeGuardFails), guards)
	rep["runtime.increfs_per_req"] = float64(w.heap.IncRefs) / n
	rep["runtime.decrefs_per_req"] = float64(w.heap.DecRefs) / n
	rep["runtime.cow_copies_per_req"] = float64(w.heap.CowCopies) / n
	rep["runtime.destructs_per_req"] = float64(w.heap.Destructs) / n

	all := float64(w.all.n)
	rep["gc.mallocs_per_req"] = float64(w.ms1.Mallocs-w.ms0.Mallocs) / all
	rep["gc.cycles_per_kreq"] = float64(w.ms1.NumGC-w.ms0.NumGC) * 1000 / all
	rep["gc.pause_total_ms"] = float64(w.ms1.PauseTotalNs-w.ms0.PauseTotalNs) / 1e6
	rep["gc.cpu_fraction"] = w.ms1.GCCPUFraction

	rep["jit.live_minted"] = float64(st1.LiveTranslations - st0.LiveTranslations)
	rep["jit.mint_req_p50_us"] = median(w.all.mintLat)
	rep["jit.nomint_req_p50_us"] = median(w.all.nomintLat)
	rep["jit.cache_full_events"] = float64(st1.CacheFullEvents)
	rep["jit.degrade_level"] = float64(st1.DegradeLevel)

	rep["workload.requests"] = n
	rep["workload.longtail_req_share"] = float64(w.acct.longTail) / n
	rep["workload.side_exit_req_share"] = ratio(float64(w.acct.sideExitReqs), float64(w.acct.watched))
	rep["error_rate"] = ratio(float64(b.failed), float64(b.attempted))
	rep["trace.spans"] = float64(len(b.tr.spans))
	rep["trace.overhead_pct"] = w.overheadPct
	return nil
}

// interpCost replays requests on the interpreter-only oracle engine
// and returns its host nanoseconds per 1000 guest cycles.
func interpCost(b *bench, rs []req) (float64, error) {
	var ns int64
	var cycles uint64
	root := b.tr.begin("bench.interp_replay", 0, 0)
	defer b.tr.end(root)
	for i, r := range rs {
		var cyc uint64
		var err error
		ms := b.tr.do("interp.request", root, int64(i), func() { cyc, _, err = serve(b.orc.eng, b.orc.eng.VM, r) })
		if err != nil {
			return 0, fmt.Errorf("interpreter replay of %s: %w", r.key(), err)
		}
		ns += int64(ms * 1e6)
		cycles += cyc
	}
	return float64(ns) / (float64(cycles) / 1000), nil
}
