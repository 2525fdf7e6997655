package main

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/hhir"
	"repro/internal/jit"
	"repro/internal/machine"
	"repro/internal/mcode"
	"repro/internal/vasm"
)

// replayResult is the backend replay of one engine's optimized code.
type replayResult struct {
	regions, bcInstrs        int
	hhirBuilt, hhirOptimized int
	vasmInstrs, fusedInstrs  int
	bytes                    uint64
	ms                       map[string]float64 // summed per step span name
}

// replay re-runs the backend on the region descriptor of every
// published optimized (ModeRegion) translation of eng, one public step
// at a time, timing each step. It follows the JIT's own pipeline (HHIR
// build, the passes hhir.Optimize runs in its order, lowering, layout,
// register allocation, fusion, assembly, dispatch preparation) with the
// engine's configuration.
//
// The replay is not byte-faithful: the JIT builds optimized regions
// with a private callback (BuildConfig.RegionOf) that supplies callee
// regions for partial inlining, and the benchmark cannot pass it
// without reaching into the jit package. Replayed regions therefore
// inline nothing, and mcode.replay_bytes stays below
// jit.bytes_optimized; the gap is the inlined code.
func replay(t *tracer, eng *core.Engine) (*replayResult, error) {
	j := eng.VM.JIT
	var trs []*jit.Translation
	j.ForEachTranslation(func(tr *jit.Translation) {
		if tr.Kind == jit.ModeRegion && tr.Desc != nil {
			trs = append(trs, tr)
		}
	})
	// The translation index is a map; replay in a fixed order.
	sort.SliceStable(trs, func(a, b int) bool {
		if trs[a].FuncID != trs[b].FuncID {
			return trs[a].FuncID < trs[b].FuncID
		}
		return trs[a].PC < trs[b].PC
	})

	cfg := j.Cfg
	bcfg := hhir.BuildConfig{
		EnableInlining:       cfg.EnableInlining,
		EnableMethodDispatch: cfg.EnableMethodDispatch,
		DisableInlineCache:   !cfg.EnableMethodDispatch,
		EnableShapes:         cfg.EnableShapes,
		Counters:             j.Counters,
	}
	res := &replayResult{ms: map[string]float64{}}
	root := t.begin("bench.replay", 0, 0)
	defer t.end(root)
	for i, tr := range trs {
		parent := t.begin("bench.replay_region", root, int64(i))
		step := func(name string, f func()) { res.ms[name] += t.do(name, parent, int64(i), f) }
		var hu *hhir.Unit
		var err error
		step("hhir.build", func() { hu, err = hhir.Build(eng.Unit, j.Env, tr.Desc, bcfg) })
		if err != nil {
			return nil, fmt.Errorf("replay build of func %d pc %d: %w", tr.FuncID, tr.PC, err)
		}
		res.hhirBuilt += hhirInstrs(hu)
		step("hhir.simplify", func() { hhir.Simplify(hu) })
		step("hhir.loadelim", func() { hhir.LoadElim(hu) })
		step("hhir.gvn", func() { hhir.GVN(hu) })
		step("hhir.shapeguardelim", func() { hhir.ShapeGuardElim(hu) })
		step("hhir.simplify", func() { hhir.Simplify(hu) })
		if cfg.EnableRCE {
			step("hhir.rce", func() { hhir.RCE(hu) })
		}
		step("hhir.dce", func() { hhir.DCE(hu) })
		step("hhir.prune", func() { hhir.PruneUnreachable(hu) })
		res.hhirOptimized += hhirInstrs(hu)

		var vu *vasm.Unit
		step("vasm.lower", func() { vu, err = vasm.Lower(hu) })
		if err != nil {
			return nil, fmt.Errorf("replay lower of func %d pc %d: %w", tr.FuncID, tr.PC, err)
		}
		step("vasm.layout", func() { vasm.Layout(vu, vasm.LayoutConfig{ProfileGuided: cfg.PGOLayout, SplitCold: true}) })
		step("vasm.regalloc", func() { vasm.Allocate(vu) })
		for _, blk := range vu.Blocks {
			res.vasmInstrs += len(blk.Instrs)
		}
		if cfg.FuseDispatch {
			step("vasm.fuse", func() { res.fusedInstrs += vasm.Fuse(vu) })
		}
		var code *mcode.Code
		step("mcode.assemble", func() { code, err = mcode.Assemble(vu) })
		if err != nil {
			return nil, fmt.Errorf("replay assemble of func %d pc %d: %w", tr.FuncID, tr.PC, err)
		}
		res.bytes += code.Size
		code.Place(tr.Code.Base)
		step("machine.prepare_dispatch", func() { machine.PrepareDispatch(code) })
		t.end(parent)

		res.regions++
		for _, blk := range tr.Desc.Blocks {
			res.bcInstrs += blk.NumInstrs
		}
	}
	return res, nil
}

func hhirInstrs(u *hhir.Unit) int {
	n := 0
	for _, b := range u.Blocks {
		n += len(b.Instrs)
	}
	return n
}
