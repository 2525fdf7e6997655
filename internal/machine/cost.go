// Package machine executes assembled Vasm translations against a
// deterministic cost model. It substitutes for native x86-64
// execution (see DESIGN.md): every compiler stage up to register
// allocation and code placement is real; the machine charges cycles
// per instruction, models an instruction cache and an instruction TLB
// with 4 KiB and 2 MiB pages, and calls runtime helpers natively the
// way HHVM's JITed code calls its C++ helpers.
package machine

import "repro/internal/vasm"

// Meter accumulates simulated cycles; it is shared with the
// interpreter so execution-mode comparisons are apples to apples.
// Each worker owns one and charges it on every instruction, so the
// padding keeps meters of concurrent workers off shared cache lines.
type Meter struct {
	Cycles uint64
	_      [120]byte
}

// Charge adds cycles.
func (m *Meter) Charge(n uint64) { m.Cycles += n }

// Instruction base costs (cycles).
func opCost(op vasm.Op) uint64 {
	switch op {
	case vasm.Nop:
		return 0
	case vasm.LdImm, vasm.Copy:
		return 1
	case vasm.LdLoc, vasm.LdStk, vasm.Reload:
		return 3 // L1 load
	case vasm.StLoc, vasm.Spill:
		return 2
	case vasm.GuardKind, vasm.GuardCls, vasm.GuardShape:
		return 2 // cmp+branch, predicted
	case vasm.AddI, vasm.SubI, vasm.NegI, vasm.CmpI:
		return 1
	case vasm.MulI:
		return 3
	case vasm.AddD, vasm.SubD, vasm.NegD, vasm.CmpD:
		return 3
	case vasm.MulD:
		return 4
	case vasm.DivD:
		return 12
	case vasm.ToBool, vasm.ToInt, vasm.ToDbl:
		return 2
	case vasm.IncRef, vasm.DecRef:
		return 3 // check + locked-ish add
	case vasm.ArrCount:
		return 3
	case vasm.ArrGetPkI:
		return 6 // bounds check + load
	case vasm.LdProp, vasm.StProp:
		return 4
	case vasm.LdThis:
		return 2
	case vasm.Helper:
		return 5 // call overhead; helper body charged separately
	case vasm.CallFunc, vasm.CallMethodD:
		return 26 // ActRec setup + frame push + call
	case vasm.CallBuiltin:
		return 14
	case vasm.CallMethodC:
		return 28
	case vasm.CountInc, vasm.ProfCallSite, vasm.ProfPropShape:
		return 12 // shared-counter increment
	case vasm.LdPropIC, vasm.StPropIC:
		return 6 // shape load + cache probe + slot access (hit cost)
	case vasm.Jmp:
		return 1
	case vasm.Jcc:
		return 1
	case vasm.JmpTable:
		return 4 // bounds check + table load + indirect branch
	case vasm.Ret:
		return 10 // epilogue + frame release entry
	case vasm.Exit, vasm.BindJmp:
		return 8
	default:
		return 1
	}
}

// instrCost is opCost extended to superinstructions, whose static
// cost is by definition the sum of their components' — fusion saves
// host dispatch work, never guest cycles.
func instrCost(in *vasm.Instr) uint64 {
	switch in.Op {
	case vasm.LdLocGK:
		return opCost(vasm.LdLoc) + opCost(vasm.GuardKind)
	case vasm.LdImmAddI:
		return opCost(vasm.LdImm) + opCost(vasm.AddI)
	case vasm.LdImmCmpI:
		return opCost(vasm.LdImm) + opCost(vasm.CmpI)
	case vasm.CmpIJcc:
		return opCost(vasm.CmpI) + opCost(vasm.Jcc)
	case vasm.CmpDJcc:
		return opCost(vasm.CmpD) + opCost(vasm.Jcc)
	case vasm.IncRefN:
		return uint64(len(in.Args)) * opCost(vasm.IncRef)
	case vasm.DecRefN:
		return uint64(len(in.Args)) * opCost(vasm.DecRef)
	default:
		return opCost(in.Op)
	}
}

// Extra penalty charged when a guard actually fails (pipeline flush +
// exit stub).
const guardFailPenalty = 14

// Helper body costs, matching the work the interpreter charges for
// the same operations (minus its dispatch overhead). A dense array —
// Helper ops run hundreds of times per request, so the lookup sits on
// the dispatch hot path where a map probe would cost more than the
// helper accounting itself.
var helperCost = [vasm.HelperCount]uint64{
	vasm.HConcat: 24, vasm.HBinop: 14, vasm.HEqAny: 8, vasm.HSameAny: 8,
	vasm.HDivNum: 10, vasm.HModInt: 8, vasm.HToStr: 18, vasm.HCmpStr: 8,
	vasm.HNewArr: 18, vasm.HNewPacked: 18, vasm.HAddElem: 12,
	vasm.HAddNewElem: 10, vasm.HArrGetGeneric: 10, vasm.HArrGetPackedMiss: 12,
	vasm.HArrSetLocal: 14, vasm.HArrAppendLocal: 10, vasm.HArrUnsetLocal: 12,
	vasm.HAKExistsLocal: 8, vasm.HIterInit: 12, vasm.HIterNext: 5,
	vasm.HIterKey: 4, vasm.HIterValue: 4, vasm.HIterFree: 3,
	vasm.HNewObj: 22, vasm.HLdPropGeneric: 10, vasm.HStPropGeneric: 10,
	vasm.HInstanceOf: 2, vasm.HVerifyParam: 5, vasm.HPrint: 14,
	vasm.HThrow: 30, vasm.HConvToBoolGeneric: 4, vasm.HConvToIntGeneric: 4,
	vasm.HConvToDblGeneric: 4,
}

// Method-dispatch costs: inline-cache hit vs full method lookup.
// instanceOfWalkCost is the extra cost of a by-name hierarchy walk
// when the bitwise instanceof fast path is unavailable.
const instanceOfWalkCost = 9

const (
	methodCacheHitCost = 4
	methodLookupCost   = 16
	callReturnCost     = 8
)

// Direct-chaining costs: a smashed bind jump is a single direct
// branch into the successor (vs the service-request round-trip
// charged as bindDispatchCost by the VM), plus a per-precondition
// recheck charge for the target's entry guards.
const (
	smashedJumpCost = 2
	chainGuardCost  = 1
)

// Shape-IC dynamic costs, charged on top of the static hit cost: a
// miss walks the shape's slot table and rewrites the cache line; a
// megamorphic probe falls through to the generic helper (call
// overhead + helper body, matching Helper + HLdPropGeneric).
const (
	icMissCost = 12
	icMegaCost = 15
)
