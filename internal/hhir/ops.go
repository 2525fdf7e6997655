package hhir

// Opcode enumerates HHIR instructions.
type Opcode int

const (
	Nop Opcode = iota

	// Constants. I64 / Str hold the payload; Dst typed accordingly.
	DefConstInt
	DefConstDbl // I64 holds math.Float64bits
	DefConstBool
	DefConstNull
	DefConstStr // Str holds the (static) string

	// Guards: side-exit via Exit when the check fails.
	GuardLoc // I64 = local slot; TypeParam = required type
	GuardStk // I64 = entry stack depth; Args[0] = the slot's value
	// CheckType refines Args[0]; on kind mismatch branches to Taken
	// (next retranslation in the chain) passing TakenArgs.
	CheckType
	// CheckCls: Args[0] obj; I64 = class id; Exit on mismatch.
	CheckCls
	// AssertType: Dst = Args[0] with refined type (no code).
	AssertType

	// Frame memory.
	LdLoc  // I64 = slot
	StLoc  // I64 = slot; Args[0] = value
	LdThis // Dst = $this

	// Reference counting (explicit, so RCE can optimize).
	IncRef // Args[0]
	DecRef // Args[0]

	// Integer / double arithmetic (specialized fast paths).
	AddInt
	SubInt
	MulInt
	AddDbl
	SubDbl
	MulDbl
	DivDbl
	ModInt // Exit: modulo by zero throws
	NegInt
	NegDbl
	// DivNum: Int/Int division, result Int or Dbl; helper. Exit: /0.
	DivNum

	// Comparisons: I64 = CmpCond; Dst Bool.
	CmpInt
	CmpDbl
	CmpStr  // out-of-line string compare
	EqAny   // generic loose ==  (I64: 1 = negate)
	SameAny // generic ===        (I64: 1 = negate)

	// Conversions.
	ConvToBool // specialized on arg type
	ConvToInt
	ConvToDbl
	ConvToStr // allocates unless already Str

	// Generic binary op fallback: I64 = hhbc.Op; helper; may throw.
	BinopGeneric

	// Strings.
	ConcatStr // helper; Dst Str

	// Arrays.
	CountArray     // Args[0] packed/mixed array -> Int (inline load)
	ArrGetPackedI  // Args: arr, intIdx; miss -> Null + notice (helper on slow path)
	ArrGetGeneric  // helper; Str = local name for ArrGetL ("" otherwise)
	ArrSetLocal    // I64 = local slot; Args: key, val; COW helper
	ArrAppendLocal // I64 = local slot; Args: val
	ArrUnsetLocal  // I64 = local slot; Args: key
	AKExistsLocal  // I64 = local slot; Args: key -> Bool
	NewArr         // Dst mixed array
	NewPackedArr   // Args = elems
	AddElem        // Args: arr, key, val -> Dst arr
	AddNewElem     // Args: arr, val -> Dst arr

	// Iterators (helpers). I64 = iter id; iterator ops are control
	// flow: Taken = loop entry/exit per builder wiring.
	IterInitLocal // I64 = iter id, Str unused, Args none; second imm via I64b? see builder: I64 packs iter<<32|slot
	IterNextK     // I64 = iter id; Taken = loop body
	IterKey
	IterValue
	IterFree

	// Objects.
	NewObj        // Str = class name; helper
	LdPropSlot    // I64 = slot; Args[0] = obj (class-checked)
	StPropSlot    // I64 = slot; Args: obj, val
	LdPropGeneric // Str = prop name; helper
	StPropGeneric // Str = prop name; Args: obj, val; helper
	InstanceOf    // Str = class; Args[0]; Dst Bool

	// Typed object shapes (DESIGN.md §14).
	GuardShape    // Args[0] = obj; I64 = shape id; Exit on mismatch
	LdPropIC      // Str = prop name; Args[0] = obj; shape-guarded inline cache
	StPropIC      // Str = prop name; Args: obj, val; shape-guarded inline cache
	ProfPropShape // I64 = bc pc; Args[0] = obj: record receiver shape (profiling mode)

	// Calls. Str = name; I64 = callee func id (-1 unknown).
	CallFunc     // direct guest call; Args = args
	CallBuiltin  // Str = name; I64 = the call site's hhbc op (FCallD or FCallBuiltin)
	CallMethodD  // devirtualized: I64 = func id; Args[0] = obj, rest args
	CallMethodC  // common-base/interface dispatch: Str = method, I64 = cache id; Args[0] = obj
	VerifyParam  // I64 = packed (func id, param index, slot); may throw
	ProfCount    // I64 = profile counter id
	ProfCallSite // I64 = bc pc; Args[0] = obj: record receiver class (profiling mode)

	// Output.
	PrintC // Args[0]

	// Control flow.
	Jmp       // Next (+NextArgs)
	Branch    // Args[0] Bool; Taken/Next (+args)
	SwitchInt // Args[0] Int; I64 = table base; Table = targets, Taken = default
	Ret       // Args[0]; frame teardown in epilogue
	ThrowC    // Args[0] obj; unwinds
	SideExit  // unconditional exit to interpreter at Exit.BCOff
	ReqBind   // region exit: continue at bytecode pc I64 (bind/translate)
	EndInline // marker: inlined callee finished; Args[0] = return value

	opcodeCount
)

var opNames2 = map[Opcode]string{
	Nop: "Nop", DefConstInt: "DefConstInt", DefConstDbl: "DefConstDbl",
	DefConstBool: "DefConstBool", DefConstNull: "DefConstNull", DefConstStr: "DefConstStr",
	GuardLoc: "GuardLoc", GuardStk: "GuardStk", CheckType: "CheckType",
	CheckCls: "CheckCls", AssertType: "AssertType",
	LdLoc: "LdLoc", StLoc: "StLoc", LdThis: "LdThis",
	IncRef: "IncRef", DecRef: "DecRef",
	AddInt: "AddInt", SubInt: "SubInt", MulInt: "MulInt",
	AddDbl: "AddDbl", SubDbl: "SubDbl", MulDbl: "MulDbl", DivDbl: "DivDbl",
	ModInt: "ModInt", NegInt: "NegInt", NegDbl: "NegDbl", DivNum: "DivNum",
	CmpInt: "CmpInt", CmpDbl: "CmpDbl", CmpStr: "CmpStr", EqAny: "EqAny", SameAny: "SameAny",
	ConvToBool: "ConvToBool", ConvToInt: "ConvToInt", ConvToDbl: "ConvToDbl", ConvToStr: "ConvToStr",
	BinopGeneric: "BinopGeneric", ConcatStr: "ConcatStr",
	CountArray: "CountArray", ArrGetPackedI: "ArrGetPackedI", ArrGetGeneric: "ArrGetGeneric",
	ArrSetLocal: "ArrSetLocal", ArrAppendLocal: "ArrAppendLocal",
	ArrUnsetLocal: "ArrUnsetLocal", AKExistsLocal: "AKExistsLocal",
	NewArr: "NewArr", NewPackedArr: "NewPackedArr", AddElem: "AddElem", AddNewElem: "AddNewElem",
	IterInitLocal: "IterInitLocal", IterNextK: "IterNextK", IterKey: "IterKey",
	IterValue: "IterValue", IterFree: "IterFree",
	NewObj: "NewObj", LdPropSlot: "LdPropSlot", StPropSlot: "StPropSlot",
	LdPropGeneric: "LdPropGeneric", StPropGeneric: "StPropGeneric", InstanceOf: "InstanceOf",
	GuardShape: "GuardShape", LdPropIC: "LdPropIC", StPropIC: "StPropIC",
	ProfPropShape: "ProfPropShape",
	CallFunc: "CallFunc", CallBuiltin: "CallBuiltin", CallMethodD: "CallMethodD",
	CallMethodC: "CallMethodC", VerifyParam: "VerifyParam",
	ProfCount: "ProfCount", ProfCallSite: "ProfCallSite",
	PrintC: "PrintC",
	Jmp:    "Jmp", Branch: "Branch", SwitchInt: "SwitchInt", Ret: "Ret", ThrowC: "ThrowC",
	SideExit: "SideExit", ReqBind: "ReqBind", EndInline: "EndInline",
}

func (o Opcode) String() string {
	if s, ok := opNames2[o]; ok {
		return s
	}
	return "Opcode?"
}

// CmpCond values for CmpInt/CmpDbl/CmpStr's I64.
const (
	CondLT = iota
	CondLE
	CondGT
	CondGE
	CondEQ
	CondNE
)

// opUsesI64 reports whether the I64 immediate is meaningful even when
// zero (printing aid).
func opUsesI64(o Opcode) bool {
	switch o {
	case GuardLoc, GuardStk, LdLoc, StLoc, CmpInt, CmpDbl, CmpStr,
		ArrSetLocal, ArrAppendLocal, ArrUnsetLocal, AKExistsLocal,
		LdPropSlot, StPropSlot, CallMethodD, VerifyParam, ProfCount,
		IterInitLocal, IterNextK, IterKey, IterValue, IterFree, ReqBind,
		CheckCls, GuardShape, ProfPropShape:
		return true
	}
	return false
}

// IsPure reports whether the instruction has no side effects and can
// be eliminated when its result is unused, or value-numbered.
func (o Opcode) IsPure() bool {
	switch o {
	case DefConstInt, DefConstDbl, DefConstBool, DefConstNull, DefConstStr,
		AssertType, AddInt, SubInt, MulInt, AddDbl, SubDbl, MulDbl, DivDbl,
		NegInt, NegDbl, CmpInt, CmpDbl, CmpStr, ConvToBool, ConvToInt,
		ConvToDbl, CountArray, InstanceOf, LdThis:
		return true
	}
	return false
}

// IsTerminator reports control-flow enders.
func (o Opcode) IsTerminator() bool {
	switch o {
	case Jmp, Branch, SwitchInt, Ret, ThrowC, SideExit, ReqBind, IterInitLocal, IterNextK:
		return true
	}
	return false
}
