// Package hhbc defines the HipHop-style stack bytecode that is the
// interface between the ahead-of-time pipeline (parser → emitter →
// hhbbc) and the runtime engines (interpreter and JIT). Like HHBC it
// is untyped, stack-based, and carries type information only through
// AssertRATL/AssertRAStk assertion instructions.
package hhbc

// Op is a bytecode opcode.
type Op uint8

const (
	OpNop Op = iota

	// Constants: push a literal.
	OpInt    // A = immediate int64 (via unit int pool index)
	OpDouble // A = double pool index
	OpString // A = string pool index
	OpTrue
	OpFalse
	OpNull

	// Stack manipulation.
	OpPopC // pop and decref
	OpDup  // duplicate top (increfs)

	// Locals. A = local slot.
	OpCGetL   // push local value (incref)
	OpCGetL2  // push local value under the top of stack (incref)
	OpPopL    // pop into local (decref old)
	OpSetL    // store top into local without popping (incref value, decref old)
	OpPushL   // move local onto stack, leaving local Uninit (no refcount ops)
	OpIncDecL // A = local, B = IncDecOp; pushes pre/post value
	OpIsTypeL // A = local, B = type kind bits; pushes bool
	OpUnsetL  // A = local; decref, set Uninit

	// Type assertions (from hhbbc static analysis). A = local or stack
	// depth, B = encoded type. No runtime effect; consumed by the JIT.
	OpAssertRATL
	OpAssertRAStk

	// Arithmetic / string.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpConcat
	OpNeg

	// Comparison / logic.
	OpGt
	OpGte
	OpLt
	OpLte
	OpEq
	OpNeq
	OpSame
	OpNSame
	OpNot
	OpCastBool
	OpCastInt
	OpCastDouble
	OpCastString

	// Control flow. A = target pc.
	OpJmp
	OpJmpZ
	OpJmpNZ
	OpSwitch // A = switch-table index (dense int switch); pops int
	OpRetC   // return top of stack
	OpThrow  // throw top of stack (must be object)
	OpCatch  // at handler entry: pushes the caught exception
	OpFatal  // A = string pool index: raise runtime fatal

	// Arrays.
	OpNewArray       // push empty mixed array
	OpNewPackedArray // A = n: pop n elems, push packed array
	OpAddElemC       // pop val, key, arr; push arr with arr[key]=val
	OpAddNewElemC    // pop val, arr; push arr with arr[]=val
	OpArrIdx         // pop key, arr(value); push elem (incref); decrefs arr+key
	OpArrGetL        // A = local holding array; pop key; push elem (incref)
	OpArrSetL        // A = local; pop key (top) then val; local[key]=val with COW
	OpArrAppendL     // A = local; pop val; local[] = val with COW
	OpArrUnsetL      // A = local; pop key; unset(local[key]) with COW
	OpAKExistsL      // A = local; pop key; push bool

	// Iterators. A = iterator slot, B = jump target.
	OpIterInitL // iterate local array (A=iter, B=exit target, C=local)
	OpIterNext  // advance; jump to B (loop body head) if more
	OpIterKey   // push current key (A = iter)
	OpIterValue // push current value (A = iter, increfs)
	OpIterFree  // release iterator (A = iter)

	// Functions and methods.
	OpFCallD          // A = nargs, B = func-name pool index: pop args, push result
	OpFCallBuiltin    // A = nargs, B = name pool index
	OpFCallObjMethodD // A = nargs, B = method-name pool index: pop args then obj
	OpNewObjD         // A = class-name pool index: push new object (ctor called by emitter sequence)
	OpThis            // push $this (incref)
	OpCGetPropD       // A = prop-name pool index: pop obj, push prop (incref)
	OpSetPropD        // A = prop-name pool index: pop val, obj; set prop; push val (incref)
	OpInstanceOfD     // A = class-name pool index: pop cell, push bool
	OpVerifyParamType // A = param index: shallow runtime type-hint check

	// Output.
	OpPrint // pop, write to request output, push Int(1)

	// Profiling support (inserted by the JIT, never by the emitter).
	OpIncProfCounter // A = counter id

	opCount
)

var opNames = [...]string{
	OpNop: "Nop", OpInt: "Int", OpDouble: "Double", OpString: "String",
	OpTrue: "True", OpFalse: "False", OpNull: "Null",
	OpPopC: "PopC", OpDup: "Dup",
	OpCGetL: "CGetL", OpCGetL2: "CGetL2", OpPopL: "PopL", OpSetL: "SetL",
	OpPushL: "PushL", OpIncDecL: "IncDecL", OpIsTypeL: "IsTypeL", OpUnsetL: "UnsetL",
	OpAssertRATL: "AssertRATL", OpAssertRAStk: "AssertRAStk",
	OpAdd: "Add", OpSub: "Sub", OpMul: "Mul", OpDiv: "Div", OpMod: "Mod",
	OpConcat: "Concat", OpNeg: "Neg",
	OpGt: "Gt", OpGte: "Gte", OpLt: "Lt", OpLte: "Lte",
	OpEq: "Eq", OpNeq: "Neq", OpSame: "Same", OpNSame: "NSame",
	OpNot: "Not", OpCastBool: "CastBool", OpCastInt: "CastInt",
	OpCastDouble: "CastDouble", OpCastString: "CastString",
	OpJmp: "Jmp", OpJmpZ: "JmpZ", OpJmpNZ: "JmpNZ", OpSwitch: "Switch",
	OpRetC: "RetC", OpThrow: "Throw", OpCatch: "Catch", OpFatal: "Fatal",
	OpNewArray: "NewArray", OpNewPackedArray: "NewPackedArray",
	OpAddElemC: "AddElemC", OpAddNewElemC: "AddNewElemC",
	OpArrIdx: "ArrIdx", OpArrGetL: "ArrGetL", OpArrSetL: "ArrSetL",
	OpArrAppendL: "ArrAppendL", OpArrUnsetL: "ArrUnsetL", OpAKExistsL: "AKExistsL",
	OpIterInitL: "IterInitL", OpIterNext: "IterNext", OpIterKey: "IterKey",
	OpIterValue: "IterValue", OpIterFree: "IterFree",
	OpFCallD: "FCallD", OpFCallBuiltin: "FCallBuiltin",
	OpFCallObjMethodD: "FCallObjMethodD", OpNewObjD: "NewObjD",
	OpThis: "This", OpCGetPropD: "CGetPropD", OpSetPropD: "SetPropD",
	OpInstanceOfD: "InstanceOfD", OpVerifyParamType: "VerifyParamType",
	OpPrint: "Print", OpIncProfCounter: "IncProfCounter",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return "Op?"
}

// IncDecOp values for OpIncDecL's B immediate.
const (
	PreInc = iota
	PostInc
	PreDec
	PostDec
)

// IsUnconditionalExit reports ops after which control never falls
// through.
func (o Op) IsUnconditionalExit() bool {
	switch o {
	case OpJmp, OpRetC, OpThrow, OpFatal, OpSwitch:
		return true
	}
	return false
}

// NumPop returns how many cells the op pops for stack-depth tracking;
// -1 means it depends on immediates.
func (o Op) NumPop() int {
	switch o {
	case OpPopC, OpPopL, OpJmpZ, OpJmpNZ, OpSwitch, OpRetC, OpThrow, OpPrint,
		OpNot, OpNeg, OpCastBool, OpCastInt, OpCastDouble, OpCastString,
		OpArrGetL, OpArrAppendL, OpArrUnsetL, OpAKExistsL, OpInstanceOfD,
		OpCGetPropD:
		return 1
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpConcat,
		OpGt, OpGte, OpLt, OpLte, OpEq, OpNeq, OpSame, OpNSame,
		OpArrSetL, OpAddNewElemC, OpSetPropD:
		return 2
	case OpArrIdx:
		return 2
	case OpAddElemC:
		return 3
	case OpFCallD, OpFCallBuiltin, OpFCallObjMethodD, OpNewPackedArray:
		return -1
	}
	return 0
}

// NumPush returns how many cells the op pushes.
func (o Op) NumPush() int {
	switch o {
	case OpInt, OpDouble, OpString, OpTrue, OpFalse, OpNull,
		OpDup, OpCGetL, OpCGetL2, OpPushL, OpIncDecL, OpIsTypeL,
		OpAdd, OpSub, OpMul, OpDiv, OpMod, OpConcat, OpNeg,
		OpGt, OpGte, OpLt, OpLte, OpEq, OpNeq, OpSame, OpNSame,
		OpNot, OpCastBool, OpCastInt, OpCastDouble, OpCastString,
		OpCatch, OpNewArray, OpNewPackedArray, OpAddElemC, OpAddNewElemC,
		OpArrIdx, OpArrGetL, OpAKExistsL,
		OpIterKey, OpIterValue,
		OpFCallD, OpFCallBuiltin, OpFCallObjMethodD, OpNewObjD,
		OpThis, OpCGetPropD, OpSetPropD, OpInstanceOfD, OpPrint:
		return 1
	}
	return 0
}
