package interp

import (
	"fmt"

	"repro/internal/hhbc"
	"repro/internal/runtime"
	"repro/internal/types"
)

// Cost model: every interpreted bytecode pays a dispatch overhead (the
// threaded-interpreter fetch/decode/indirect-branch) plus the
// handler's own work. JITed code eliminates the dispatch and shrinks
// the work via specialization, which is where the interp-vs-JIT gap in
// Figure 8 comes from.
const dispatchCost = 58

func opWorkCost(op hhbc.Op) uint64 {
	switch op {
	case hhbc.OpNop, hhbc.OpAssertRATL, hhbc.OpAssertRAStk:
		return 0
	case hhbc.OpInt, hhbc.OpDouble, hhbc.OpTrue, hhbc.OpFalse, hhbc.OpNull, hhbc.OpString:
		return 2
	case hhbc.OpCGetL, hhbc.OpCGetL2, hhbc.OpPopL, hhbc.OpSetL, hhbc.OpPushL, hhbc.OpPopC, hhbc.OpDup:
		return 4
	case hhbc.OpIncDecL, hhbc.OpIsTypeL, hhbc.OpUnsetL:
		return 5
	case hhbc.OpAdd, hhbc.OpSub, hhbc.OpMul, hhbc.OpNeg:
		return 6
	case hhbc.OpDiv, hhbc.OpMod:
		return 10
	case hhbc.OpConcat:
		return 24
	case hhbc.OpGt, hhbc.OpGte, hhbc.OpLt, hhbc.OpLte, hhbc.OpEq, hhbc.OpNeq,
		hhbc.OpSame, hhbc.OpNSame, hhbc.OpNot:
		return 6
	case hhbc.OpCastBool, hhbc.OpCastInt, hhbc.OpCastDouble:
		return 5
	case hhbc.OpCastString:
		return 18
	case hhbc.OpJmp, hhbc.OpJmpZ, hhbc.OpJmpNZ:
		return 2
	case hhbc.OpSwitch:
		return 5
	case hhbc.OpRetC:
		return 8
	case hhbc.OpThrow, hhbc.OpCatch, hhbc.OpFatal:
		return 30
	case hhbc.OpNewArray, hhbc.OpNewPackedArray:
		return 20
	case hhbc.OpAddElemC, hhbc.OpAddNewElemC:
		return 12
	case hhbc.OpArrIdx, hhbc.OpArrGetL:
		return 10
	case hhbc.OpArrSetL, hhbc.OpArrAppendL, hhbc.OpArrUnsetL:
		return 14
	case hhbc.OpAKExistsL:
		return 8
	case hhbc.OpIterInitL:
		return 14
	case hhbc.OpIterNext, hhbc.OpIterKey, hhbc.OpIterValue:
		return 6
	case hhbc.OpIterFree:
		return 4
	case hhbc.OpFCallD, hhbc.OpFCallObjMethodD:
		return 44 // ActRec setup + frame push + dispatch
	case hhbc.OpFCallBuiltin:
		return 12
	case hhbc.OpNewObjD:
		return 25
	case hhbc.OpThis:
		return 3
	case hhbc.OpCGetPropD, hhbc.OpSetPropD:
		return 12
	case hhbc.OpInstanceOfD:
		return 8
	case hhbc.OpVerifyParamType:
		return 5
	case hhbc.OpPrint:
		return 15
	default:
		return 5
	}
}

// interpCall is the default CallHook: interpret f from its entry.
func (e *Env) interpCall(f *hhbc.Func, this *runtime.Object, args []runtime.Value) (runtime.Value, error) {
	if e.OnEnter != nil {
		e.OnEnter(f)
	}
	if e.depth >= e.MaxDepth {
		e.release(args)
		return runtime.Null(), runtime.NewError("maximum call depth exceeded")
	}
	fr := NewFrame(e, f, this, args)
	e.depth++
	v, err := e.Run(fr)
	e.depth--
	return v, err
}

// Run executes fr from fr.PC until return or uncaught error. It is
// the OSR entry: JITed side exits resume interpretation here with a
// materialized frame.
func (e *Env) Run(fr *Frame) (runtime.Value, error) {
	for {
		v, err := e.step(fr)
		if err == nil {
			if fr.PC < 0 { // returned
				return v, nil
			}
			continue
		}
		if err == ErrOSR {
			return runtime.Null(), err
		}
		// Unwind to a handler in this frame, or out.
		handler := fr.Fn.HandlerFor(fr.PC)
		if handler < 0 {
			fr.Release(e)
			return runtime.Null(), err
		}
		obj := e.toThrownObject(err)
		fr.clearStack(e)
		fr.pendingExc = obj
		fr.PC = handler
	}
}

// step executes instructions until a call returns, the function
// returns (fr.PC = -1), or an error is raised. Splitting the hot loop
// this way keeps error unwinding out of the common path.
func (e *Env) step(fr *Frame) (runtime.Value, error) {
	u := e.Unit
	h := e.Heap
	for {
		in := fr.Fn.Instrs[fr.PC]
		if e.Meter != nil {
			e.Meter.Charge(dispatchCost + opWorkCost(in.Op))
		}
		switch in.Op {
		case hhbc.OpNop, hhbc.OpAssertRATL, hhbc.OpAssertRAStk, hhbc.OpIncProfCounter:
			// no effect

		case hhbc.OpInt:
			fr.push(runtime.Int(u.Ints[in.A]))
		case hhbc.OpDouble:
			fr.push(runtime.Dbl(u.Doubles[in.A]))
		case hhbc.OpString:
			fr.push(runtime.StrV(runtime.InternStr(u.Strings[in.A])))
		case hhbc.OpTrue:
			fr.push(runtime.Bool(true))
		case hhbc.OpFalse:
			fr.push(runtime.Bool(false))
		case hhbc.OpNull:
			fr.push(runtime.Null())

		case hhbc.OpPopC:
			h.DecRef(fr.pop())
		case hhbc.OpDup:
			v := fr.top()
			h.IncRef(v)
			fr.push(v)

		case hhbc.OpCGetL:
			v := fr.Locals[in.A]
			if v.Kind == types.KUninit {
				v = runtime.Null()
			}
			h.IncRef(v)
			fr.push(v)
		case hhbc.OpCGetL2:
			v := fr.Locals[in.A]
			if v.Kind == types.KUninit {
				v = runtime.Null()
			}
			h.IncRef(v)
			top := fr.pop()
			fr.push(v)
			fr.push(top)
		case hhbc.OpPopL:
			old := fr.Locals[in.A]
			fr.Locals[in.A] = fr.pop()
			h.DecRef(old)
		case hhbc.OpSetL:
			v := fr.top()
			h.IncRef(v)
			old := fr.Locals[in.A]
			fr.Locals[in.A] = v
			h.DecRef(old)
		case hhbc.OpPushL:
			fr.push(fr.Locals[in.A])
			fr.Locals[in.A] = runtime.Uninit()
		case hhbc.OpUnsetL:
			h.DecRef(fr.Locals[in.A])
			fr.Locals[in.A] = runtime.Uninit()
		case hhbc.OpIsTypeL:
			fr.push(runtime.Bool(int32(fr.Locals[in.A].Kind)&in.B != 0))
		case hhbc.OpIncDecL:
			v, err := e.incDecL(fr, in)
			if err != nil {
				return runtime.Null(), err
			}
			fr.push(v)

		case hhbc.OpAdd, hhbc.OpSub, hhbc.OpMul, hhbc.OpDiv, hhbc.OpMod, hhbc.OpConcat,
			hhbc.OpGt, hhbc.OpGte, hhbc.OpLt, hhbc.OpLte, hhbc.OpEq, hhbc.OpNeq,
			hhbc.OpSame, hhbc.OpNSame:
			b, a := fr.pop(), fr.pop()
			r, err := BinopConsume(h, in.Op, a, b)
			if err != nil {
				return runtime.Null(), err
			}
			fr.push(r)
		case hhbc.OpNeg, hhbc.OpNot, hhbc.OpCastBool, hhbc.OpCastInt, hhbc.OpCastDouble,
			hhbc.OpCastString:
			a := fr.pop()
			fr.push(Unop(h, in.Op, a))
			h.DecRef(a)

		case hhbc.OpJmp:
			if int(in.A) <= fr.PC && e.OSRCheck != nil && len(fr.Stack) == 0 {
				fr.PC = int(in.A)
				if e.OSRCheck(fr) {
					return runtime.Null(), ErrOSR
				}
				continue
			}
			fr.PC = int(in.A)
			continue
		case hhbc.OpJmpZ:
			v := fr.pop()
			b := v.Bool()
			h.DecRef(v)
			if !b {
				fr.PC = int(in.A)
				continue
			}
		case hhbc.OpJmpNZ:
			v := fr.pop()
			b := v.Bool()
			h.DecRef(v)
			if b {
				if int(in.A) <= fr.PC && e.OSRCheck != nil && len(fr.Stack) == 0 {
					fr.PC = int(in.A)
					if e.OSRCheck(fr) {
						return runtime.Null(), ErrOSR
					}
					continue
				}
				fr.PC = int(in.A)
				continue
			}
		case hhbc.OpSwitch:
			v := fr.pop()
			i := v.ToInt()
			h.DecRef(v)
			sw := fr.Fn.Switches[in.A]
			if i >= sw.Base && i < sw.Base+int64(len(sw.Targets)) {
				fr.PC = sw.Targets[i-sw.Base]
			} else {
				fr.PC = sw.Default
			}
			continue

		case hhbc.OpRetC:
			ret := fr.pop()
			fr.Release(e)
			fr.PC = -1
			return ret, nil

		case hhbc.OpThrow:
			return runtime.Null(), Throw(h, fr.pop())
		case hhbc.OpCatch:
			if fr.pendingExc == nil {
				return runtime.Null(), runtime.NewError("Catch with no pending exception")
			}
			fr.push(runtime.ObjV(fr.pendingExc))
			fr.pendingExc = nil
		case hhbc.OpFatal:
			return runtime.Null(), runtime.NewError("%s", u.Strings[in.A])

		case hhbc.OpNewArray:
			fr.push(runtime.ArrV(runtime.NewMixed()))
		case hhbc.OpNewPackedArray:
			fr.push(NewPacked(fr.popN(int(in.A))))
		case hhbc.OpAddElemC:
			val, key, arrv := fr.pop(), fr.pop(), fr.pop()
			r, err := AddElem(h, arrv, key, val)
			if err != nil {
				h.DecRef(val)
				h.DecRef(key)
				h.DecRef(arrv)
				return runtime.Null(), err
			}
			h.DecRef(key)
			fr.push(r)
		case hhbc.OpAddNewElemC:
			val, arrv := fr.pop(), fr.pop()
			r, err := AddNewElem(h, arrv, val)
			if err != nil {
				h.DecRef(val)
				h.DecRef(arrv)
				return runtime.Null(), err
			}
			fr.push(r)

		case hhbc.OpArrIdx:
			key, arrv := fr.pop(), fr.pop()
			el, err := ArrGet(h, arrv, key, "")
			h.DecRef(key)
			h.DecRef(arrv)
			if err != nil {
				return runtime.Null(), err
			}
			fr.push(el)
		case hhbc.OpArrGetL:
			key := fr.pop()
			el, err := ArrGet(h, fr.Locals[in.A], key, LocalName(fr.Fn, in.A))
			h.DecRef(key)
			if err != nil {
				return runtime.Null(), err
			}
			fr.push(el)
		case hhbc.OpArrSetL:
			key, val := fr.pop(), fr.pop()
			err := fr.ArrSetL(h, int(in.A), key, val)
			h.DecRef(key)
			if err != nil {
				return runtime.Null(), err
			}
		case hhbc.OpArrAppendL:
			if err := fr.ArrAppendL(h, int(in.A), fr.pop()); err != nil {
				return runtime.Null(), err
			}
		case hhbc.OpArrUnsetL:
			key := fr.pop()
			fr.ArrUnsetL(h, int(in.A), key)
			h.DecRef(key)
		case hhbc.OpAKExistsL:
			key := fr.pop()
			ok := fr.AKExistsL(int(in.A), key)
			h.DecRef(key)
			fr.push(runtime.Bool(ok))

		case hhbc.OpIterInitL:
			if !fr.IterInit(h, in.A, int(in.C)) {
				fr.PC = int(in.B)
				continue
			}
		case hhbc.OpIterNext:
			if fr.IterNext(in.A) {
				fr.PC = int(in.B)
				continue
			}
			// exhausted: fall through to IterFree
		case hhbc.OpIterKey:
			fr.push(fr.IterKey(h, in.A))
		case hhbc.OpIterValue:
			fr.push(fr.IterValue(h, in.A))
		case hhbc.OpIterFree:
			fr.IterFree(h, in.A)

		case hhbc.OpFCallD, hhbc.OpFCallBuiltin:
			args := fr.popN(int(in.A))
			f, b, err := e.ResolveCall(in.Op, u.Strings[in.B], args)
			var ret runtime.Value
			switch {
			case b != nil:
				ret, err = e.CallBuiltin(e.Meter, b, args)
			case f != nil:
				ret, err = e.Call(f, nil, args)
			}
			if err != nil {
				return runtime.Null(), err
			}
			fr.push(ret)
		case hhbc.OpFCallObjMethodD:
			args := fr.popN(int(in.A))
			ov := fr.pop()
			f, err := e.ResolveMethod(ov, u.Strings[in.B], args)
			ret := runtime.Null()
			if f != nil {
				ret, err = e.Call(f, ov.O, args)
			}
			h.DecRef(ov)
			if err != nil {
				return runtime.Null(), err
			}
			fr.push(ret)

		case hhbc.OpNewObjD:
			v, err := e.NewObj(u.Strings[in.A])
			if err != nil {
				return runtime.Null(), err
			}
			fr.push(v)
		case hhbc.OpThis:
			v, err := fr.LoadThis()
			if err != nil {
				return runtime.Null(), err
			}
			h.IncRef(v)
			fr.push(v)
		case hhbc.OpCGetPropD:
			ov := fr.pop()
			p, err := GetProp(h, ov, u.Strings[in.A])
			h.DecRef(ov)
			if err != nil {
				return runtime.Null(), err
			}
			fr.push(p)
		case hhbc.OpSetPropD:
			val, ov := fr.pop(), fr.pop()
			h.IncRef(val) // one ref into the prop, one back on the stack
			if err := SetProp(h, ov, u.Strings[in.A], val); err != nil {
				h.DecRef(val)
				h.DecRef(ov)
				return runtime.Null(), err
			}
			h.DecRef(ov)
			fr.push(val)
		case hhbc.OpInstanceOfD:
			v := fr.pop()
			r := InstanceOf(v, u.Strings[in.A])
			h.DecRef(v)
			fr.push(runtime.Bool(r))
		case hhbc.OpVerifyParamType:
			if err := fr.VerifyParam(fr.Fn, int(in.A), int(in.A)); err != nil {
				return runtime.Null(), err
			}

		case hhbc.OpPrint:
			v := fr.pop()
			e.Print(v)
			h.DecRef(v)
			fr.push(runtime.Int(1))

		default:
			return runtime.Null(), runtime.NewError("unimplemented opcode %s", in.Op)
		}
		fr.PC++
	}
}

// LocalName is the source name of f's local slot, for error messages.
func LocalName(f *hhbc.Func, slot int32) string {
	if int(slot) < len(f.LocalName) {
		return f.LocalName[slot]
	}
	return fmt.Sprintf("<%d>", slot)
}

func (e *Env) incDecL(fr *Frame, in hhbc.Instr) (runtime.Value, error) {
	lv := fr.Locals[in.A]
	var oldv, newv runtime.Value
	switch lv.Kind {
	case types.KInt:
		oldv = lv
		delta := int64(1)
		if in.B == hhbc.PreDec || in.B == hhbc.PostDec {
			delta = -1
		}
		newv = runtime.Int(lv.I + delta)
	case types.KDbl:
		oldv = lv
		delta := 1.0
		if in.B == hhbc.PreDec || in.B == hhbc.PostDec {
			delta = -1
		}
		newv = runtime.Dbl(lv.D + delta)
	case types.KNull, types.KUninit:
		oldv = runtime.Null()
		if in.B == hhbc.PreInc || in.B == hhbc.PostInc {
			newv = runtime.Int(1) // PHP: null++ is 1, null-- stays null
		} else {
			newv = runtime.Null()
		}
	default:
		return runtime.Null(), runtime.NewError("cannot increment/decrement %s", lv.Type())
	}
	fr.Locals[in.A] = newv
	if in.B == hhbc.PostInc || in.B == hhbc.PostDec {
		return oldv, nil
	}
	return newv, nil
}
