package machine

import (
	"repro/internal/hhbc"
	"repro/internal/hhir"
	"repro/internal/interp"
	"repro/internal/mcode"
	"repro/internal/runtime"
	"repro/internal/types"
	"repro/internal/vasm"
)

// runHelper implements the out-of-line runtime helpers by calling
// the interpreter's op implementations (interp/ops.go), so JITed code
// and the interpreter share one definition of guest semantics. Only
// specializations the JIT owns stay here: bitwise instanceof and the
// string-compare condition codes. Reference conventions match the
// HHIR lowering: results are owned; helpers do not consume argument
// references unless documented (HBinop consumes both operands).
func (m *Machine) runHelper(act *activation, hid vasm.HelperID, extra int64, in *vasm.Instr) (runtime.Value, error) {
	h := m.Env.Heap
	fr := act.fr
	arg := func(i int) runtime.Value { return act.get(in.Args[i]) }

	switch hid {
	case vasm.HConcat:
		return interp.Binop(h, hhbc.OpConcat, arg(0), arg(1))
	case vasm.HBinop:
		return interp.BinopConsume(h, hhbc.Op(extra), arg(0), arg(1))
	case vasm.HEqAny:
		return interp.Binop(h, negatedIf(extra, hhbc.OpEq, hhbc.OpNeq), arg(0), arg(1))
	case vasm.HSameAny:
		return interp.Binop(h, negatedIf(extra, hhbc.OpSame, hhbc.OpNSame), arg(0), arg(1))
	case vasm.HDivNum:
		return interp.Binop(h, hhbc.OpDiv, arg(0), arg(1))
	case vasm.HModInt:
		return interp.Binop(h, hhbc.OpMod, arg(0), arg(1))
	case vasm.HToStr:
		return interp.Unop(h, hhbc.OpCastString, arg(0)), nil
	case vasm.HCmpStr:
		c := runtime.Cmp(arg(0), arg(1))
		return runtime.Bool(cmpI(extra&0xff, int64(c), 0)), nil
	case vasm.HConvToBoolGeneric:
		return interp.Unop(h, hhbc.OpCastBool, arg(0)), nil
	case vasm.HConvToIntGeneric:
		return interp.Unop(h, hhbc.OpCastInt, arg(0)), nil
	case vasm.HConvToDblGeneric:
		return interp.Unop(h, hhbc.OpCastDouble, arg(0)), nil

	case vasm.HNewArr:
		return runtime.ArrV(runtime.NewMixed()), nil
	case vasm.HNewPacked:
		elems := make([]runtime.Value, len(in.Args))
		for i := range in.Args {
			elems[i] = arg(i)
		}
		return interp.NewPacked(elems), nil
	case vasm.HAddElem:
		return interp.AddElem(h, arg(0), arg(1), arg(2))
	case vasm.HAddNewElem:
		return interp.AddNewElem(h, arg(0), arg(1))
	case vasm.HArrGetGeneric:
		return interp.ArrGet(h, arg(0), arg(1), in.Str)
	case vasm.HArrSetLocal:
		return runtime.Null(), fr.ArrSetL(h, int(extra), arg(0), arg(1))
	case vasm.HArrAppendLocal:
		return runtime.Null(), fr.ArrAppendL(h, int(extra), arg(0))
	case vasm.HArrUnsetLocal:
		fr.ArrUnsetL(h, int(extra), arg(0))
		return runtime.Null(), nil
	case vasm.HAKExistsLocal:
		return runtime.Bool(fr.AKExistsL(int(extra), arg(0))), nil

	case vasm.HIterInit:
		iter, slot := vasm.UnpackIterSlot(extra)
		return runtime.Bool(fr.IterInit(h, iter, int(slot))), nil
	case vasm.HIterNext:
		// The loop exit frees the iterator here rather than in a
		// following IterFree.
		if fr.IterNext(int32(extra)) {
			return runtime.Bool(true), nil
		}
		fr.IterFree(h, int32(extra))
		return runtime.Bool(false), nil
	case vasm.HIterKey:
		return fr.IterKey(h, int32(extra)), nil
	case vasm.HIterValue:
		return fr.IterValue(h, int32(extra)), nil
	case vasm.HIterFree:
		fr.IterFree(h, int32(extra))
		return runtime.Null(), nil

	case vasm.HNewObj:
		return m.Env.NewObj(in.Str)
	case vasm.HLdPropGeneric:
		v, err := interp.GetProp(h, arg(0), in.Str)
		if err == nil {
			m.Shapes.GenericPropCalls.Add(1)
		}
		return v, err
	case vasm.HStPropGeneric:
		ov := arg(0)
		if ov.Kind == types.KObj {
			m.Shapes.GenericPropCalls.Add(1)
		}
		return runtime.Null(), interp.SetProp(h, ov, in.Str, arg(1))
	case vasm.HInstanceOf:
		v := arg(0)
		if extra > 0 {
			// Bitwise instanceof: one bit test against the receiver's
			// ancestor bitset (base helper cost only).
			r := v.Kind == types.KObj && v.O.Class.HasAncestorID(int(extra-1))
			return runtime.Bool(r), nil
		}
		// Slow path: hierarchy walk by name.
		m.Meter.Charge(instanceOfWalkCost)
		return runtime.Bool(interp.InstanceOf(v, in.Str)), nil
	case vasm.HVerifyParam:
		fn, idx, slot := hhir.UnpackParamSite(extra)
		return runtime.Null(), fr.VerifyParam(m.Env.Unit.Funcs[fn], idx, slot)
	case vasm.HPrint:
		m.Env.Print(arg(0))
		return runtime.Int(1), nil
	case vasm.HThrow:
		return runtime.Null(), interp.Throw(h, arg(0))
	default:
		return runtime.Null(), runtime.NewError("machine: unknown helper %d", hid)
	}
}

// negatedIf picks the negated op when a helper's extra flag is set.
func negatedIf(extra int64, op, neg hhbc.Op) hhbc.Op {
	if extra != 0 {
		return neg
	}
	return op
}

// takeArgs copies the call's argument registers into a pooled scratch
// slice (returned to the free list with putArgs once the callee has
// consumed it). The list is a stack because guest calls nest.
func (m *Machine) takeArgs(act *activation, regs []vasm.Reg, skip int) []runtime.Value {
	var buf []runtime.Value
	if k := len(m.argBufs); k > 0 {
		buf = m.argBufs[k-1][:0]
		m.argBufs = m.argBufs[:k-1]
	}
	for _, r := range regs[skip:] {
		buf = append(buf, act.get(r))
	}
	return buf
}

func (m *Machine) putArgs(buf []runtime.Value) {
	m.argBufs = append(m.argBufs, buf[:0])
}

// callHint reads the call site's smashed callee link, if fresh.
func (m *Machine) callHint(code *mcode.Code, ip int) ChainTarget {
	if !code.Chainable || m.Epoch == nil {
		return nil
	}
	l := code.LoadLink(ip)
	if l == nil {
		return nil
	}
	if l.Epoch != m.Epoch.Load() {
		m.Chain.StaleLinks.Add(1)
		return nil
	}
	t, _ := l.Target.(ChainTarget)
	return t
}

// smashCall binds a direct call site to the callee prologue
// translation the dispatcher just entered, so the next call transfers
// into it without a Lookup.
func (m *Machine) smashCall(code *mcode.Code, ip int, entered ChainTarget) {
	if entered == nil || !code.Chainable || m.Epoch == nil {
		return
	}
	if cc := entered.ChainCode(); cc == nil || !cc.Chainable {
		return
	}
	epoch := m.Epoch.Load()
	if l := code.LoadLink(ip); l != nil && l.Target == entered && l.Epoch == epoch {
		return // already bound to this target
	}
	code.StoreLink(ip, &mcode.Link{Epoch: epoch, Target: entered})
	m.Chain.BindsSmashed.Add(1)
}

// runCall dispatches guest calls from JITed code. Calls consume the
// argument references (and for methods, NOT the receiver's — the
// caller releases it, matching the interpreter). Direct call sites
// (CallFunc / CallMethodD) are smash sites: the first dispatch binds
// them to the callee's prologue translation.
func (m *Machine) runCall(code *mcode.Code, ip int, act *activation, in *vasm.Instr) (runtime.Value, error) {
	env := m.Env
	switch in.Op {
	case vasm.CallFunc:
		args := m.takeArgs(act, in.Args, 0)
		f := env.Unit.Funcs[in.I64]
		if m.Counters != nil {
			m.Counters.RecordCall(act.fr.Fn.ID, f.ID)
		}
		ret, entered, err := m.CallGuest(f, nil, args, m.callHint(code, ip))
		m.smashCall(code, ip, entered)
		m.putArgs(args)
		return ret, err
	case vasm.CallBuiltin:
		args := m.takeArgs(act, in.Args, 0)
		f, b, err := env.ResolveCall(hhbc.Op(in.I64), in.Str, args)
		var ret runtime.Value
		switch {
		case b != nil:
			ret, err = env.CallBuiltin(m.Meter, b, args)
		case f != nil:
			ret, _, err = m.CallGuest(f, nil, args, nil)
		}
		m.putArgs(args)
		return ret, err
	case vasm.CallMethodD:
		obj := act.get(in.Args[0])
		args := m.takeArgs(act, in.Args, 1)
		f := env.Unit.Funcs[in.I64]
		if m.Counters != nil {
			m.Counters.RecordCall(act.fr.Fn.ID, f.ID)
		}
		ret, entered, err := m.CallGuest(f, obj.O, args, m.callHint(code, ip))
		m.smashCall(code, ip, entered)
		m.putArgs(args)
		return ret, err
	case vasm.CallMethodC:
		obj := act.get(in.Args[0])
		args := m.takeArgs(act, in.Args, 1)
		f, err := m.lookupMethod(obj, in, args)
		if f == nil {
			m.putArgs(args)
			return runtime.Null(), err
		}
		if m.Counters != nil {
			m.Counters.RecordCall(act.fr.Fn.ID, f.ID)
		}
		ret, _, err := m.CallGuest(f, obj.O, args, nil)
		m.putArgs(args)
		return ret, err
	}
	return runtime.Null(), runtime.NewError("machine: bad call op")
}

// lookupMethod resolves a CallMethodC target through the site's
// monomorphic inline cache (site -1 = caching disabled, full lookup
// every call). It follows interp.ResolveMethod's contract: a nil
// function means the arguments were released.
func (m *Machine) lookupMethod(obj runtime.Value, in *vasm.Instr, args []runtime.Value) (*hhbc.Func, error) {
	if obj.Kind == types.KObj {
		if ent, ok := m.methodCache[in.I64]; in.I64 >= 0 && ok && ent.cls == obj.O.Class {
			m.Meter.Charge(methodCacheHitCost)
			return m.Env.Unit.Funcs[ent.funcID], nil
		}
		m.Meter.Charge(methodLookupCost)
	}
	f, err := m.Env.ResolveMethod(obj, in.Str, args)
	if f != nil && in.I64 >= 0 {
		m.methodCache[in.I64] = methodCacheEnt{cls: obj.O.Class, funcID: f.ID}
	}
	return f, err
}
