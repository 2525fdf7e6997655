package interp

import (
	"io"

	"repro/internal/hhbc"
	"repro/internal/runtime"
	"repro/internal/types"
)

// The runtime ops below are the one implementation of guest semantics
// (values, reference counting, errors and their messages). The
// interpreter's step loop and the machine's out-of-line helpers both
// call them, so the tiers agree by construction. They take operands
// and frame slots, never a bytecode instruction: a JITed helper may
// run inside an inlined callee's slots. Each tier keeps its own cycle
// accounting and control transfer.
//
// Reference conventions follow the JIT helper ABI: operands are
// borrowed and results owned unless a comment says otherwise. The
// interpreter releases the operands it popped after the call.

// Binop applies a two-operand bytecode op (Add, Sub, Mul, Div, Mod,
// Concat, Neg, Gt, Gte, Lt, Lte, Eq, Neq, Same, NSame). Neg ignores b.
func Binop(h *runtime.Heap, op hhbc.Op, a, b runtime.Value) (runtime.Value, error) {
	switch op {
	case hhbc.OpAdd:
		return runtime.Add(h, a, b)
	case hhbc.OpSub:
		return runtime.Sub(a, b)
	case hhbc.OpMul:
		return runtime.Mul(a, b)
	case hhbc.OpDiv:
		return runtime.Div(a, b)
	case hhbc.OpMod:
		return runtime.Mod(a, b)
	case hhbc.OpConcat:
		return runtime.Concat(a, b), nil
	case hhbc.OpNeg:
		return Unop(h, op, a), nil
	case hhbc.OpGt:
		return runtime.Bool(runtime.Cmp(a, b) > 0), nil
	case hhbc.OpGte:
		return runtime.Bool(runtime.Cmp(a, b) >= 0), nil
	case hhbc.OpLt:
		return runtime.Bool(runtime.Cmp(a, b) < 0), nil
	case hhbc.OpLte:
		return runtime.Bool(runtime.Cmp(a, b) <= 0), nil
	case hhbc.OpEq:
		return runtime.Bool(runtime.LooseEq(a, b)), nil
	case hhbc.OpNeq:
		return runtime.Bool(!runtime.LooseEq(a, b)), nil
	case hhbc.OpSame:
		return runtime.Bool(runtime.StrictEq(a, b)), nil
	case hhbc.OpNSame:
		return runtime.Bool(!runtime.StrictEq(a, b)), nil
	default:
		return runtime.Null(), runtime.NewError("bad binary op %s", op)
	}
}

// BinopConsume is Binop consuming both operands: the convention of
// popped stack operands and of the JIT's BinopGeneric.
func BinopConsume(h *runtime.Heap, op hhbc.Op, a, b runtime.Value) (runtime.Value, error) {
	r, err := Binop(h, op, a, b)
	h.DecRef(a)
	h.DecRef(b)
	return r, err
}

// Unop applies a one-operand bytecode op (Neg, Not, CastBool,
// CastInt, CastDouble, CastString).
func Unop(h *runtime.Heap, op hhbc.Op, a runtime.Value) runtime.Value {
	switch op {
	case hhbc.OpNeg:
		if a.Kind == types.KDbl {
			return runtime.Dbl(-a.D)
		}
		return runtime.Int(-a.ToInt())
	case hhbc.OpNot:
		return runtime.Bool(!a.Bool())
	case hhbc.OpCastBool:
		return runtime.Bool(a.Bool())
	case hhbc.OpCastInt:
		return runtime.Int(a.ToInt())
	case hhbc.OpCastDouble:
		return runtime.Dbl(a.ToDbl())
	default: // OpCastString
		if a.Kind == types.KStr {
			h.IncRef(a)
			return a
		}
		return runtime.NewStr(a.ToString())
	}
}

// NewPacked builds a packed array, consuming the elements.
func NewPacked(elems []runtime.Value) runtime.Value {
	return runtime.ArrV(runtime.NewPacked(elems))
}

// AddElem stores key => val into an array literal. On success it
// consumes arr and val (key stays borrowed); on error nothing.
func AddElem(h *runtime.Heap, arr, key, val runtime.Value) (runtime.Value, error) {
	if arr.Kind != types.KArr {
		return runtime.Null(), runtime.NewError("AddElemC on non-array")
	}
	return runtime.ArrV(arr.A.Set(h, key, val)), nil
}

// AddNewElem appends val to an array literal, consuming arr and val
// on success and nothing on error.
func AddNewElem(h *runtime.Heap, arr, val runtime.Value) (runtime.Value, error) {
	if arr.Kind != types.KArr {
		return runtime.Null(), runtime.NewError("AddNewElemC on non-array")
	}
	return runtime.ArrV(arr.A.Append(h, val)), nil
}

// ArrGet reads arr[key]. local names the local arr was read from
// (ArrGetL), "" for a stack operand (ArrIdx); it only shapes the
// error message.
func ArrGet(h *runtime.Heap, arr, key runtime.Value, local string) (runtime.Value, error) {
	if arr.Kind != types.KArr {
		if local != "" {
			return runtime.Null(), runtime.NewError("cannot index non-array local $%s", local)
		}
		return runtime.Null(), runtime.NewError("cannot index non-array")
	}
	el, _ := arr.A.Get(key)
	if el.Kind == types.KUninit {
		el = runtime.Null()
	}
	h.IncRef(el)
	return el, nil
}

// ArrSetL stores $slot[key] = val, auto-vivifying an unset local. It
// consumes val (also on error).
func (fr *Frame) ArrSetL(h *runtime.Heap, slot int, key, val runtime.Value) error {
	lv := fr.Locals[slot]
	if lv.Kind == types.KUninit || lv.Kind == types.KNull {
		lv = runtime.ArrV(runtime.NewMixed())
		fr.Locals[slot] = lv
	}
	if lv.Kind != types.KArr {
		h.DecRef(val)
		return runtime.NewError("cannot write index of non-array")
	}
	fr.Locals[slot] = runtime.ArrV(lv.A.Set(h, key, val))
	return nil
}

// ArrAppendL stores $slot[] = val, auto-vivifying an unset local. It
// consumes val (also on error).
func (fr *Frame) ArrAppendL(h *runtime.Heap, slot int, val runtime.Value) error {
	lv := fr.Locals[slot]
	if lv.Kind == types.KUninit || lv.Kind == types.KNull {
		lv = runtime.ArrV(runtime.NewPacked(nil))
		fr.Locals[slot] = lv
	}
	if lv.Kind != types.KArr {
		h.DecRef(val)
		return runtime.NewError("cannot append to non-array")
	}
	fr.Locals[slot] = runtime.ArrV(lv.A.Append(h, val))
	return nil
}

// ArrUnsetL removes $slot[key]; a non-array local is left alone.
func (fr *Frame) ArrUnsetL(h *runtime.Heap, slot int, key runtime.Value) {
	if lv := fr.Locals[slot]; lv.Kind == types.KArr {
		fr.Locals[slot] = runtime.ArrV(lv.A.Remove(h, key))
	}
}

// AKExistsL reports whether the array in slot has key.
func (fr *Frame) AKExistsL(slot int, key runtime.Value) bool {
	lv := fr.Locals[slot]
	if lv.Kind != types.KArr {
		return false
	}
	_, ok := lv.A.Get(key)
	return ok
}

// IterInit starts iterator id over the array in slot. It returns
// false, binding nothing, when the local is not a non-empty array.
func (fr *Frame) IterInit(h *runtime.Heap, id int32, slot int) bool {
	lv := fr.Locals[slot]
	if lv.Kind != types.KArr || lv.A.Len() == 0 {
		return false
	}
	h.IncRef(lv)
	fr.setIter(id, runtime.NewIter(lv.A))
	return true
}

// IterNext advances iterator id; false means it is exhausted (the
// iterator stays bound until IterFree).
func (fr *Frame) IterNext(id int32) bool {
	it := fr.iter(id)
	return it != nil && it.Next()
}

// IterKey returns iterator id's current key.
func (fr *Frame) IterKey(h *runtime.Heap, id int32) runtime.Value {
	k := fr.iter(id).Key()
	h.IncRef(k)
	return k
}

// IterValue returns iterator id's current value.
func (fr *Frame) IterValue(h *runtime.Heap, id int32) runtime.Value {
	v := fr.iter(id).Val()
	if v.Kind == types.KUninit {
		v = runtime.Null()
	}
	h.IncRef(v)
	return v
}

// IterFree unbinds iterator id, releasing its array.
func (fr *Frame) IterFree(h *runtime.Heap, id int32) {
	if it := fr.iter(id); it != nil {
		h.DecRef(runtime.ArrV(it.Arr()))
		fr.setIter(id, nil)
	}
}

// NewObj instantiates the named class.
func (e *Env) NewObj(class string) (runtime.Value, error) {
	cls, ok := e.Classes[class]
	if !ok {
		return runtime.Null(), runtime.NewError("class %s not found", class)
	}
	return runtime.ObjV(e.NewInstance(cls)), nil
}

// LoadThis returns the frame's receiver (borrowed).
func (fr *Frame) LoadThis() (runtime.Value, error) {
	if fr.This == nil {
		return runtime.Null(), runtime.NewError("using $this outside object context")
	}
	return runtime.ObjV(fr.This), nil
}

// GetProp reads property name of ov by name.
func GetProp(h *runtime.Heap, ov runtime.Value, name string) (runtime.Value, error) {
	if ov.Kind != types.KObj {
		return runtime.Null(), runtime.NewError("property access on non-object")
	}
	return runtime.GetPropNamed(h, ov.O, name), nil
}

// SetProp writes property name of ov by name, consuming val (also on
// error).
func SetProp(h *runtime.Heap, ov runtime.Value, name string, val runtime.Value) error {
	if ov.Kind != types.KObj {
		h.DecRef(val)
		return runtime.NewError("property write on non-object")
	}
	if err := runtime.SetPropNamed(h, ov.O, name, val); err != nil {
		return runtime.NewError("%s", err.Error())
	}
	return nil
}

// InstanceOf reports whether v is an object of class (or a subclass
// or implementer of) class, walking the hierarchy by name.
func InstanceOf(v runtime.Value, class string) bool {
	return v.Kind == types.KObj && v.O.Class.IsSubclassOf(class)
}

// VerifyParam checks parameter idx of fn, held in frame slot (which
// differs from idx inside an inlined callee), against its shallow type
// hint. A float hint widens an int argument in place.
func (fr *Frame) VerifyParam(fn *hhbc.Func, idx, slot int) error {
	p := fn.Params[idx]
	v := fr.Locals[slot]
	if p.Nullable && v.IsNull() {
		return nil
	}
	ok := false
	switch p.TypeHint {
	case "int":
		ok = v.Kind == types.KInt
	case "float":
		ok = v.Kind == types.KDbl || v.Kind == types.KInt
		if v.Kind == types.KInt {
			fr.Locals[slot] = runtime.Dbl(float64(v.I)) // PHP widens
		}
	case "string":
		ok = v.Kind == types.KStr
	case "bool":
		ok = v.Kind == types.KBool
	case "array":
		ok = v.Kind == types.KArr
	case "":
		ok = true
	default: // class hint
		ok = v.Kind == types.KObj && v.O.Class.IsSubclassOf(p.TypeHint)
	}
	if !ok {
		return runtime.NewError("argument %d ($%s) of %s() must be of type %s, %s given",
			idx+1, p.Name, fn.FullName(), p.TypeHint, v.Type())
	}
	return nil
}

// Print writes v to the request output.
func (e *Env) Print(v runtime.Value) {
	if e.Out != nil {
		_, _ = io.WriteString(e.Out, v.ToString())
	}
}

// Throw raises v, which must be an object. It consumes v.
func Throw(h *runtime.Heap, v runtime.Value) error {
	if v.Kind != types.KObj {
		h.DecRef(v)
		return runtime.NewError("can only throw objects")
	}
	return runtime.Thrown(v.O)
}

// ResolveCall resolves a call by name the way the call bytecode op
// does: FCallD prefers a user function and falls back to a builtin of
// the same name; FCallBuiltin prefers the builtin and falls back to a
// user function shadowing it. Exactly one of the three results is
// non-nil. On error the arguments are released.
func (e *Env) ResolveCall(op hhbc.Op, name string, args []runtime.Value) (*hhbc.Func, *runtime.Builtin, error) {
	if op == hhbc.OpFCallBuiltin {
		if b, ok := runtime.LookupBuiltin(name); ok {
			return nil, b, nil
		}
	}
	if f, ok := e.Unit.FuncByName(name); ok {
		return f, nil, nil
	}
	if op == hhbc.OpFCallD {
		if b, ok := runtime.LookupBuiltin(lowerName(name)); ok {
			return nil, b, nil
		}
	}
	e.release(args)
	kind := "function"
	if op == hhbc.OpFCallBuiltin {
		kind = "builtin"
	}
	return nil, nil, runtime.NewError("call to undefined %s %s()", kind, name)
}

// CallBuiltin checks b's arity, charges its cost to meter and runs it.
// It consumes the arguments.
func (e *Env) CallBuiltin(meter Meter, b *runtime.Builtin, args []runtime.Value) (runtime.Value, error) {
	if b.Arity >= 0 && len(args) != b.Arity {
		e.release(args)
		return runtime.Null(), runtime.NewError("%s() expects %d arguments, %d given",
			b.Name, b.Arity, len(args))
	}
	if meter != nil {
		meter.Charge(b.Cost)
	}
	ctx := &runtime.BuiltinCtx{Heap: e.Heap, Out: e.Out}
	ret, err := b.Fn(ctx, args)
	e.release(args)
	return ret, err
}

// ResolveMethod looks up method name on receiver ov (borrowed). A nil
// function with a nil error is the implicit default constructor, which
// returns null. Whenever no function is returned the arguments are
// released.
func (e *Env) ResolveMethod(ov runtime.Value, name string, args []runtime.Value) (*hhbc.Func, error) {
	if ov.Kind != types.KObj {
		e.release(args)
		return nil, runtime.NewError("method call on non-object (%s)", ov.Type())
	}
	lname := lowerName(name)
	if id, ok := ov.O.Class.LookupMethod(lname); ok {
		return e.Unit.Funcs[id], nil
	}
	e.release(args)
	if lname == "__construct" {
		return nil, nil
	}
	return nil, runtime.NewError("call to undefined method %s::%s()", ov.O.Class.Name, name)
}

func (e *Env) release(vs []runtime.Value) {
	for _, v := range vs {
		e.Heap.DecRef(v)
	}
}
