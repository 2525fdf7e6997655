package interp

import (
	"repro/internal/hhbc"
	"repro/internal/runtime"
)

// Frame is the VM activation record shared between the interpreter
// and JITed code: both read and write the same locals, so on-stack
// replacement in either direction only needs a bytecode PC and an
// evaluation-stack prefix.
type Frame struct {
	Fn     *hhbc.Func
	Locals []runtime.Value
	Stack  []runtime.Value
	This   *runtime.Object
	Iters  []*runtime.Iter
	PC     int

	// pendingExc carries the in-flight exception between unwinding
	// and the handler's Catch instruction.
	pendingExc *runtime.Object
}

// SetPendingExc injects an exception for a handler about to run (used
// by the JIT's side-exit-to-handler path).
func (fr *Frame) SetPendingExc(o *runtime.Object) { fr.pendingExc = o }

// NewFrame builds an activation for f, consuming the caller's
// references to args (extra args are released; missing ones get
// defaults or Null).
func NewFrame(e *Env, f *hhbc.Func, this *runtime.Object, args []runtime.Value) *Frame {
	fr := &Frame{Fn: f, Locals: make([]runtime.Value, f.NumLocals), This: this}
	for i := range fr.Locals {
		fr.Locals[i] = runtime.Uninit()
	}
	for i, a := range args {
		if i < len(f.Params) {
			fr.Locals[i] = a
		} else {
			e.Heap.DecRef(a)
		}
	}
	for i := len(args); i < len(f.Params); i++ {
		p := f.Params[i]
		if p.HasDefault {
			fr.Locals[i] = paramDefault(p)
		} else {
			fr.Locals[i] = runtime.Null()
		}
	}
	return fr
}

func paramDefault(p hhbc.Param) runtime.Value {
	return propDefault(hhbc.PropDef{
		DefaultKind: p.DefaultKind, DefaultInt: p.DefaultInt,
		DefaultDbl: p.DefaultDbl, DefaultStr: p.DefaultStr,
	})
}

// push / pop manage the evaluation stack.
func (fr *Frame) push(v runtime.Value) { fr.Stack = append(fr.Stack, v) }

func (fr *Frame) pop() runtime.Value {
	v := fr.Stack[len(fr.Stack)-1]
	fr.Stack = fr.Stack[:len(fr.Stack)-1]
	return v
}

// popN pops the top n values, preserving their stack order.
func (fr *Frame) popN(n int) []runtime.Value {
	vs := make([]runtime.Value, n)
	copy(vs, fr.Stack[len(fr.Stack)-n:])
	fr.Stack = fr.Stack[:len(fr.Stack)-n]
	return vs
}

func (fr *Frame) top() runtime.Value { return fr.Stack[len(fr.Stack)-1] }

// Release drops all frame-owned references (on return or unwind).
func (fr *Frame) Release(e *Env) {
	for _, v := range fr.Stack {
		e.Heap.DecRef(v)
	}
	fr.Stack = fr.Stack[:0]
	for _, v := range fr.Locals {
		e.Heap.DecRef(v)
	}
	for i := range fr.Locals {
		fr.Locals[i] = runtime.Uninit()
	}
	for _, it := range fr.Iters {
		if it != nil {
			e.Heap.DecRef(runtime.ArrV(it.Arr()))
		}
	}
	fr.Iters = nil
}

// clearStack releases just the evaluation stack (entering a catch
// handler).
func (fr *Frame) clearStack(e *Env) {
	for _, v := range fr.Stack {
		e.Heap.DecRef(v)
	}
	fr.Stack = fr.Stack[:0]
}

func (fr *Frame) iter(id int32) *runtime.Iter {
	if int(id) < len(fr.Iters) {
		return fr.Iters[id]
	}
	return nil
}

func (fr *Frame) setIter(id int32, it *runtime.Iter) {
	for int(id) >= len(fr.Iters) {
		fr.Iters = append(fr.Iters, nil)
	}
	fr.Iters[id] = it
}
