package runtime

import (
	"strings"

	"repro/internal/types"
)

// This file implements the semantics of the arithmetic, comparison,
// and string operators. These are shared by the interpreter and by
// the JIT's out-of-line helpers (the JIT open-codes only the
// type-specialized fast paths).

// Add implements the guest + operator. Int+Int stays Int (this subset
// wraps rather than promoting on overflow); any Dbl operand promotes;
// Arr+Arr is PHP array union.
func Add(h *Heap, a, b Value) (Value, error) {
	switch {
	case a.Kind == types.KInt && b.Kind == types.KInt:
		return Int(a.I + b.I), nil
	case a.Kind == types.KArr && b.Kind == types.KArr:
		return arrayUnion(h, a.A, b.A), nil
	case a.Kind&types.KNum != 0 || b.Kind&types.KNum != 0,
		a.Kind&(types.KNull|types.KBool|types.KStr) != 0 &&
			b.Kind&(types.KNull|types.KBool|types.KStr|types.KNum|types.KUninit) != 0:
		if a.Kind == types.KDbl || b.Kind == types.KDbl {
			return Dbl(a.ToDbl() + b.ToDbl()), nil
		}
		return Int(a.ToInt() + b.ToInt()), nil
	default:
		return Null(), NewError("unsupported operand types for +")
	}
}

func arrayUnion(h *Heap, a, b *Array) Value {
	res := a.clone()
	b.Each(func(k, v Value) bool {
		if _, ok := res.Get(k); !ok {
			h.IncRef(v)
			res = res.Set(h, k, v)
		}
		return true
	})
	return ArrV(res)
}

// Sub, Mul implement - and *.
func Sub(a, b Value) (Value, error) {
	return arith(a, b, func(x, y int64) int64 { return x - y }, func(x, y float64) float64 { return x - y })
}
func Mul(a, b Value) (Value, error) {
	return arith(a, b, func(x, y int64) int64 { return x * y }, func(x, y float64) float64 { return x * y })
}

func arith(a, b Value, fi func(int64, int64) int64, fd func(float64, float64) float64) (Value, error) {
	if a.Kind == types.KInt && b.Kind == types.KInt {
		return Int(fi(a.I, b.I)), nil
	}
	if a.Kind&(types.KArr|types.KObj) != 0 || b.Kind&(types.KArr|types.KObj) != 0 {
		return Null(), NewError("unsupported operand types")
	}
	if a.Kind == types.KDbl || b.Kind == types.KDbl {
		return Dbl(fd(a.ToDbl(), b.ToDbl())), nil
	}
	return Int(fi(a.ToInt(), b.ToInt())), nil
}

// Div implements /. Integer division producing a remainder yields a
// double, as in PHP.
func Div(a, b Value) (Value, error) {
	if a.Kind&(types.KArr|types.KObj) != 0 || b.Kind&(types.KArr|types.KObj) != 0 {
		return Null(), NewError("unsupported operand types for /")
	}
	if a.Kind == types.KInt && b.Kind == types.KInt {
		if b.I == 0 {
			return Null(), NewError("division by zero")
		}
		if a.I%b.I == 0 {
			return Int(a.I / b.I), nil
		}
		return Dbl(float64(a.I) / float64(b.I)), nil
	}
	bd := b.ToDbl()
	if bd == 0 {
		return Null(), NewError("division by zero")
	}
	return Dbl(a.ToDbl() / bd), nil
}

// Mod implements %.
func Mod(a, b Value) (Value, error) {
	bi := b.ToInt()
	if bi == 0 {
		return Null(), NewError("modulo by zero")
	}
	return Int(a.ToInt() % bi), nil
}

// Concat implements the . operator, producing a fresh counted string.
func Concat(a, b Value) Value {
	return NewStr(a.ToString() + b.ToString())
}

// Cmp returns -1, 0, or 1 with PHP's loose comparison semantics
// (numeric strings compare numerically, etc. — simplified).
func Cmp(a, b Value) int {
	switch {
	case a.Kind == types.KStr && b.Kind == types.KStr:
		return strings.Compare(a.S.Data, b.S.Data)
	case a.Kind == types.KBool || b.Kind == types.KBool:
		return boolCmp(a.Bool(), b.Bool())
	case a.IsNull() && b.IsNull():
		return 0
	default:
		x, y := a.ToDbl(), b.ToDbl()
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		default:
			return 0
		}
	}
}

func boolCmp(a, b bool) int {
	switch {
	case a == b:
		return 0
	case a:
		return 1
	default:
		return -1
	}
}

// LooseEq implements ==.
func LooseEq(a, b Value) bool {
	if a.Kind == types.KArr && b.Kind == types.KArr {
		return arrayEq(a.A, b.A)
	}
	if a.Kind == types.KObj || b.Kind == types.KObj {
		return a.Kind == b.Kind && a.O == b.O
	}
	return Cmp(a, b) == 0
}

func arrayEq(a, b *Array) bool {
	if a.Len() != b.Len() {
		return false
	}
	eq := true
	a.Each(func(k, v Value) bool {
		bv, ok := b.Get(k)
		if !ok || !LooseEq(v, bv) {
			eq = false
			return false
		}
		return true
	})
	return eq
}

// StrictEq implements === (same type and value; same identity for
// objects; same order and strict-equal elements for arrays).
func StrictEq(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case types.KUninit, types.KNull:
		return true
	case types.KBool, types.KInt:
		return a.I == b.I
	case types.KDbl:
		return a.D == b.D
	case types.KStr:
		return a.S.Data == b.S.Data
	case types.KObj:
		return a.O == b.O
	case types.KArr:
		return arraySame(a.A, b.A)
	}
	return false
}

func arraySame(a, b *Array) bool {
	if a.Len() != b.Len() {
		return false
	}
	type kv struct{ k, v Value }
	var as, bs []kv
	a.Each(func(k, v Value) bool { as = append(as, kv{k, v}); return true })
	b.Each(func(k, v Value) bool { bs = append(bs, kv{k, v}); return true })
	for i := range as {
		if !StrictEq(as[i].k, bs[i].k) || !StrictEq(as[i].v, bs[i].v) {
			return false
		}
	}
	return true
}
