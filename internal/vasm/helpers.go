package vasm

// HelperID names the out-of-line runtime helpers callable via the
// Helper instruction. The machine model implements them natively
// (HHVM's C++ helpers) and charges each a fixed cycle cost.
type HelperID int

const (
	HNone HelperID = iota
	HConcat
	HBinop // extra = hhbc.Op
	HEqAny // extra = 1 to negate
	HSameAny
	HDivNum
	HModInt
	HToStr
	HCmpStr // extra = cond
	HNewArr
	HNewPacked
	HAddElem
	HAddNewElem
	HArrGetGeneric // Str = local name ("" for a stack operand)
	HArrGetPackedMiss
	HArrSetLocal    // extra = local slot
	HArrAppendLocal // extra = local slot
	HArrUnsetLocal  // extra = local slot
	HAKExistsLocal  // extra = local slot
	HIterInit       // extra = iter<<8 | slot; D = bool (has elements)
	HIterNext       // extra = iter; D = bool (still valid)
	HIterKey        // extra = iter
	HIterValue      // extra = iter
	HIterFree       // extra = iter
	HNewObj         // Str = class
	HLdPropGeneric  // Str = prop
	HStPropGeneric  // Str = prop
	HInstanceOf     // Str = class
	HVerifyParam    // extra = packed (func id, param index, slot)
	HPrint
	HThrow
	HConvToBoolGeneric
	HConvToIntGeneric
	HConvToDblGeneric

	HelperCount
)

var helperNames = map[HelperID]string{
	HConcat: "concat", HBinop: "binop", HEqAny: "eq_any", HSameAny: "same_any",
	HDivNum: "div_num", HModInt: "mod_int", HToStr: "to_str", HCmpStr: "cmp_str",
	HNewArr: "new_arr", HNewPacked: "new_packed", HAddElem: "add_elem",
	HAddNewElem: "add_new_elem", HArrGetGeneric: "arr_get",
	HArrGetPackedMiss: "arr_get_packed_miss",
	HArrSetLocal:      "arr_set_local", HArrAppendLocal: "arr_append_local",
	HArrUnsetLocal: "arr_unset_local", HAKExistsLocal: "ak_exists_local",
	HIterInit: "iter_init", HIterNext: "iter_next", HIterKey: "iter_key",
	HIterValue: "iter_value", HIterFree: "iter_free",
	HNewObj: "new_obj", HLdPropGeneric: "ld_prop", HStPropGeneric: "st_prop",
	HInstanceOf: "instanceof", HVerifyParam: "verify_param",
	HPrint: "print", HThrow: "throw",
	HConvToBoolGeneric: "to_bool_g", HConvToIntGeneric: "to_int_g",
	HConvToDblGeneric: "to_dbl_g",
}

func (h HelperID) String() string {
	if s, ok := helperNames[h]; ok {
		return s
	}
	return "helper?"
}

// PackHelper encodes a helper id and extra immediate into I64.
func PackHelper(h HelperID, extra int64) int64 { return int64(h) | extra<<16 }

// UnpackHelper decodes I64.
func UnpackHelper(v int64) (HelperID, int64) { return HelperID(v & 0xffff), v >> 16 }

// PackIterSlot encodes HIterInit's (iterator id, local slot) extra.
func PackIterSlot(iter, slot int32) int64 { return int64(iter) | int64(slot)<<20 }

// UnpackIterSlot decodes it.
func UnpackIterSlot(extra int64) (iter, slot int32) {
	return int32(extra & 0xfffff), int32(extra >> 20)
}
