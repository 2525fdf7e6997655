package vasm

import "math/bits"

// Allocate performs linear-scan register allocation in the style of
// Wimmer & Franz (SSA-based linear scan): live intervals over a
// linearized block order, NumPhysRegs physical cell registers, and
// spill slots for the overflow. Spilled virtual registers get a
// Reload before each use and a Spill after each definition. Every
// per-vreg table is a dense array indexed by vreg number, sized by
// u.NumVRegs (Lower sets it above every register it hands out).
func Allocate(u *Unit) {
	lin := linearize(u)
	starts, ends := liveIntervals(u, lin)

	// Intervals in (start, vreg) order: a counting sort on the start
	// position, filled in ascending vreg order.
	first := make([]int, len(lin)+1)
	for _, s := range starts {
		if s >= 0 {
			first[s+1]++
		}
	}
	for i := 1; i < len(first); i++ {
		first[i] += first[i-1]
	}
	order := make([]Reg, first[len(lin)])
	for r, s := range starts {
		if s >= 0 {
			order[first[s]] = Reg(r)
			first[s]++
		}
	}

	phys := make([]Reg, len(starts))  // vreg -> physical, InvalidReg if none
	spill := make([]int, len(starts)) // vreg -> spill slot, -1 if none
	for r := range phys {
		phys[r] = InvalidReg
		spill[r] = -1
	}
	type active struct {
		vreg Reg
		end  int
		p    Reg
	}
	var act []active
	freeRegs := make([]Reg, 0, NumPhysRegs)
	for i := NumPhysRegs - 1; i >= 0; i-- {
		freeRegs = append(freeRegs, Reg(i))
	}
	nextSpill := 0

	for _, vreg := range order {
		start, end := starts[vreg], ends[vreg]
		// Expire old intervals.
		na := act[:0]
		for _, a := range act {
			if a.end < start {
				freeRegs = append(freeRegs, a.p)
			} else {
				na = append(na, a)
			}
		}
		act = na
		if len(freeRegs) > 0 {
			p := freeRegs[len(freeRegs)-1]
			freeRegs = freeRegs[:len(freeRegs)-1]
			phys[vreg] = p
			act = append(act, active{vreg, end, p})
			continue
		}
		// Spill the interval ending furthest away.
		furthest := -1
		for i, a := range act {
			if furthest < 0 || a.end > act[furthest].end {
				furthest = i
			}
		}
		if act[furthest].end > end {
			victim := act[furthest]
			spill[victim.vreg] = nextSpill
			nextSpill++
			phys[victim.vreg] = InvalidReg
			phys[vreg] = victim.p
			act[furthest] = active{vreg, end, victim.p}
		} else {
			spill[vreg] = nextSpill
			nextSpill++
		}
	}

	// Rewrite instructions: spilled registers borrow a reserved
	// scratch physical register via Reload/Spill around each
	// use/definition. Two scratch registers cover binary ops.
	rewrite(u, phys, spill)
	u.NumSpills = nextSpill
}

type instrRef struct{ block, idx int }

// linearize returns instruction references in layout (or natural)
// block order.
func linearize(u *Unit) []instrRef {
	order := u.Layout
	if order == nil {
		order = make([]int, len(u.Blocks))
		for i := range order {
			order[i] = i
		}
	}
	var out []instrRef
	for _, bi := range order {
		for i := range u.Blocks[bi].Instrs {
			out = append(out, instrRef{bi, i})
		}
	}
	return out
}

// forEachUse calls f for every register the instruction reads,
// including InvalidReg entries of its argument and exit-stack lists.
func forEachUse(in *Instr, f func(Reg)) {
	if in.A != InvalidReg {
		f(in.A)
	}
	if in.B != InvalidReg {
		f(in.B)
	}
	for _, r := range in.Args {
		f(r)
	}
	if in.Ex != nil {
		for _, r := range in.Ex.StackRegs {
			f(r)
		}
		for ii := in.Ex.Inline; ii != nil; ii = ii.Parent {
			if ii.ThisReg != InvalidReg {
				f(ii.ThisReg)
			}
			for _, r := range ii.CallerStackRegs {
				f(r)
			}
		}
	}
}

// liveIntervals computes [start, end] per virtual register using a
// backward liveness dataflow over the block graph, then widening each
// register's interval to cover every linear position where it is
// live — the interval construction of Wimmer-Franz linear scan. Both
// results are indexed by vreg; starts[r] is -1 for a register that
// never occurs.
//
// Only upward-exposed vregs (read in some block before any write in
// that block) can be live across a block boundary, so only they get a
// bit in the dataflow's word bitsets; vregs local to one block never
// enter it, which keeps the bitsets (blocks x exposed vregs) small.
func liveIntervals(u *Unit, lin []instrRef) (starts, ends []int) {
	n, nb := u.NumVRegs, len(u.Blocks)

	// Successor map (all jump targets, including guard edges).
	succs := make([][]int, nb)
	for bi, b := range u.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case Jmp, GuardKind, GuardCls, GuardShape:
				if in.Target1 >= 0 {
					succs[bi] = append(succs[bi], in.Target1)
				}
			case Jcc:
				succs[bi] = append(succs[bi], in.Target1, in.Target2)
			case JmpTable:
				tbl := u.Tables[in.I64]
				succs[bi] = append(succs[bi], tbl.Targets...)
				succs[bi] = append(succs[bi], tbl.Default)
			case ArrGetPkI, Helper, CallFunc, CallMethodD, CallMethodC, CallBuiltin,
				LdPropIC, StPropIC:
				if in.Target1 >= 0 {
					succs[bi] = append(succs[bi], in.Target1)
				}
			}
		}
	}

	// Upward-exposed uses per block (gen), walking forward: a read is
	// exposed unless the block wrote the register earlier. Each
	// exposed vreg is numbered on first sight. defIn/genIn hold bi+1
	// for the block that last wrote / exposed the register.
	bitOf := make([]int32, n)
	defIn := make([]int32, n)
	genIn := make([]int32, n)
	for r := range bitOf {
		bitOf[r] = -1
	}
	var bitReg []Reg    // bit -> vreg
	var genBits []int32 // every block's exposed bits, block by block
	genEnd := make([]int, nb)
	for bi, b := range u.Blocks {
		mark := int32(bi + 1)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			forEachUse(in, func(r Reg) {
				if r < 0 || defIn[r] == mark || genIn[r] == mark {
					return
				}
				genIn[r] = mark
				if bitOf[r] < 0 {
					bitOf[r] = int32(len(bitReg))
					bitReg = append(bitReg, r)
				}
				genBits = append(genBits, bitOf[r])
			})
			if in.D >= 0 {
				defIn[in.D] = mark
			}
		}
		genEnd[bi] = len(genBits)
	}

	// gen / kill / live-in / live-out as word bitsets, w words per
	// block. kill only needs the exposed vregs' bits.
	w := (len(bitReg) + 63) / 64
	gen := make([]uint64, nb*w)
	kill := make([]uint64, nb*w)
	liveIn := make([]uint64, nb*w)
	liveOut := make([]uint64, nb*w)
	if w > 0 {
		lo := 0
		for bi, b := range u.Blocks {
			for _, bit := range genBits[lo:genEnd[bi]] {
				gen[bi*w+int(bit>>6)] |= 1 << (bit & 63)
			}
			lo = genEnd[bi]
			for i := range b.Instrs {
				if d := b.Instrs[i].D; d >= 0 {
					if bit := bitOf[d]; bit >= 0 {
						kill[bi*w+int(bit>>6)] |= 1 << (bit & 63)
					}
				}
			}
		}

		// Backward dataflow to a fixpoint.
		changed := true
		for changed {
			changed = false
			for bi := nb - 1; bi >= 0; bi-- {
				out := liveOut[bi*w : (bi+1)*w]
				for _, s := range succs[bi] {
					if s < 0 || s >= nb {
						continue
					}
					sin := liveIn[s*w : (s+1)*w]
					for k, v := range sin {
						if nv := out[k] | v; nv != out[k] {
							out[k] = nv
							changed = true
						}
					}
				}
				in := liveIn[bi*w : (bi+1)*w]
				g, kl := gen[bi*w:(bi+1)*w], kill[bi*w:(bi+1)*w]
				for k := range in {
					if nv := in[k] | g[k] | out[k]&^kl[k]; nv != in[k] {
						in[k] = nv
						changed = true
					}
				}
			}
		}
	}

	// Build intervals over linear positions.
	starts = make([]int, n)
	ends = make([]int, n)
	for r := range starts {
		starts[r] = -1
	}
	touch := func(r Reg, pos int) {
		if r < 0 {
			return
		}
		if s := starts[r]; s < 0 || pos < s {
			starts[r] = pos
		}
		if pos > ends[r] {
			ends[r] = pos
		}
	}
	blockFirst := make([]int, nb)
	blockLast := make([]int, nb)
	for bi := range blockFirst {
		blockFirst[bi] = -1
	}
	for pos, ref := range lin {
		if blockFirst[ref.block] < 0 {
			blockFirst[ref.block] = pos
		}
		blockLast[ref.block] = pos
		in := &u.Blocks[ref.block].Instrs[ref.idx]
		forEachUse(in, func(r Reg) { touch(r, pos) })
		touch(in.D, pos)
	}
	touchSet := func(set []uint64, pos int) {
		for k, word := range set {
			for word != 0 {
				t := bits.TrailingZeros64(word)
				word &= word - 1
				touch(bitReg[k<<6+t], pos)
			}
		}
	}
	for bi := range u.Blocks {
		if bf := blockFirst[bi]; bf >= 0 {
			touchSet(liveIn[bi*w:(bi+1)*w], bf)
			touchSet(liveOut[bi*w:(bi+1)*w], blockLast[bi])
		}
	}
	return starts, ends
}

// Reserved scratch physical registers for spilled operands.
const (
	scratch0 = Reg(NumPhysRegs)
	scratch1 = Reg(NumPhysRegs + 1)
	scratch2 = Reg(NumPhysRegs + 2)
)

// TotalMachineRegs is the machine register file size (allocatable +
// scratch).
const TotalMachineRegs = NumPhysRegs + 3

// rewrite maps every register operand onto its allocation: phys and
// spill are indexed by vreg (InvalidReg / -1 when unassigned).
func rewrite(u *Unit, phys []Reg, spill []int) {
	physOf := func(r Reg) (Reg, bool) {
		if r < 0 || int(r) >= len(phys) || phys[r] == InvalidReg {
			return 0, false
		}
		return phys[r], true
	}
	slotOf := func(r Reg) (int, bool) {
		if r < 0 || int(r) >= len(spill) || spill[r] < 0 {
			return 0, false
		}
		return spill[r], true
	}
	mapUse := func(r Reg, scratch Reg, pre *[]Instr) Reg {
		if r == InvalidReg {
			return r
		}
		if p, ok := physOf(r); ok {
			return p
		}
		slot, ok := slotOf(r)
		if !ok {
			return 0 // defined but never allocated (unused): park in r0
		}
		in := nzInstr(Reload)
		in.D = scratch
		in.I64 = int64(slot)
		*pre = append(*pre, in)
		return scratch
	}
	mapDef := func(r Reg, scratch Reg, post *[]Instr) Reg {
		if r == InvalidReg {
			return r
		}
		if p, ok := physOf(r); ok {
			return p
		}
		slot, ok := slotOf(r)
		if !ok {
			return 0
		}
		in := nzInstr(Spill)
		in.A = scratch
		in.I64 = int64(slot)
		*post = append(*post, in)
		return scratch
	}

	for _, b := range u.Blocks {
		// Reloads go straight into out ahead of their instruction.
		out := make([]Instr, 0, len(b.Instrs))
		for i := range b.Instrs {
			in := b.Instrs[i]
			var post []Instr
			in.A = mapUse(in.A, scratch0, &out)
			in.B = mapUse(in.B, scratch1, &out)
			for ai := range in.Args {
				// Args beyond two scratches spill through scratch2
				// sequentially; the machine consumes args before any
				// further reloads, so sequential reuse is safe only
				// for the materialization order. Use dedicated moves:
				// args are copied into an argument area by the
				// machine, so reload directly into scratch2 and copy.
				r := in.Args[ai]
				if r == InvalidReg {
					continue
				}
				if p, ok := physOf(r); ok {
					in.Args[ai] = p
					continue
				}
				slot, ok := slotOf(r)
				if !ok {
					in.Args[ai] = 0
					continue
				}
				// Reload into scratch2 then stash via a Copy into a
				// fresh spill-backed "argument pseudo register": to
				// keep the model simple the machine reads call args
				// AFTER all reloads, so multiple spilled args would
				// collide on scratch2. Instead, pass the spill slot
				// through the high bits: the machine decodes arg regs
				// >= spillRegBase as spill-slot reads.
				in.Args[ai] = SpillRegBase + Reg(slot)
				_ = scratch2
			}
			if in.Ex != nil {
				ex := *in.Ex
				ex.StackRegs = append([]Reg(nil), in.Ex.StackRegs...)
				for si, r := range ex.StackRegs {
					if p, ok := physOf(r); ok {
						ex.StackRegs[si] = p
					} else if slot, ok := slotOf(r); ok {
						ex.StackRegs[si] = SpillRegBase + Reg(slot)
					} else {
						ex.StackRegs[si] = 0
					}
				}
				remap := func(r Reg) Reg {
					if r == InvalidReg {
						return r
					}
					if p, ok := physOf(r); ok {
						return p
					}
					if slot, ok := slotOf(r); ok {
						return SpillRegBase + Reg(slot)
					}
					return 0
				}
				var remapInline func(ii *InlineInfo) *InlineInfo
				remapInline = func(ii *InlineInfo) *InlineInfo {
					if ii == nil {
						return nil
					}
					ni := *ii
					ni.CallerStackRegs = append([]Reg(nil), ii.CallerStackRegs...)
					ni.ThisReg = remap(ni.ThisReg)
					for si, r := range ni.CallerStackRegs {
						ni.CallerStackRegs[si] = remap(r)
					}
					ni.Parent = remapInline(ii.Parent)
					return &ni
				}
				ex.Inline = remapInline(in.Ex.Inline)
				in.Ex = &ex
			}
			in.D = mapDef(in.D, scratch0, &post)
			out = append(out, in)
			out = append(out, post...)
		}
		b.Instrs = out
	}
}

// SpillRegBase: register numbers at or above this value denote spill
// slots in call-argument and exit-stack lists (the machine reads them
// from the spill area).
const SpillRegBase = Reg(1 << 16)
