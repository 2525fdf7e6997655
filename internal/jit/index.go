package jit

// transIndex is the RCU-published translation index (DESIGN.md §9),
// two levels deep: the top level is indexed by function ID, and each
// function's table is indexed by bytecode PC and holds that address's
// retranslation chain in guard-check order. Both levels and every
// chain are immutable once published. A writer copies the top level
// (one pointer per function) and only the function tables it changes,
// then swaps the new top level in with one atomic store; lock-free
// readers keep walking whatever version they loaded.
type transIndex []*funcTrans

// funcTrans is one function's PC -> chain table.
type funcTrans struct {
	chains [][]*Translation
}

// get returns the chain published at (fn, pc), or nil.
func (x transIndex) get(fn, pc int) []*Translation {
	if uint(fn) >= uint(len(x)) {
		return nil
	}
	t := x[fn]
	if t == nil || uint(pc) >= uint(len(t.chains)) {
		return nil
	}
	return t.chains[pc]
}

// each visits every published translation in (function, PC, chain)
// order.
func (x transIndex) each(f func(tr *Translation)) {
	for _, t := range x {
		if t == nil {
			continue
		}
		for _, chain := range t.chains {
			for _, tr := range chain {
				f(tr)
			}
		}
	}
}

// indexEdit builds the next index version from a published one. The
// top level is copied up front; a function table is copied the first
// time the edit touches it, so a publish costs O(functions + touched
// tables), not O(translations).
type indexEdit struct {
	idx    transIndex
	copied []bool
}

// edit starts the next version of x.
func (x transIndex) edit() *indexEdit {
	e := &indexEdit{idx: make(transIndex, len(x)), copied: make([]bool, len(x))}
	copy(e.idx, x)
	return e
}

// set replaces the chain at (fn, pc); chain must be a fresh slice the
// published index does not share.
func (e *indexEdit) set(fn, pc int, chain []*Translation) {
	for fn >= len(e.idx) {
		e.idx = append(e.idx, nil)
		e.copied = append(e.copied, false)
	}
	t := e.idx[fn]
	if !e.copied[fn] {
		n := pc + 1
		var old [][]*Translation
		if t != nil {
			old = t.chains
			if len(old) > n {
				n = len(old)
			}
		}
		t = &funcTrans{chains: make([][]*Translation, n)}
		copy(t.chains, old)
		e.idx[fn] = t
		e.copied[fn] = true
	} else if pc >= len(t.chains) {
		t.chains = append(t.chains, make([][]*Translation, pc+1-len(t.chains))...)
	}
	t.chains[pc] = chain
}

// add appends tr to the chain at its address.
func (e *indexEdit) add(tr *Translation) {
	old := e.idx.get(tr.FuncID, tr.PC)
	chain := make([]*Translation, len(old), len(old)+1)
	copy(chain, old)
	e.set(tr.FuncID, tr.PC, append(chain, tr))
}

// index returns the translation index readers currently see.
func (j *JIT) index() transIndex { return *j.trans.Load() }

// publishLocked makes e's version the published index. Callers hold
// j.mu.
func (j *JIT) publishLocked(e *indexEdit) transIndex {
	idx := e.idx
	j.trans.Store(&idx)
	return idx
}
