package jit

import (
	"runtime"
	"testing"

	"repro/internal/hhbc"
	"repro/internal/interp"
	"repro/internal/machine"
	"repro/internal/mcode"
)

// installCost returns the allocations and bytes of one install into a
// JIT over a unit of nfuncs functions, after populated of them already
// hold four translations each. Every measured install lands in
// function 0 at a new PC, so the work per install is the same
// whatever populated is.
func installCost(t *testing.T, nfuncs, populated int) (allocs float64, bytes uint64) {
	t.Helper()
	env := &interp.Env{Unit: &hhbc.Unit{Funcs: make([]*hhbc.Func, nfuncs)}}
	j := New(Config{Mode: ModeRegion}, env, &machine.Meter{})
	install := func(tr *Translation) {
		j.mu.Lock()
		j.installLocked(tr)
		j.mu.Unlock()
	}
	for fn := 1; fn <= populated; fn++ {
		for pc := 0; pc < 4; pc++ {
			install(&Translation{FuncID: fn, PC: pc, Code: &mcode.Code{}})
		}
	}

	const runs = 16
	trs := make([]*Translation, 2*(runs+1))
	for i := range trs {
		trs[i] = &Translation{FuncID: 0, PC: i, Code: &mcode.Code{}}
	}
	next := 0
	allocs = testing.AllocsPerRun(runs, func() {
		install(trs[next])
		next++
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		install(trs[next])
		next++
	}
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestTransIndexInstallCostFlat: publishing one translation copies the
// top level and the one function table it lands in, never the rest of
// the index, so its cost does not grow with how many functions already
// have translations.
func TestTransIndexInstallCostFlat(t *testing.T) {
	const nfuncs = 2000
	emptyAllocs, emptyBytes := installCost(t, nfuncs, 0)
	fullAllocs, fullBytes := installCost(t, nfuncs, nfuncs-1)
	if fullAllocs > emptyAllocs {
		t.Errorf("allocs per install: %.1f with %d functions indexed, %.1f with none",
			fullAllocs, nfuncs-1, emptyAllocs)
	}
	// A little slack for runtime bookkeeping; copying the other
	// functions' 4 translations each would add tens of kilobytes.
	if fullBytes > emptyBytes+256 {
		t.Errorf("bytes per install: %d with %d functions indexed, %d with none",
			fullBytes, nfuncs-1, emptyBytes)
	}
}

// TestTransIndexEditCopiesTouchedTablesOnly: an edit shares every
// function table it does not write, and never writes through to the
// version it was started from.
func TestTransIndexEditCopiesTouchedTablesOnly(t *testing.T) {
	a := &Translation{FuncID: 1, PC: 3}
	b := &Translation{FuncID: 2, PC: 0}
	c := &Translation{FuncID: 1, PC: 7}
	e := make(transIndex, 3).edit()
	e.add(a)
	e.add(b)
	v1 := e.idx

	e2 := v1.edit()
	e2.add(c)
	e2.set(2, 0, nil)
	v2 := e2.idx

	if got := v1.get(1, 7); got != nil {
		t.Errorf("old version sees the new chain at (1, 7): %v", got)
	}
	if got := v1.get(2, 0); len(got) != 1 || got[0] != b {
		t.Errorf("old version lost (2, 0): %v", got)
	}
	if got := v2.get(1, 3); len(got) != 1 || got[0] != a {
		t.Errorf("new version lost (1, 3): %v", got)
	}
	if got := v2.get(2, 0); got != nil {
		t.Errorf("new version still has (2, 0): %v", got)
	}
	if v1[0] != nil || v2[0] != nil {
		t.Error("untouched function 0 gained a table")
	}
	if got := v2.get(5, 0); got != nil {
		t.Errorf("out-of-range function: %v", got)
	}
	var seen []*Translation
	v2.each(func(tr *Translation) { seen = append(seen, tr) })
	if len(seen) != 2 || seen[0] != a || seen[1] != c {
		t.Errorf("each = %v, want [a c] in (function, PC) order", seen)
	}
}
