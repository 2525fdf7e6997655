package profile_test

import (
	"sync"
	"testing"

	"repro/internal/profile"
)

func TestCountersAndArcs(t *testing.T) {
	c := profile.NewCounters()
	a := c.NewCounter()
	b := c.NewCounter()
	for i := 0; i < 5; i++ {
		c.Inc(a)
	}
	c.Inc(b)
	if c.Count(a) != 5 || c.Count(b) != 1 {
		t.Errorf("counts: %d %d", c.Count(a), c.Count(b))
	}
	c.RecordArc(a, b)
	c.RecordArc(a, b)
	if c.ArcCount(a, b) != 2 {
		t.Errorf("arc count = %d", c.ArcCount(a, b))
	}
	// ArcsWithin keeps only arcs with both endpoints in the set.
	if arcs := c.ArcsWithin([]profile.TransID{a}); len(arcs) != 0 {
		t.Errorf("ArcsWithin({a}) = %v, want none (b is outside the set)", arcs)
	}
	want := profile.ArcWeight{Arc: profile.Arc{From: a, To: b}, Weight: 2}
	if arcs := c.ArcsWithin([]profile.TransID{b, a}); len(arcs) != 1 || arcs[0] != want {
		t.Errorf("ArcsWithin({b, a}) = %v, want [%v]", arcs, want)
	}
}

// TestArcsWithinAfterMerge: arcs that arrive by Merge — new ones and
// ones already recorded — are reachable through ArcsWithin with their
// summed weights, and a repeated id reports its arcs once.
func TestArcsWithinAfterMerge(t *testing.T) {
	c := profile.NewCounters()
	a, b, x := c.NewCounter(), c.NewCounter(), c.NewCounter()
	c.RecordArc(a, b)
	c.Merge(&profile.Data{Arcs: map[profile.Arc]uint64{
		{From: a, To: b}: 3, // already recorded: weights add
		{From: b, To: a}: 4, // new arc
		{From: a, To: x}: 5, // leaves the set queried below
	}}, 1)

	got := map[profile.Arc]uint64{}
	arcs := c.ArcsWithin([]profile.TransID{a, b, a})
	for _, aw := range arcs {
		got[aw.Arc] = aw.Weight
	}
	if len(arcs) != 2 || got[profile.Arc{From: a, To: b}] != 4 || got[profile.Arc{From: b, To: a}] != 4 {
		t.Errorf("ArcsWithin({a, b, a}) after merge = %v", arcs)
	}
	if arcs := c.ArcsWithin([]profile.TransID{a, x}); len(arcs) != 1 || arcs[0].Weight != 5 {
		t.Errorf("ArcsWithin({a, x}) after merge = %v", arcs)
	}

	// A fresh store rebuilt purely from a snapshot sees the same arcs.
	fresh := profile.NewCounters()
	fresh.Merge(c.Snapshot(), 1)
	if arcs := fresh.ArcsWithin([]profile.TransID{a, b}); len(arcs) != 2 {
		t.Errorf("merged-only store: ArcsWithin({a, b}) = %v", arcs)
	}
}

func TestCallTargetHistogram(t *testing.T) {
	c := profile.NewCounters()
	site := profile.CallSite{FuncID: 3, PC: 17}
	for i := 0; i < 9; i++ {
		c.RecordCallTarget(site, "Hot")
	}
	c.RecordCallTarget(site, "Cold")
	tp := c.CallTargets(site)
	if tp == nil || tp.Total != 10 {
		t.Fatalf("profile = %+v", tp)
	}
	if tp.Classes[0].Class != "Hot" || tp.Classes[0].Count != 9 {
		t.Errorf("dominant class wrong: %+v", tp.Classes)
	}
	if c.CallTargets(profile.CallSite{FuncID: 9, PC: 9}) != nil {
		t.Error("unknown site should have nil profile")
	}
}

func TestCallGraph(t *testing.T) {
	c := profile.NewCounters()
	c.RecordCall(1, 2)
	c.RecordCall(1, 2)
	c.RecordCall(2, 3)
	g := c.CallGraph()
	if g[profile.CallArc{Caller: 1, Callee: 2}] != 2 {
		t.Errorf("call graph: %v", g)
	}
	if len(g) != 2 {
		t.Errorf("graph size = %d", len(g))
	}
}

// TestConcurrentIncAndGrowth hammers Inc from many goroutines while
// the slab keeps growing; run under -race this checks that the
// lock-free increment path never races with slab growth or snapshots.
func TestConcurrentIncAndGrowth(t *testing.T) {
	c := profile.NewCounters()
	const workers = 8
	const perWorker = 5000
	ids := make([]profile.TransID, workers)
	for i := range ids {
		ids[i] = c.NewCounter()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id profile.TransID) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc(id)
			}
		}(ids[w])
	}
	// Concurrent growth and snapshots.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3000; i++ {
			c.NewCounter()
			if i%500 == 0 {
				c.Snapshot()
			}
		}
	}()
	wg.Wait()
	for _, id := range ids {
		if got := c.Count(id); got != perWorker {
			t.Errorf("counter %d = %d, want %d", id, got, perWorker)
		}
	}
}

// TestAddGrowsSlab is the regression test for the bulk-restore path:
// Add to a counter id beyond the allocated slab must grow the slab
// and record the value, not silently drop it. (Jumpstart restores
// counters in snapshot order, which can run ahead of NewCounter
// allocation on the restoring side.)
func TestAddGrowsSlab(t *testing.T) {
	c := profile.NewCounters()
	const far = profile.TransID(5000) // well past any allocated chunk
	c.Add(far, 7)
	if got := c.Count(far); got != 7 {
		t.Errorf("Count(%d) = %d, want 7 — Add dropped an out-of-slab counter", far, got)
	}
	if n := c.NumCounters(); n < int(far)+1 {
		t.Errorf("NumCounters = %d, want >= %d after growth", n, far+1)
	}
	d := c.Snapshot()
	if d.Counts[far] != 7 {
		t.Errorf("snapshot missing grown counter: %v", d.Counts[far])
	}
	// Existing counters still work after growth.
	a := c.NewCounter()
	c.Inc(a)
	if c.Count(a) != 1 {
		t.Errorf("post-growth counter = %d, want 1", c.Count(a))
	}
	// Negative and zero adds are ignored, not panics.
	c.Add(-1, 5)
	c.Add(far, 0)
	if got := c.Count(far); got != 7 {
		t.Errorf("zero add changed counter: %d", got)
	}
}

func TestSnapshotMergeWeighted(t *testing.T) {
	a := profile.NewCounters()
	i0 := a.NewCounter()
	i1 := a.NewCounter()
	for i := 0; i < 10; i++ {
		a.Inc(i0)
	}
	a.Inc(i1)
	a.RecordArc(i0, i1)
	a.RecordCallTarget(profile.CallSite{FuncID: 1, PC: 2}, "C")
	a.RecordCall(1, 2)

	d := a.Snapshot()
	// The snapshot is a copy: further increments don't affect it.
	a.Inc(i0)
	if d.Counts[i0] != 10 {
		t.Fatalf("snapshot count = %d, want 10", d.Counts[i0])
	}

	b := profile.NewCounters()
	b.Merge(d, 0.5)
	if got := b.Count(i0); got != 5 {
		t.Errorf("merged count = %d, want 5", got)
	}
	if got := b.ArcCount(i0, i1); got != 1 {
		t.Errorf("merged arc = %d, want 1 (0.5 rounds up)", got)
	}
	tp := b.CallTargets(profile.CallSite{FuncID: 1, PC: 2})
	if tp == nil || tp.Total != 1 {
		t.Errorf("merged call targets = %+v", tp)
	}
	if g := b.CallGraph(); g[profile.CallArc{Caller: 1, Callee: 2}] != 1 {
		t.Errorf("merged call graph = %v", g)
	}

	// Merging twice at weight 1 doubles.
	b.Merge(d, 1)
	if got := b.Count(i0); got != 15 {
		t.Errorf("second merge count = %d, want 15", got)
	}
}
