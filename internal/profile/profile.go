// Package profile holds the data gathered by profiling translations:
// per-block execution counters, observed control-flow arcs, and
// call-target histograms. The profile-guided region selector and the
// optimizing JIT consume it; the jumpstart subsystem persists it
// across server restarts.
package profile

import (
	"sort"
	"sync"
	"sync/atomic"
)

// TransID identifies one profiling translation (a type-specialized
// basic block).
type TransID int

// The counter slab is a list of fixed-size chunks. Chunks never move
// once allocated, so Inc can run lock-free: it loads the chunk list
// pointer atomically and does an atomic add into the chunk. Only slab
// growth (NewCounter) takes the mutex; the chunk list is copied and
// republished there, never mutated in place.
const (
	chunkShift = 10
	chunkSize  = 1 << chunkShift
)

type chunk [chunkSize]uint64

// Counters is the instrumentation store. The profiling JIT increments
// a unique counter after each translation's type guards, so counter
// values double as both basic-block frequencies and input-type
// distributions (Section 4.1 of the paper). Inc is the hottest
// instrumentation path and is a single atomic add; everything else
// (arcs, histograms, call graph) is recorded at block boundaries and
// stays under the mutex.
type Counters struct {
	mu   sync.Mutex
	slab atomic.Pointer[[]*chunk]
	n    int // counters allocated (guarded by mu)

	// arcs records observed transfers between profiling translations.
	arcs map[Arc]uint64
	// succs is arcs' adjacency: each source's distinct targets in
	// first-recorded order, so ArcsWithin reads only the arcs leaving
	// the translations it is asked about.
	succs map[TransID][]TransID
	// callTargets histograms callee classes at method-call sites:
	// (funcID, bcPC) -> class name -> count.
	callTargets map[CallSite]map[string]uint64
	// funcCalls counts direct calls per callee funcID (for the
	// whole-program call graph used by function sorting).
	funcCalls map[CallArc]uint64
	// propShapes histograms the receiver's object shape at property
	// access sites: (funcID, bcPC) -> shape ID -> count. Shape IDs
	// are process-local (minted in first-touch order by this VM's
	// shape tree), so this table is deliberately excluded from
	// Data/Snapshot/Merge: it never rides jumpstart snapshots or
	// fleet aggregation. Warm-started hosts rebuild shape knowledge
	// through the self-filling inline caches instead.
	propShapes map[CallSite]map[uint32]uint64
}

// Arc is an observed control transfer between translations.
type Arc struct{ From, To TransID }

// CallSite locates a method-call bytecode.
type CallSite struct {
	FuncID int
	PC     int
}

// CallArc is a caller->callee edge in the dynamic call graph.
type CallArc struct{ Caller, Callee int }

// NewCounters returns an empty store.
func NewCounters() *Counters {
	c := &Counters{
		arcs:        map[Arc]uint64{},
		succs:       map[TransID][]TransID{},
		callTargets: map[CallSite]map[string]uint64{},
		funcCalls:   map[CallArc]uint64{},
		propShapes:  map[CallSite]map[uint32]uint64{},
	}
	empty := []*chunk{}
	c.slab.Store(&empty)
	return c
}

// NewCounter allocates a fresh counter and returns its ID.
func (c *Counters) NewCounter() TransID {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := TransID(c.n)
	need := (c.n >> chunkShift) + 1
	if cur := *c.slab.Load(); len(cur) < need {
		grown := make([]*chunk, need)
		copy(grown, cur)
		for i := len(cur); i < need; i++ {
			grown[i] = new(chunk)
		}
		c.slab.Store(&grown)
	}
	c.n++
	return id
}

// NumCounters returns how many counters have been allocated.
func (c *Counters) NumCounters() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Inc bumps a counter. Called from JITed profiling code on every
// translation entry, concurrently across warmup threads, so it must
// not contend on the mutex: one atomic add into the pre-sized slab.
func (c *Counters) Inc(id TransID) {
	slab := *c.slab.Load()
	atomic.AddUint64(&slab[id>>chunkShift][id&(chunkSize-1)], 1)
}

// Add bumps a counter by n (bulk restore path: jumpstart, merging).
// Counters beyond the allocated slab are allocated rather than
// silently dropped, so a bulk load whose ordering diverges from
// counter allocation cannot lose profile data.
func (c *Counters) Add(id TransID, n uint64) {
	if n == 0 || id < 0 {
		return
	}
	slab := *c.slab.Load()
	if int(id>>chunkShift) >= len(slab) {
		c.growTo(id)
		slab = *c.slab.Load()
	}
	atomic.AddUint64(&slab[id>>chunkShift][id&(chunkSize-1)], n)
}

// growTo extends the slab (and the allocated-counter count) to cover
// id, so Count/Snapshot see bulk-loaded counters too.
func (c *Counters) growTo(id TransID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if int(id) >= c.n {
		c.n = int(id) + 1
	}
	need := (int(id) >> chunkShift) + 1
	if cur := *c.slab.Load(); len(cur) < need {
		grown := make([]*chunk, need)
		copy(grown, cur)
		for i := len(cur); i < need; i++ {
			grown[i] = new(chunk)
		}
		c.slab.Store(&grown)
	}
}

// Count reads a counter.
func (c *Counters) Count(id TransID) uint64 {
	slab := *c.slab.Load()
	if id < 0 || int(id>>chunkShift) >= len(slab) {
		return 0
	}
	return atomic.LoadUint64(&slab[id>>chunkShift][id&(chunkSize-1)])
}

// RecordArc notes a from->to transfer between profiling translations.
func (c *Counters) RecordArc(from, to TransID) { c.AddArc(from, to, 1) }

// AddArc bumps an arc weight by n.
func (c *Counters) AddArc(from, to TransID, n uint64) {
	if n == 0 {
		return
	}
	c.mu.Lock()
	c.addArcLocked(Arc{from, to}, n)
	c.mu.Unlock()
}

// addArcLocked bumps arc a by n, recording a new arc in its source's
// successor list. Callers hold c.mu.
func (c *Counters) addArcLocked(a Arc, n uint64) {
	if _, ok := c.arcs[a]; !ok {
		c.succs[a.From] = append(c.succs[a.From], a.To)
	}
	c.arcs[a] += n
}

// ArcCount reads an arc weight.
func (c *Counters) ArcCount(from, to TransID) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.arcs[Arc{from, to}]
}

// ArcWeight is one arc with its recorded weight.
type ArcWeight struct {
	Arc
	Weight uint64
}

// ArcsWithin returns the arcs whose endpoints both lie in ids (one
// function's TransCFG edges), grouped by source in ids order. It walks
// the ids' own successor lists, so its cost follows the arcs leaving
// ids, not every arc the process has recorded.
func (c *Counters) ArcsWithin(ids []TransID) []ArcWeight {
	// unvisited[id] is true until id's successors have been read, so a
	// repeated id contributes its arcs once.
	unvisited := make(map[TransID]bool, len(ids))
	for _, id := range ids {
		unvisited[id] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []ArcWeight
	for _, from := range ids {
		if !unvisited[from] {
			continue
		}
		unvisited[from] = false
		for _, to := range c.succs[from] {
			if _, ok := unvisited[to]; ok {
				a := Arc{from, to}
				out = append(out, ArcWeight{a, c.arcs[a]})
			}
		}
	}
	return out
}

// RecordCallTarget histograms the receiver class at a method call.
func (c *Counters) RecordCallTarget(site CallSite, class string) {
	c.AddCallTarget(site, class, 1)
}

// AddCallTarget bumps a call-site histogram entry by n.
func (c *Counters) AddCallTarget(site CallSite, class string, n uint64) {
	if n == 0 {
		return
	}
	c.mu.Lock()
	m := c.callTargets[site]
	if m == nil {
		m = map[string]uint64{}
		c.callTargets[site] = m
	}
	m[class] += n
	c.mu.Unlock()
}

// TargetProfile summarizes a call site's receiver distribution.
type TargetProfile struct {
	Total uint64
	// Classes sorted by descending count.
	Classes []ClassCount
}

// ClassCount is one histogram entry.
type ClassCount struct {
	Class string
	Count uint64
}

// CallTargets returns the profile for a site (nil if never observed).
func (c *Counters) CallTargets(site CallSite) *TargetProfile {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.callTargets[site]
	if len(m) == 0 {
		return nil
	}
	tp := &TargetProfile{}
	for cls, n := range m {
		tp.Total += n
		tp.Classes = append(tp.Classes, ClassCount{cls, n})
	}
	sort.Slice(tp.Classes, func(i, j int) bool {
		if tp.Classes[i].Count != tp.Classes[j].Count {
			return tp.Classes[i].Count > tp.Classes[j].Count
		}
		return tp.Classes[i].Class < tp.Classes[j].Class
	})
	return tp
}

// RecordPropShape histograms the receiver shape at a property-access
// site (profiling translations call it; shape 0 = shapeless receiver
// and is recorded too, so the optimizer sees generic-only sites).
func (c *Counters) RecordPropShape(site CallSite, shapeID uint32) {
	c.mu.Lock()
	m := c.propShapes[site]
	if m == nil {
		m = map[uint32]uint64{}
		c.propShapes[site] = m
	}
	m[shapeID]++
	c.mu.Unlock()
}

// ShapeWarmMin is the minimum observation count before a shape
// profile supports monomorphic speculation. Profiling translations
// run only briefly before republish, so the bar is low: a handful of
// observations all agreeing on one shape is strong evidence.
const ShapeWarmMin = 4

// ShapeCount is one shape-histogram entry.
type ShapeCount struct {
	Shape uint32
	Count uint64
}

// ShapeProfile summarizes a property site's receiver-shape
// distribution.
type ShapeProfile struct {
	Total uint64
	// Shapes sorted by descending count (shape ID tiebreak).
	Shapes []ShapeCount
}

// PropShapes returns the shape profile for a site (nil if never
// observed).
func (c *Counters) PropShapes(site CallSite) *ShapeProfile {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.propShapes[site]
	if len(m) == 0 {
		return nil
	}
	sp := &ShapeProfile{}
	for id, n := range m {
		sp.Total += n
		sp.Shapes = append(sp.Shapes, ShapeCount{id, n})
	}
	sort.Slice(sp.Shapes, func(i, j int) bool {
		if sp.Shapes[i].Count != sp.Shapes[j].Count {
			return sp.Shapes[i].Count > sp.Shapes[j].Count
		}
		return sp.Shapes[i].Shape < sp.Shapes[j].Shape
	})
	return sp
}

// RecordCall notes a dynamic caller->callee call.
func (c *Counters) RecordCall(caller, callee int) { c.AddCall(caller, callee, 1) }

// AddCall bumps a call-graph edge by n.
func (c *Counters) AddCall(caller, callee int, n uint64) {
	if n == 0 {
		return
	}
	c.mu.Lock()
	c.funcCalls[CallArc{caller, callee}] += n
	c.mu.Unlock()
}

// CallGraph returns the weighted dynamic call graph.
func (c *Counters) CallGraph() map[CallArc]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[CallArc]uint64, len(c.funcCalls))
	for k, v := range c.funcCalls {
		out[k] = v
	}
	return out
}

// Data is a plain-value copy of a Counters store: the unit of profile
// persistence and fleet aggregation. TransIDs in Data refer to the
// translation space of the VM the snapshot was taken from; merging
// Data from different VMs by raw TransID is only meaningful when they
// minted translations identically (the jumpstart package merges by
// stable function identity instead).
type Data struct {
	Counts      []uint64
	Arcs        map[Arc]uint64
	CallTargets map[CallSite]map[string]uint64
	FuncCalls   map[CallArc]uint64
}

// Snapshot copies the full store. Counter reads are atomic, so a
// snapshot taken while profiling threads run is internally consistent
// per counter (no torn values), though counters keep moving.
func (c *Counters) Snapshot() *Data {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := &Data{
		Counts:      make([]uint64, c.n),
		Arcs:        make(map[Arc]uint64, len(c.arcs)),
		CallTargets: make(map[CallSite]map[string]uint64, len(c.callTargets)),
		FuncCalls:   make(map[CallArc]uint64, len(c.funcCalls)),
	}
	slab := *c.slab.Load()
	for i := 0; i < c.n; i++ {
		d.Counts[i] = atomic.LoadUint64(&slab[i>>chunkShift][i&(chunkSize-1)])
	}
	for a, n := range c.arcs {
		d.Arcs[a] = n
	}
	for site, m := range c.callTargets {
		cp := make(map[string]uint64, len(m))
		for cls, n := range m {
			cp[cls] = n
		}
		d.CallTargets[site] = cp
	}
	for a, n := range c.funcCalls {
		d.FuncCalls[a] = n
	}
	return d
}

// scaleCount applies a merge weight, rounding to nearest.
func scaleCount(v uint64, w float64) uint64 {
	if w == 1 {
		return v
	}
	if w <= 0 {
		return 0
	}
	return uint64(float64(v)*w + 0.5)
}

// Merge folds d into c with the given weight (1.0 = plain sum; <1
// decays the incoming profile, the aggregation rule for combining
// fleet snapshots of different ages). d's TransIDs must refer to c's
// translation space; counters beyond c's slab are allocated.
func (c *Counters) Merge(d *Data, weight float64) {
	for c.NumCounters() < len(d.Counts) {
		c.NewCounter()
	}
	for i, v := range d.Counts {
		c.Add(TransID(i), scaleCount(v, weight))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for a, n := range d.Arcs {
		if s := scaleCount(n, weight); s > 0 {
			c.addArcLocked(a, s)
		}
	}
	for site, m := range d.CallTargets {
		for cls, n := range m {
			s := scaleCount(n, weight)
			if s == 0 {
				continue
			}
			dst := c.callTargets[site]
			if dst == nil {
				dst = map[string]uint64{}
				c.callTargets[site] = dst
			}
			dst[cls] += s
		}
	}
	for a, n := range d.FuncCalls {
		if s := scaleCount(n, weight); s > 0 {
			c.funcCalls[a] += s
		}
	}
}
