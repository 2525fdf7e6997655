// Package shapes implements typed object shapes: interned
// property-layout descriptors arranged in a transition tree (hidden
// classes in the V8/SpiderMonkey sense, extended with per-slot value
// kinds following "Extending Basic Block Versioning with Typed Object
// Shapes"). Every runtime object points at its current shape; writing
// a property either leaves the shape alone (same name, same kind),
// retypes a slot (same name, new kind), or appends a slot (new —
// possibly undeclared — property). Shapes are interned by layout, not
// by class: two classes whose flattened properties have identical
// names, order, and kinds share shape nodes, which is exactly what
// lets a shape guard succeed where a class guard is polymorphic.
//
// Concurrency: shape nodes are immutable after creation (slots and the
// name index never change), so the hot paths — slot lookup, kind
// check, cached-edge traversal — are lock-free. Creating a new
// transition takes the tree mutex and republishes the source node's
// edge map copy-on-write. IDs are dense, assigned in first-creation
// order, and therefore deterministic for deterministic programs; they
// are process-local and must never be persisted (profile snapshots
// exclude them).
package shapes

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// Slot describes one property slot: its name and the value kind last
// recorded for it on this shape.
type Slot struct {
	Name string
	Kind types.Kind
}

// edgeKey keys a transition out of a shape. If Name is already a slot
// of the source shape the edge is a retype (same layout, that slot's
// kind becomes Kind); otherwise it is an append (a new slot at the end
// of the layout).
type edgeKey struct {
	Name string
	Kind types.Kind
}

// Shape is one interned layout node. ID 0 is never assigned (it is
// the "no shape" sentinel in compiled guards).
type Shape struct {
	ID    uint32
	Slots []Slot // immutable

	tree   *Tree
	byName map[string]int // immutable name -> slot index

	// edges caches outgoing transitions, republished copy-on-write
	// under tree.mu and read lock-free on every shape-changing write.
	edges atomic.Pointer[map[edgeKey]*Shape]
}

// NumSlots returns the layout width.
func (s *Shape) NumSlots() int { return len(s.Slots) }

// Lookup resolves a property name to its slot index. Lock-free.
func (s *Shape) Lookup(name string) (int, bool) {
	i, ok := s.byName[name]
	return i, ok
}

// SlotKind returns the recorded kind of slot i.
func (s *Shape) SlotKind(i int) types.Kind { return s.Slots[i].Kind }

// Transition returns the shape reached by writing a value of kind k
// to property name: s itself when the slot already has that kind, the
// retyped sibling when the slot exists with a different kind, or the
// appended child when the name is new. The result is interned: two
// transition paths ending in the same layout yield the same node, so
// kind ping-pong (int/dbl alternation on one slot) bounces between two
// shapes instead of growing the tree.
func (s *Shape) Transition(name string, k types.Kind) *Shape {
	if i, ok := s.byName[name]; ok && s.Slots[i].Kind == k {
		return s
	}
	if e := s.edges.Load(); e != nil {
		if t, ok := (*e)[edgeKey{name, k}]; ok {
			return t
		}
	}
	return s.tree.transitionSlow(s, name, k)
}

// Tree is one process-wide shape universe (one per linked class
// table; worker environments share it).
type Tree struct {
	mu     sync.Mutex
	nextID uint32
	// interned maps a layout signature to its unique node.
	interned map[string]*Shape
	// byID indexes shapes by ID-1 (IDs are dense from 1); the compiler
	// resolves profiled shape IDs back to layouts through it.
	byID []*Shape
}

// NewTree creates an empty shape universe.
func NewTree() *Tree {
	return &Tree{nextID: 1, interned: map[string]*Shape{}}
}

// Count returns the number of interned shapes.
func (t *Tree) Count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.interned)
}

// Root interns the root shape for a declared property layout (names
// in slot order with their default-value kinds). Classes with
// identical flattened layouts receive the same root.
func (t *Tree) Root(slots []Slot) *Shape {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.internLocked(slots)
	return s
}

// transitionSlow interns the layout produced by applying (name, k) to
// src and caches the edge. Taken once per distinct transition; every
// later write follows the lock-free edge cache.
func (t *Tree) transitionSlow(src *Shape, name string, k types.Kind) *Shape {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Another writer may have published the edge while we waited.
	if e := src.edges.Load(); e != nil {
		if s, ok := (*e)[edgeKey{name, k}]; ok {
			return s
		}
	}
	var slots []Slot
	if i, ok := src.byName[name]; ok {
		slots = append(slots, src.Slots...)
		slots[i].Kind = k
	} else {
		slots = make([]Slot, 0, len(src.Slots)+1)
		slots = append(slots, src.Slots...)
		slots = append(slots, Slot{Name: name, Kind: k})
	}
	dst := t.internLocked(slots)
	// Republish the edge map copy-on-write.
	var next map[edgeKey]*Shape
	if e := src.edges.Load(); e != nil {
		next = make(map[edgeKey]*Shape, len(*e)+1)
		for ek, s := range *e {
			next[ek] = s
		}
	} else {
		next = make(map[edgeKey]*Shape, 1)
	}
	next[edgeKey{name, k}] = dst
	src.edges.Store(&next)
	return dst
}

func (t *Tree) internLocked(slots []Slot) *Shape {
	sig := signature(slots)
	if s, ok := t.interned[sig]; ok {
		return s
	}
	s := &Shape{
		ID:     t.nextID,
		Slots:  append([]Slot(nil), slots...),
		tree:   t,
		byName: make(map[string]int, len(slots)),
	}
	t.nextID++
	for i, sl := range s.Slots {
		s.byName[sl.Name] = i
	}
	t.interned[sig] = s
	t.byID = append(t.byID, s)
	return s
}

// ByID resolves a shape ID minted by this tree; nil for 0 or unknown
// IDs.
func (t *Tree) ByID(id uint32) *Shape {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 || int(id) > len(t.byID) {
		return nil
	}
	return t.byID[id-1]
}

// signature serializes a layout for interning. Order matters — a
// layout is the slot sequence, so {a,b} and {b,a} are distinct shapes.
func signature(slots []Slot) string {
	var sb strings.Builder
	for _, sl := range slots {
		sb.WriteString(sl.Name)
		sb.WriteByte(':')
		sb.WriteString(strconv.Itoa(int(sl.Kind)))
		sb.WriteByte(';')
	}
	return sb.String()
}

// Dump returns a deterministic description of every interned shape
// (sorted by ID) — the determinism tests compare two trees with it.
func (t *Tree) Dump() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.interned))
	shapes := make([]*Shape, 0, len(t.interned))
	for _, s := range t.interned {
		shapes = append(shapes, s)
	}
	sort.Slice(shapes, func(i, j int) bool { return shapes[i].ID < shapes[j].ID })
	for _, s := range shapes {
		out = append(out, strconv.Itoa(int(s.ID))+" "+signature(s.Slots))
	}
	return out
}
