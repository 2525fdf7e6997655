package region

import (
	"sort"

	"repro/internal/profile"
)

// TransCFG is the control-flow graph over a function's profiling
// translations (Section 5.2.1). Nodes are profiling blocks; a single
// bytecode address can have several nodes for different input-type
// combinations.
type TransCFG struct {
	Nodes   []*Block
	IDs     []profile.TransID
	Weights []uint64
	// Succ[i] lists node indices reachable from node i, with arc
	// weights (observed during profiling, estimated when missing).
	Succ map[int][]WeightedArc
}

// WeightedArc is one TransCFG edge.
type WeightedArc struct {
	To     int
	Weight uint64
}

// BuildTransCFG assembles the CFG for one function from its profiling
// blocks and the counter store.
func BuildTransCFG(blocks []*Block, ids []profile.TransID, counters *profile.Counters) *TransCFG {
	g := &TransCFG{Nodes: blocks, IDs: ids, Succ: map[int][]WeightedArc{}}
	idx := map[profile.TransID]int{}
	for i, id := range ids {
		idx[id] = i
		g.Weights = append(g.Weights, counters.Count(id))
	}
	// Observed arcs first.
	haveArc := map[[2]int]bool{}
	for _, arc := range counters.ArcsWithin(ids) {
		fi, ti := idx[arc.From], idx[arc.To]
		g.Succ[fi] = append(g.Succ[fi], WeightedArc{To: ti, Weight: arc.Weight})
		haveArc[[2]int{fi, ti}] = true
	}
	// Static successors not observed get estimated (zero) weights so
	// the region former can still walk cold-but-possible paths.
	byStart := map[int][]int{}
	for i, b := range blocks {
		byStart[b.Start] = append(byStart[b.Start], i)
	}
	for i, b := range blocks {
		for _, spc := range b.Succs {
			for _, ti := range byStart[spc] {
				if !haveArc[[2]int{i, ti}] {
					g.Succ[i] = append(g.Succ[i], WeightedArc{To: ti, Weight: 0})
				}
			}
		}
	}
	// Total order (weight desc, then target index): observed arcs come
	// in recording order, which varies with worker scheduling, and a
	// weight-only comparison would keep equal-weight arcs in that order
	// — the region former's DFS follows this order, so ties must break
	// deterministically or region shape (and emitted code) varies run
	// to run.
	for i := range g.Succ {
		sort.Slice(g.Succ[i], func(a, b int) bool {
			if g.Succ[i][a].Weight != g.Succ[i][b].Weight {
				return g.Succ[i][a].Weight > g.Succ[i][b].Weight
			}
			return g.Succ[i][a].To < g.Succ[i][b].To
		})
	}
	return g
}

// FormRegionsConfig tunes the profile-guided region former.
type FormRegionsConfig struct {
	// MaxBCInstrs caps the bytecode size of one region (large
	// functions split into multiple regions; Section 5.2.1).
	MaxBCInstrs int
	// MinBlockWeight prunes blocks colder than this fraction of the
	// region entry's weight. The paper found pruning unprofitable, so
	// the default is 0 (keep everything reachable).
	MinBlockWeight uint64
}

// DefaultFormConfig mirrors the paper's choices.
var DefaultFormConfig = FormRegionsConfig{MaxBCInstrs: 600}

// FormRegions builds optimized-mode regions for one function from its
// TransCFG: DFS growth from the lowest uncovered bytecode address,
// retranslation chains sorted by profile counts (Section 5.2.1).
func FormRegions(g *TransCFG, cfg FormRegionsConfig) []*Desc {
	if cfg.MaxBCInstrs == 0 {
		cfg.MaxBCInstrs = DefaultFormConfig.MaxBCInstrs
	}
	covered := make([]bool, len(g.Nodes))
	var regions []*Desc
	for {
		start := -1
		// Start at the uncovered block with the lowest bytecode
		// address; for the first region this is the function entry.
		for i, b := range g.Nodes {
			if covered[i] {
				continue
			}
			if start == -1 || b.Start < g.Nodes[start].Start ||
				(b.Start == g.Nodes[start].Start && g.Weights[i] > g.Weights[start]) {
				start = i
			}
		}
		if start == -1 {
			return regions
		}
		regions = append(regions, formOne(g, start, covered, cfg))
	}
}

func formOne(g *TransCFG, start int, covered []bool, cfg FormRegionsConfig) *Desc {
	desc := &Desc{Arcs: map[int][]int{}, Weight: map[int]uint64{}}
	nodeToRegion := map[int]int{}

	size := 0
	var dfs func(n int)
	dfs = func(n int) {
		if covered[n] || size+g.Nodes[n].NumInstrs > cfg.MaxBCInstrs {
			return
		}
		if g.Weights[n] < cfg.MinBlockWeight {
			return
		}
		covered[n] = true
		ri := len(desc.Blocks)
		nodeToRegion[n] = ri
		desc.Blocks = append(desc.Blocks, g.Nodes[n])
		desc.Weight[ri] = g.Weights[n]
		size += g.Nodes[n].NumInstrs
		for _, arc := range g.Succ[n] {
			dfs(arc.To)
		}
	}
	dfs(start)

	// Region-internal arcs.
	for n, ri := range nodeToRegion {
		for _, arc := range g.Succ[n] {
			if ti, ok := nodeToRegion[arc.To]; ok {
				desc.Arcs[ri] = append(desc.Arcs[ri], ti)
			}
		}
		sort.Ints(desc.Arcs[ri])
	}

	chainRetranslations(desc)
	return desc
}

// chainRetranslations groups region blocks that start at the same
// bytecode address and orders each chain by decreasing profile count,
// so the hottest type combination is guard-checked first (the
// B7,B6,B5,B4 example in Section 5.2.1).
func chainRetranslations(d *Desc) {
	byStart := map[int][]int{}
	for i, b := range d.Blocks {
		byStart[b.Start] = append(byStart[b.Start], i)
	}
	d.Chains = nil
	starts := make([]int, 0, len(byStart))
	for s := range byStart {
		starts = append(starts, s)
	}
	sort.Ints(starts)
	for _, s := range starts {
		chain := byStart[s]
		sort.Slice(chain, func(a, b int) bool {
			if d.Weight[chain[a]] != d.Weight[chain[b]] {
				return d.Weight[chain[a]] > d.Weight[chain[b]]
			}
			return chain[a] < chain[b]
		})
		d.Chains = append(d.Chains, chain)
	}
}
