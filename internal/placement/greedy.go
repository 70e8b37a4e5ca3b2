package placement

import (
	"fmt"
	"slices"
	"time"

	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

// Greedy implements the paper's Algorithm 2: recursively split the
// merged TDG at minimum-metadata cuts until every segment fits a single
// switch, then deploy the segment chain onto the candidate switch set
// around some programmable switch, connecting consecutive switches by
// shortest paths.
//
// Three refinements extend the published algorithm (the package's
// ablation benchmarks measure each): coalescing of adjacent under-full
// segments, the DP capacity split fallback when bisection
// over-fragments, and a bounded local-search polish of the final
// assignment.
type Greedy struct{}

var _ Solver = (*Greedy)(nil)

// Name implements Solver.
func (Greedy) Name() string { return "Hermes" }

// Solve implements Solver.
func (gr Greedy) Solve(g *tdg.Graph, topo *network.Topology, opts Options) (*Plan, error) {
	start := time.Now()
	if err := opts.canceled(); err != nil {
		return nil, fmt.Errorf("placement: solve canceled: %w", err)
	}
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("placement: empty TDG")
	}
	if err := topo.Validate(); err != nil {
		return nil, fmt.Errorf("placement: %w", err)
	}
	rm := opts.resourceModel()
	prog := topo.ProgrammableSwitches()
	if len(prog) == 0 {
		return nil, fmt.Errorf("placement: no programmable switches")
	}

	// Warm path: a feasible seed plan replaces segmentation and anchor
	// search entirely — the assignment is adopted as-is (fresh packing
	// and routes on this topology) and only the local-search polish
	// runs. An infeasible or absent seed falls through to the cold path.
	if plan, ok := warmStart(g, topo, opts); ok {
		if err := polish(plan, opts, rm); err != nil {
			return nil, err
		}
		plan.SolverName = gr.Name()
		plan.SolveTime = time.Since(start)
		return finishPlan(plan, opts)
	}

	refSwitch, err := topo.Switch(prog[0])
	if err != nil {
		return nil, err
	}

	// Alg. 2 line 20: split T_m into segments that fit one switch. Every
	// segment from here to materialization is a range of this one
	// topological order (see segment).
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	sp := newSplitScratch(g, order, refSwitch, rm)
	candidates, err := segmentations(sp)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for _, segs := range candidates {
		plan, err := placeWithRefinement(g, topo, sp, segs, opts, rm)
		if err == nil {
			if perr := polish(plan, opts, rm); perr != nil {
				return nil, perr
			}
			plan.SolverName = gr.Name()
			plan.SolveTime = time.Since(start)
			return finishPlan(plan, opts)
		}
		lastErr = err
	}
	return nil, lastErr
}

// segmentations returns the candidate segmentations, tried in order:
// the min-cut bisection (byte-optimal), then — if it needs too many
// switches — the DP capacity split, which provably uses the minimum
// number of contiguous segments while still preferring low-byte cut
// points.
func segmentations(sp *splitScratch) ([][]segment, error) {
	segments, err := sp.split(0, len(sp.order), nil)
	if err != nil {
		return nil, err
	}
	// Bisection can overshoot the minimum segment count; coalesce
	// adjacent segments while the pair still fits one switch. Merging
	// adjacent segments only ever removes cross-switch bytes, so this
	// strictly improves the objective.
	segments = sp.coalesce(segments)
	candidates := [][]segment{segments}
	if dpSegs, derr := sp.capacitySplit(); derr == nil && len(dpSegs) < len(segments) {
		candidates = append(candidates, dpSegs)
	}
	return candidates, nil
}

// polish runs the bounded local-search refinement over single-MAT
// moves: the climb the replan repair runs over its dirty set, here over
// the whole-graph instance with every MAT dirty. climb's pass cap,
// Options.Deadline and Options.Ctx bound it.
func polish(plan *Plan, opts Options, rm program.ResourceModel) error {
	in, err := wholeInstance(plan, opts, rm)
	if err != nil {
		return err
	}
	all := make([]int32, len(in.assign))
	for x := range all {
		all[x] = int32(x)
	}
	in.climb(opts, all, occupiedTargets)

	// Rebuild the plan from the (possibly) improved assignment.
	rebuilt, err := materializeAssignment(plan.Graph, plan.Topo, in.ci.AssignMap(in.assign), rm)
	if err != nil {
		return err
	}
	plan.Assignments = rebuilt.Assignments
	plan.Routes = rebuilt.Routes
	plan.InvalidateCache()
	return nil
}

// placeWithRefinement runs the placement loop, bisecting segments that
// pass the capacity test but fail stage-level packing.
func placeWithRefinement(g *tdg.Graph, topo *network.Topology, sp *splitScratch, segments []segment, opts Options, rm program.ResourceModel) (*Plan, error) {
	const maxRefinements = 64
	for attempt := 0; attempt < maxRefinements; attempt++ {
		plan, splitIdx, err := placeSegments(g, topo, sp.order, segments, opts, rm)
		if err == nil {
			return plan, nil
		}
		if splitIdx < 0 {
			return nil, err
		}
		// Packing rejected segment splitIdx: split it once and retry.
		seg := segments[splitIdx]
		if seg.hi-seg.lo <= 1 {
			return nil, fmt.Errorf("placement: MAT set unplaceable: %w", err)
		}
		cut := sp.bisect(seg.lo, seg.hi)
		segments = slices.Replace(segments, splitIdx, splitIdx+1,
			segment{seg.lo, cut}, segment{cut, seg.hi})
	}
	return nil, fmt.Errorf("placement: segment refinement did not converge")
}

// SplitTDG is Alg. 2's SPLIT_TDG: recursively bisect the TDG at the
// minimum-metadata topological prefix cut until every segment satisfies
// the switch capacity C_stage·C_res. Segments come back in dependency
// order (all TDG edges flow from earlier to later segments).
//
// The solver itself never leaves the range form (see segment); this
// boundary wrapper materializes one subgraph per final range for callers
// that want graphs.
func SplitTDG(g *tdg.Graph, sw *network.Switch, rm program.ResourceModel) ([]*tdg.Graph, error) {
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("placement: splitting empty TDG")
	}
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	ranges, err := newSplitScratch(g, order, sw, rm).split(0, len(order), nil)
	if err != nil {
		return nil, err
	}
	segments := make([]*tdg.Graph, 0, len(ranges))
	for _, r := range ranges {
		seg, err := g.Subgraph(order[r.lo:r.hi])
		if err != nil {
			return nil, err
		}
		segments = append(segments, seg)
	}
	return segments, nil
}

// segment is a contiguous range [lo,hi) of the root topological order.
// Every segment Alg. 2 ever holds is one: bisection cuts a topological
// prefix of a range, coalescing joins two neighbouring ranges, the
// capacity DP cuts the order into contiguous groups, and refinement
// bisects a range. The induced subgraph of a range has exactly its
// slice of the root order as its own topological order (the sort breaks
// ties by insertion order, and an insertion order that is already
// topological is a fixed point of the tie-break), so nothing between
// TopoSort and materialization needs a graph or a name.
type segment struct{ lo, hi int }

// splitScratch is Alg. 2's working state in position space (index into
// the root topological order): requirements, in/out edges by position,
// and the stage-packing scratch of one reference switch. It is
// single-goroutine scratch.
type splitScratch struct {
	order    []string
	capacity float64 // C_stage·C_res of the reference switch
	stageCap float64
	req      []float64
	out      [][]posBytes // out-edges by position (targets are later)
	in       [][]posBytes // in-edges by position (sources are earlier)
	end      []int32      // fits scratch: last stage used, per packed position
	used     []float64    // fits scratch: per-stage occupancy; len = stages
}

type posBytes struct {
	pos   int32
	bytes int32
}

func newSplitScratch(g *tdg.Graph, order []string, sw *network.Switch, rm program.ResourceModel) *splitScratch {
	n := len(order)
	pos := make(map[string]int32, n)
	for i, name := range order {
		pos[name] = int32(i)
	}
	sp := &splitScratch{
		order:    order,
		capacity: sw.Capacity(),
		stageCap: sw.StageCapacity,
		req:      make([]float64, n),
		out:      make([][]posBytes, n),
		in:       make([][]posBytes, n),
		end:      make([]int32, n),
	}
	if sw.Programmable {
		// A non-programmable switch keeps zero stages: every fits call
		// fails, like PackStages.
		sp.used = make([]float64, sw.Stages)
	}
	// Both adjacency tables are carved out of one backing array.
	flat := make([]posBytes, 2*g.NumEdges())
	for i, name := range order {
		node, _ := g.Node(name)
		sp.req[i] = rm.Requirement(node.MAT)
		outs, ins := g.OutEdgeList(name), g.InEdgeList(name)
		sp.out[i], flat = flat[:0:len(outs)], flat[len(outs):]
		for _, e := range outs {
			sp.out[i] = append(sp.out[i], posBytes{pos[e.To], int32(e.MetadataBytes)})
		}
		sp.in[i], flat = flat[:0:len(ins)], flat[len(ins):]
		for _, e := range ins {
			sp.in[i] = append(sp.in[i], posBytes{pos[e.From], int32(e.MetadataBytes)})
		}
	}
	return sp
}

// total sums the requirements of order[lo:hi] in position order.
func (sp *splitScratch) total(lo, hi int) float64 {
	total := 0.0
	for k := lo; k < hi; k++ {
		total += sp.req[k]
	}
	return total
}

// split recursively bisects order[lo:hi] until every range fits one
// switch, appending the ranges to out in dependency order.
func (sp *splitScratch) split(lo, hi int, out []segment) ([]segment, error) {
	// Line 2: the fit test. The paper checks the capacity sum
	// ΣR(a) ≤ C_stage·C_res; we additionally require an actual stage
	// packing so that dependency depth (Eq. 8) cannot invalidate a
	// segment later.
	if sp.total(lo, hi) <= sp.capacity+1e-9 && sp.fits(lo, hi) {
		return append(out, segment{lo, hi}), nil
	}
	if hi-lo == 1 {
		return nil, fmt.Errorf("placement: MAT %q alone exceeds switch capacity %g",
			sp.order[lo], sp.capacity)
	}
	cut := sp.bisect(lo, hi)
	out, err := sp.split(lo, cut, out)
	if err != nil {
		return nil, err
	}
	return sp.split(cut, hi, out)
}

// bisect is one greedy bisection (Alg. 2 lines 4-14) of order[lo:hi],
// hi-lo ≥ 2: move MATs one by one from V_b to V_a in topological order,
// updating the cut incrementally (a moved node's out-edges now cross,
// its in-edges no longer do), and return the position that starts the
// right half of the cut with minimal crossing metadata. Ties on the cut
// value break toward the most resource-balanced bisection, so recursion
// produces segments that fill switches instead of peeling off single
// MATs (many cuts are zero when independent programs share a TDG).
// Edges with an endpoint outside [lo,hi) never cross a cut of the range
// (they do not exist in the induced subgraph).
func (sp *splitScratch) bisect(lo, hi int) int {
	half := sp.total(lo, hi) / 2
	bestCut, bestK := -1, -1
	bestBalance := 0.0
	cut := 0
	leftReq := 0.0
	//hermes:hot
	for k := lo; k < hi-1; k++ {
		for _, e := range sp.out[k] {
			if int(e.pos) < hi {
				cut += int(e.bytes)
			}
		}
		for _, e := range sp.in[k] {
			if int(e.pos) >= lo {
				cut -= int(e.bytes)
			}
		}
		leftReq += sp.req[k]
		imbalance := leftReq - half
		if imbalance < 0 {
			imbalance = -imbalance
		}
		if bestCut < 0 || cut < bestCut || (cut == bestCut && imbalance < bestBalance) {
			bestCut = cut
			bestK = k
			bestBalance = imbalance
		}
	}
	return bestK + 1
}

// coalesce greedily merges consecutive segments while the combination
// still satisfies the capacity test and packs, reducing the switch
// count (and the inter-switch bytes) without reordering.
func (sp *splitScratch) coalesce(segments []segment) []segment {
	var out []segment
	cur := segments[0]
	curReq := sp.total(cur.lo, cur.hi)
	for _, seg := range segments[1:] {
		req := sp.total(seg.lo, seg.hi)
		if curReq+req <= sp.capacity+1e-9 && sp.fits(cur.lo, seg.hi) {
			cur.hi = seg.hi
			curReq += req
			continue
		}
		out = append(out, cur)
		cur, curReq = seg, req
	}
	return append(out, cur)
}

// capacitySplit partitions the topological order into the minimum
// number of contiguous capacity-feasible segments by dynamic
// programming, breaking ties toward the smallest total boundary-cut
// bytes.
func (sp *splitScratch) capacitySplit() ([]segment, error) {
	n := len(sp.order)
	for i, r := range sp.req {
		if r > sp.capacity+1e-9 {
			return nil, fmt.Errorf("placement: MAT %q alone exceeds switch capacity %g", sp.order[i], sp.capacity)
		}
	}
	// cutAt[j] = bytes crossing the boundary between order[:j] and
	// order[j:], computed by the incremental prefix sweep.
	cutAt := make([]int, n+1)
	//hermes:hot
	for k := 0; k < n; k++ {
		cut := cutAt[k]
		for _, e := range sp.out[k] {
			cut += int(e.bytes)
		}
		for _, e := range sp.in[k] {
			cut -= int(e.bytes)
		}
		cutAt[k+1] = cut
	}

	const inf = int(^uint(0) >> 1)
	type cell struct{ groups, cost int }
	dp := make([]cell, n+1)
	prev := make([]int, n+1)
	for i := 1; i <= n; i++ {
		dp[i] = cell{groups: inf, cost: inf}
		prev[i] = -1
	}
	//hermes:hot
	for i := 1; i <= n; i++ {
		weight := 0.0
		for j := i - 1; j >= 0; j-- {
			weight += sp.req[j]
			if weight > sp.capacity+1e-9 {
				break
			}
			if dp[j].groups == inf {
				continue
			}
			boundary := 0
			if j > 0 {
				boundary = cutAt[j]
			}
			cand := cell{groups: dp[j].groups + 1, cost: dp[j].cost + boundary}
			// Test the cell improvement before the (expensive) packing
			// attempt: a candidate that cannot improve dp[i] never needs
			// its feasibility decided, and the dp table is unchanged.
			if cand.groups > dp[i].groups || (cand.groups == dp[i].groups && cand.cost >= dp[i].cost) {
				continue
			}
			if !sp.fits(j, i) {
				continue
			}
			dp[i] = cand
			prev[i] = j
		}
	}
	if dp[n].groups == inf {
		return nil, fmt.Errorf("placement: no capacity-feasible contiguous split exists")
	}
	// Walk the boundaries back from n, then put them in order.
	var segments []segment
	for at := n; at > 0; at = prev[at] {
		segments = append(segments, segment{prev[at], at})
	}
	slices.Reverse(segments)
	return segments, nil
}

// placeSegments tries every programmable switch u as the anchor (Alg. 2
// lines 21-29). On packing failure it reports the index of the
// offending segment so the caller can refine. splitIdx == -1 signals a
// non-recoverable error.
//
// Anchors are evaluated concurrently in waves of opts.Workers: each
// anchor's candidate chain and packing attempt is independent
// (read-only against the shared graph, order, segments, oracle, and pack
// memo — never the single-goroutine splitScratch), and the wave results
// are merged in anchor order — first success wins, and
// the error/splitIdx bookkeeping matches the sequential loop exactly.
// A wave bounds the work wasted past the first successful anchor.
func placeSegments(g *tdg.Graph, topo *network.Topology, order []string, segments []segment, opts Options, rm program.ResourceModel) (*Plan, int, error) {
	prog := topo.ProgrammableSwitches()
	eps2 := opts.epsilon2(len(prog))
	if len(segments) > eps2 {
		return nil, -1, fmt.Errorf("placement: %d segments exceed ε2=%d switches", len(segments), eps2)
	}

	type anchorResult struct {
		plan     *Plan
		splitIdx int
		err      error
		// fatal marks errors the sequential loop aborts on immediately
		// (candidate lookup failures) rather than recording and moving
		// to the next anchor.
		fatal bool
	}
	workers := opts.workers()
	wave := workers
	if wave < 1 {
		wave = 1
	}
	results := make([]anchorResult, len(prog))

	var lastErr error
	lastSplit := -1
	for base := 0; base < len(prog); base += wave {
		end := base + wave
		if end > len(prog) {
			end = len(prog)
		}
		parallelFor(end-base, workers, func(off int) {
			i := base + off
			u := prog[i]
			// SELECT_SWITCHES: u plus its ε2-1 nearest programmable
			// neighbors within latency ε1.
			near, err := topo.NearestProgrammable(u, eps2-1, opts.Epsilon1)
			if err != nil {
				results[i] = anchorResult{splitIdx: -1, err: err, fatal: true}
				return
			}
			cands := append([]network.SwitchID{u}, near...)
			if len(segments) > len(cands) {
				results[i] = anchorResult{splitIdx: -1, err: fmt.Errorf(
					"placement: anchor %d offers only %d candidate switches for %d segments",
					u, len(cands), len(segments))}
				return
			}
			plan, splitIdx, err := tryAssign(g, topo, order, segments, cands, rm)
			results[i] = anchorResult{plan: plan, splitIdx: splitIdx, err: err}
		})
		for i := base; i < end; i++ {
			r := results[i]
			if r.fatal {
				return nil, -1, r.err
			}
			if r.err == nil {
				return r.plan, -1, nil
			}
			lastErr = r.err
			if r.splitIdx >= 0 {
				lastSplit = r.splitIdx
			}
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("placement: no programmable switch anchors the deployment")
	}
	return nil, lastSplit, lastErr
}

// tryAssign maps segment i onto candidate switch i and packs stages.
func tryAssign(g *tdg.Graph, topo *network.Topology, order []string, segments []segment, cands []network.SwitchID, rm program.ResourceModel) (*Plan, int, error) {
	plan := &Plan{
		Graph:       g,
		Topo:        topo,
		Assignments: map[string]StagePlacement{},
	}
	for i, seg := range segments {
		sw, err := topo.Switch(cands[i])
		if err != nil {
			return nil, -1, err
		}
		placed, err := packShared(g, order[seg.lo:seg.hi], sw, rm)
		if err != nil {
			return nil, i, fmt.Errorf("placement: segment %d on switch %q: %w", i, sw.Name, err)
		}
		for name, sp := range placed {
			plan.Assignments[name] = sp
		}
	}
	if err := addRoutesForCrossPairs(plan); err != nil {
		return nil, -1, err
	}
	return plan, -1, nil
}
