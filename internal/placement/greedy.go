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
	rm := program.DefaultResourceModel
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	assign, err := greedyAssign(g, 0, len(order), topo, opts, rm)
	if err != nil {
		return nil, err
	}
	topoIDs := indexOf(g, rm).Topo
	byID := make([]network.SwitchID, len(order))
	for p, u := range assign {
		byID[topoIDs[p]] = u
	}
	plan, err := materializeAssignment(g, topo, byID, rm)
	if err != nil {
		return nil, err
	}
	if opts.Epsilon1 > 0 && plan.TE2E() > opts.Epsilon1 {
		return nil, fmt.Errorf("placement: plan latency %v exceeds ε1=%v", plan.TE2E(), opts.Epsilon1)
	}
	plan.SolverName = gr.Name()
	plan.SolveTime = time.Since(start)
	return plan, nil
}

// greedyAssign is Alg. 2's core: split → coalesce → anchor placement →
// polish over the range [lo,hi) of g's topological order: all of it, or
// a sharded region's chunk. Edges that leave the range are ignored,
// exactly as in the induced subgraph. It decides only which switch
// hosts each MAT, returned by position in the range; callers
// materialize the stages and routes once.
func greedyAssign(g *tdg.Graph, lo, hi int, topo *network.Topology, opts Options, rm program.ResourceModel) ([]network.SwitchID, error) {
	assign, err := anchorAssign(g, lo, hi, topo, opts, rm)
	if err != nil {
		return nil, err
	}
	if _, _, err := polish(g, lo, topo, assign, opts, rm); err != nil {
		return nil, err
	}
	return assign, nil
}

// anchorAssign is greedyAssign up to the polish: the segments of
// [lo,hi) placed on the first anchor's candidate chain that packs them.
func anchorAssign(g *tdg.Graph, lo, hi int, topo *network.Topology, opts Options, rm program.ResourceModel) ([]network.SwitchID, error) {
	if err := opts.canceled(); err != nil {
		return nil, fmt.Errorf("placement: solve canceled: %w", err)
	}
	if hi <= lo {
		return nil, fmt.Errorf("placement: empty TDG")
	}
	if err := topo.Validate(); err != nil {
		return nil, fmt.Errorf("placement: %w", err)
	}
	prog := topo.ProgrammableSwitches()
	if len(prog) == 0 {
		return nil, fmt.Errorf("placement: no programmable switches")
	}
	refSwitch, err := topo.Switch(prog[0])
	if err != nil {
		return nil, err
	}

	// Alg. 2 line 20: split T_m into segments that fit one switch. Every
	// segment from here to the assignment is a range of order (see
	// segment). Bisection can overshoot the minimum segment count;
	// coalescing adjacent segments while the pair still fits one switch
	// only ever removes cross-switch bytes.
	sp := newSplitScratch(g, lo, hi, refSwitch, rm)
	defer opts.countPackSteps(&sp.steps)
	segs, err := sp.split(0, hi-lo, nil)
	if err != nil {
		return nil, err
	}
	segs = sp.coalesce(segs)
	assign, err := placeWithRefinement(g, topo, sp, segs, opts, rm)
	if err != nil {
		// The bisection did not place (typically: too many segments). The
		// DP capacity split provably uses the minimum number of
		// contiguous segments while still preferring low-byte cut points;
		// it is worth a try only when it is shorter.
		dpSegs, derr := sp.capacitySplit()
		if derr != nil || len(dpSegs) >= len(segs) {
			return nil, err
		}
		if assign, err = placeWithRefinement(g, topo, sp, dpSegs, opts, rm); err != nil {
			return nil, err
		}
	}
	return assign, nil
}

// polish runs the bounded local-search refinement over single-MAT
// moves: the climb the replan repair runs over its dirty set, here over
// the MATs at topological positions [lo, lo+len(assign)) with every MAT
// dirty, improving assign (by position in the range) in place. The
// instance's hosts are the switches assign uses and its candidates the
// live programmable ones among them: the climb only moves a MAT to a
// switch that holds MATs, so no other switch could be a target. climb's
// pass cap, Options.Deadline and Options.Ctx bound it; it returns the
// passes run and the moves accepted.
func polish(g *tdg.Graph, lo int, topo *network.Topology, assign []network.SwitchID, opts Options, rm program.ResourceModel) (passes, moves int, err error) {
	gi := indexOf(g, rm)
	ids := slices.Clone(gi.Topo[lo : lo+len(assign)])
	slices.SortFunc(ids, gi.byRank)
	at := make([]network.SwitchID, len(ids))
	for x, id := range ids {
		at[x] = assign[int(gi.Pos[id])-lo]
	}
	hosts := slices.Clone(assign)
	slices.Sort(hosts)
	weights, err := trafficWeights(opts.Traffic, topo)
	if err != nil {
		return 0, 0, err
	}
	live := func(sw *network.Switch) bool { return sw.Programmable && !topo.SwitchIsDown(sw.ID) }
	in, err := newRepairInstance(g, gi, topo, slices.Compact(hosts), ids, at, live, weights, opts)
	if err != nil {
		return 0, 0, err
	}
	defer in.release()
	all := make([]int32, len(ids))
	for x := range all {
		all[x] = int32(x)
	}
	passes, moves = in.climb(opts, all, occupiedTargets)
	for x, id := range ids {
		assign[int(gi.Pos[id])-lo] = in.switchOf(int32(x))
	}
	return passes, moves, nil
}

// placeWithRefinement runs the placement loop, bisecting segments that
// pass the capacity test but fail stage-level packing.
func placeWithRefinement(g *tdg.Graph, topo *network.Topology, sp *splitScratch, segments []segment, opts Options, rm program.ResourceModel) ([]network.SwitchID, error) {
	const maxRefinements = 64
	for attempt := 0; attempt < maxRefinements; attempt++ {
		assign, splitIdx, err := placeSegments(topo, sp, segments, opts)
		if err == nil {
			return assign, nil
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

// segment is a contiguous range [lo,hi) of the order Alg. 2 runs on.
// Every segment Alg. 2 ever holds is one: bisection cuts a topological
// prefix of a range, coalescing joins two neighbouring ranges, the
// capacity DP cuts the order into contiguous groups, and refinement
// bisects a range. The induced subgraph of a range has exactly its
// slice of the root order as its own topological order (the sort breaks
// ties by insertion order, and an insertion order that is already
// topological is a fixed point of the tie-break), so nothing between
// TopoSort and the assignment needs a graph or a name.
type segment struct{ lo, hi int }

// splitScratch is Alg. 2's working state in position space (index into
// order): requirements, in/out edges by position, and the stage-packing
// scratch of one reference switch. The fits scratch (end, used, steps)
// is single-goroutine; the position arrays are immutable once built, and
// the concurrent anchor checks (tryAssign) read them.
type splitScratch struct {
	order    []string // the range of g's topological order
	capacity float64  // C_stage·C_res of the reference switch
	stageCap float64
	req      []float64
	out      [][]posBytes // out-edges by position (targets are later)
	in       [][]posBytes // in-edges by position (sources are earlier)
	end      []int32      // fits scratch: last stage used, per packed position
	used     []float64    // fits scratch: per-stage occupancy; len = stages
	steps    int          // packStep calls, flushed by Options.countPackSteps
}

type posBytes struct {
	pos   int32
	bytes int32
}

// newSplitScratch builds the scratch of the range [lo,hi) of g's
// topological order on g's node ids: a neighbor's position is its
// topological position minus lo.
func newSplitScratch(g *tdg.Graph, lo, hi int, sw *network.Switch, rm program.ResourceModel) *splitScratch {
	gi, n := indexOf(g, rm), hi-lo
	sp := &splitScratch{
		order:    gi.Order[lo:hi],
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
	// Both adjacency tables are carved out of one backing array. Edges
	// with an endpoint outside the range are dropped, as in the induced
	// subgraph.
	ids, deg := gi.Topo[lo:hi], 0
	for _, id := range ids {
		deg += len(g.OutEdgesOf(id)) + len(g.InEdgesOf(id))
	}
	flat := make([]posBytes, deg)
	//hermes:hot
	for i, id := range ids {
		sp.req[i] = gi.req[id]
		outs, ins := g.OutEdgesOf(id), g.InEdgesOf(id)
		out, in := flat[:0:len(outs)], flat[len(outs):len(outs):len(outs)+len(ins)]
		flat = flat[len(outs)+len(ins):]
		for _, e := range outs {
			if _, to := e.Endpoints(); uint(int(gi.Pos[to])-lo) < uint(n) {
				out = append(out, posBytes{gi.Pos[to] - int32(lo), int32(e.MetadataBytes)})
			}
		}
		for _, e := range ins {
			if from, _ := e.Endpoints(); uint(int(gi.Pos[from])-lo) < uint(n) {
				in = append(in, posBytes{gi.Pos[from] - int32(lo), int32(e.MetadataBytes)})
			}
		}
		sp.out[i], sp.in[i] = out, in
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
// lines 21-29) and returns the first anchor's assignment whose segments
// all pack. On packing failure it reports the index of the offending
// segment so the caller can refine. splitIdx == -1 signals a
// non-recoverable error.
//
// Anchors are evaluated concurrently in waves of opts.Workers: each
// anchor's candidate chain and packing attempt is independent
// (read-only against the segments, the oracle and the split scratch's
// position arrays — never its fits scratch), and the wave results
// are merged in anchor order — first success wins, and
// the error/splitIdx bookkeeping matches the sequential loop exactly.
// A wave bounds the work wasted past the first successful anchor.
func placeSegments(topo *network.Topology, sp *splitScratch, segments []segment, opts Options) ([]network.SwitchID, int, error) {
	prog := topo.ProgrammableSwitches()
	eps2 := opts.epsilon2(len(prog))
	if len(segments) > eps2 {
		return nil, -1, fmt.Errorf("placement: %d segments exceed ε2=%d switches", len(segments), eps2)
	}

	type anchorResult struct {
		cands    []network.SwitchID
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
			splitIdx, err := tryAssign(topo, sp, segments, cands)
			results[i] = anchorResult{cands: cands, splitIdx: splitIdx, err: err}
		})
		for i := base; i < end; i++ {
			r := results[i]
			if r.fatal {
				return nil, -1, r.err
			}
			if r.err == nil {
				assign := make([]network.SwitchID, len(sp.order))
				for k, seg := range segments {
					for p := seg.lo; p < seg.hi; p++ {
						assign[p] = r.cands[k]
					}
				}
				return assign, -1, nil
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

// tryAssign checks that segment i packs onto candidate switch i, by
// position: a segment is a range of the topological order, so a
// predecessor is in it when its position is, and every MAT is packed
// with stagePlacement — PackStages' verdict and error text, without
// names, keys or maps. sp is only read, so anchors run it concurrently.
// The candidates all come from NearestProgrammable, so every pair of
// them routes and the assignment needs no route check.
func tryAssign(topo *network.Topology, sp *splitScratch, segments []segment, cands []network.SwitchID) (int, error) {
	longest := 0
	for _, seg := range segments {
		longest = max(longest, seg.hi-seg.lo)
	}
	end := make([]int32, longest)
	var used, arena []float64
	for i, seg := range segments {
		sw, err := topo.Switch(cands[i])
		if err != nil {
			return -1, err
		}
		if !sw.Programmable {
			return i, fmt.Errorf("placement: segment %d on switch %q: placement: switch %q is not programmable", i, sw.Name, sw.Name)
		}
		if cap(used) < sw.Stages {
			used = make([]float64, sw.Stages)
		}
		used = used[:sw.Stages]
		clear(used)
		//hermes:hot
		for k := seg.lo; k < seg.hi; k++ {
			earliest := 0
			for _, p := range sp.in[k] {
				if int(p.pos) >= seg.lo && int(end[int(p.pos)-seg.lo])+1 > earliest {
					earliest = int(end[int(p.pos)-seg.lo]) + 1
				}
			}
			placed, err := stagePlacement(used, sw, sp.order[k], sp.req[k], earliest, &arena)
			if err != nil {
				return i, fmt.Errorf("placement: segment %d on switch %q: %w", i, sw.Name, err)
			}
			end[k-seg.lo] = int32(placed.End)
			arena = arena[:0]
		}
	}
	return -1, nil
}
