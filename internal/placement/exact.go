package placement

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

// Exact is a specialized branch & bound over MAT→switch assignments
// that proves the optimal A_max on small instances. It plays the role
// of the paper's Gurobi-backed "Optimal" reference. On larger
// instances it degrades gracefully: given a Deadline, or once it has
// visited exactMaxNodes search nodes, it returns the best incumbent
// found, with Proven=false — mirroring the paper's two-hour solver cap
// in Fig. 7. The first incumbent is a deadline-free Greedy plan.
type Exact struct{}

// exactMaxNodes caps the search nodes one Exact solve visits.
const exactMaxNodes = 4 << 20

var _ Solver = (*Exact)(nil)

// Name implements Solver.
func (Exact) Name() string { return "Optimal" }

// exactState carries the mutable search state over the compiled
// instance. The assignment, per-switch loads, pair-byte matrix, and
// contracted switch graph are all dense arrays indexed by the
// CompiledInstance's MAT/switch index spaces, so one search node costs
// a few array stores plus an append to the shared undo stack — no map
// hashing, no per-node allocation (the undo stack and reachability
// scratch amortize).
type exactState struct {
	ci   *CompiledInstance
	opts Options
	// orderIdx/orderReq are TopoSort order translated to MAT indices
	// with R(a) precomputed; cands is the programmable-switch list.
	orderIdx []int32
	orderReq []float64
	cands    []network.SwitchID
	eps2     int

	assign []int32   // per MAT, -1 when unassigned
	load   []float64 // per switch
	// pair is the flat S×S cross-byte matrix. swCnt counts the cross
	// edges per cell: the contracted switch graph used for cycle
	// pruning, and the communicating pairs the ε1 sum runs over
	// (swCnt > 0, zero-byte edges included — the pairs Plan.TE2E sums).
	// active/inActive track ever-touched cells so leaf scans stay
	// O(pairs).
	pair     []int32
	swCnt    []int32
	active   []int32
	inActive []bool
	curMax   int
	distinct int

	// Shared undo stack: each enter records a frame base and its leave
	// pops back to it, replacing the per-node undo log allocation.
	undoCell []int32
	undoByte []int32

	// reachability scratch.
	seen  []bool
	stack []int32

	// Weighted objective state (Options.Traffic): wt is the compiled
	// weight table, curW the running weighted score of the partial
	// assignment (monotone under edge additions for both aggregates, so
	// it is an admissible bound), bestW the incumbent's score, and
	// amaxCap the structural-inflation ceiling (Options.AMaxSlack × the
	// unweighted greedy baseline). nil wt means the structural search.
	wt      *WeightTable
	wobj    TrafficObjective
	curW    int64
	bestW   int64
	amaxCap int

	bestA    int
	bestSet  []int32
	haveBest bool

	// localNodes paces the deadline poll; sharedNodes is the global
	// search-node counter enforcing exactMaxNodes across every branch (and
	// doubling as the sole counter for the sequential search).
	localNodes  int
	sharedNodes *atomic.Int64
	// sharedBest publishes the best incumbent value across branches:
	// a subtree whose running pair maximum strictly exceeds it cannot
	// contain the winning leaf in any branch, so dfs prunes on it.
	// Equality never prunes — an earlier-in-DFS-order branch must still
	// reach its own copy of an equal-valued optimum for the merge
	// tie-break to match the sequential search.
	sharedBest *atomic.Int64
	deadline   time.Time
	capped     bool

	symmetry bool
}

// newExactState sizes the dense arrays for the instance.
func newExactState(ci *CompiledInstance, opts Options) *exactState {
	s := int(ci.S)
	st := &exactState{
		ci:       ci,
		opts:     opts,
		assign:   make([]int32, len(ci.Req)),
		load:     make([]float64, s),
		pair:     make([]int32, s*s),
		swCnt:    make([]int32, s*s),
		inActive: make([]bool, s*s),
		seen:     make([]bool, s),
		stack:    make([]int32, 0, s),
		undoCell: make([]int32, 0, len(ci.EdgeFrom)),
		undoByte: make([]int32, 0, len(ci.EdgeFrom)),
		bestA:    int(^uint(0) >> 1), // max int
	}
	for i := range st.assign {
		st.assign[i] = -1
	}
	return st
}

// clone deep-copies the mutable search state (assignment, loads, pair
// matrix, contracted switch graph); the compiled instance and the
// shared atomics are carried over by reference. bestSet is shared too:
// it is only ever replaced wholesale, never mutated in place.
func (st *exactState) clone() *exactState {
	c := *st
	c.assign = append([]int32(nil), st.assign...)
	c.load = append([]float64(nil), st.load...)
	c.pair = append([]int32(nil), st.pair...)
	c.swCnt = append([]int32(nil), st.swCnt...)
	c.active = append([]int32(nil), st.active...)
	c.inActive = append([]bool(nil), st.inActive...)
	c.undoCell = make([]int32, 0, cap(st.undoCell))
	c.undoByte = make([]int32, 0, cap(st.undoByte))
	c.seen = make([]bool, len(st.seen))
	c.stack = make([]int32, 0, cap(st.stack))
	return &c
}

// addPair folds one in-edge's bytes into a pair cell: the pair
// matrix, the contracted-graph edge count, the running structural and
// weighted scores, and the shared undo stack that unfold pops. The
// stack is pre-sized to the edge count — each enter pushes at most one
// entry per in-edge of a distinct MAT — so steady-state pushes never
// grow it.
func (st *exactState) addPair(cell, bytes int32) {
	if !st.inActive[cell] {
		st.inActive[cell] = true
		st.active = append(st.active, cell)
	}
	st.pair[cell] += bytes
	st.swCnt[cell]++
	st.curMax = max(st.curMax, int(st.pair[cell]))
	switch {
	case st.wt == nil:
	case st.wobj == TrafficWeightedMax:
		st.curW = max(st.curW, st.wt.W[cell]*int64(st.pair[cell]))
	default:
		st.curW += st.wt.W[cell] * int64(bytes)
	}
	st.undoCell = append(st.undoCell, cell)
	st.undoByte = append(st.undoByte, bytes)
}

// boundOK reports whether the current partial score can still beat the
// incumbent: the structural bound when wt is nil, and the weighted
// bound plus the structural-inflation cap otherwise. Both running
// scores are monotone under further assignments, so pruning on them is
// admissible; equality against sharedBest never prunes (see its doc).
func (st *exactState) boundOK() bool {
	if st.wt == nil {
		return (!st.haveBest || st.curMax < st.bestA) && int64(st.curMax) <= st.sharedBest.Load()
	}
	return st.curMax <= st.amaxCap &&
		(!st.haveBest || st.curW < st.bestW) &&
		st.curW <= st.sharedBest.Load()
}

// adopt offers a complete dense assignment as an incumbent, scoring it
// under the active objective (strict improvement only, so the first
// incumbent offered wins ties).
func (st *exactState) adopt(dense []int32) {
	pt := st.ci.NewPairTable()
	a := st.ci.AssignmentAMax(dense, pt)
	if st.wt == nil {
		if !st.haveBest || a < st.bestA {
			st.bestA, st.bestSet, st.haveBest = a, dense, true
		}
		return
	}
	if a > st.amaxCap {
		return
	}
	sum, max := st.wt.Score(pt)
	if w := st.wobj.pick(sum, max); !st.haveBest || w < st.bestW {
		st.bestW, st.bestA, st.bestSet, st.haveBest = w, a, dense, true
	}
}

// incumbentScore is the value published to sharedBest.
func (st *exactState) incumbentScore() int64 {
	if st.wt == nil {
		return int64(st.bestA)
	}
	return st.bestW
}

// Solve implements Solver.
func (e Exact) Solve(g *tdg.Graph, topo *network.Topology, opts Options) (*Plan, error) {
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
	order, err := g.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("placement: %w", err)
	}
	prog := topo.ProgrammableSwitches()
	if len(prog) == 0 {
		return nil, fmt.Errorf("placement: no programmable switches")
	}
	rm := program.DefaultResourceModel
	ci := Compile(g, topo, rm)
	st := newExactState(ci, opts)
	st.orderIdx = make([]int32, len(order))
	st.orderReq = make([]float64, len(order))
	for i, id := range ci.gi.Topo {
		x := ci.gi.Rank[id] // Compile's MAT index is the name rank
		st.orderIdx[i] = x
		st.orderReq[i] = ci.Req[x]
	}
	st.cands = prog
	st.eps2 = opts.epsilon2(len(prog))
	st.deadline = opts.Deadline
	st.sharedNodes = &atomic.Int64{}
	st.sharedBest = &atomic.Int64{}
	st.sharedBest.Store(math.MaxInt64)
	homogeneous := true
	var s0 *network.Switch
	for _, id := range prog {
		sw, err := topo.Switch(id)
		if err != nil {
			return nil, err
		}
		if s0 == nil {
			s0 = sw
		} else if sw.Stages != s0.Stages || sw.StageCapacity != s0.StageCapacity {
			homogeneous = false
		}
	}
	if opts.Traffic != nil {
		wt, werr := trafficWeights(opts.Traffic, topo)
		if werr != nil {
			return nil, fmt.Errorf("placement: %w", werr)
		}
		st.wt = wt
		st.wobj = opts.TrafficObjective
		st.bestW = math.MaxInt64
		st.amaxCap = int(^uint(0) >> 1)
	}
	// Symmetry breaking (a MAT may open only the lowest-indexed unused
	// switch) is sound only when switches are interchangeable for the
	// objective: homogeneous capacities, no latency bound, and no
	// traffic weights (weights distinguish pairs by identity).
	st.symmetry = homogeneous && opts.Epsilon1 == 0 && st.wt == nil

	// The Greedy solves below run without the deadline, which caps the
	// branch search only: a capped Exact never reports worse than Greedy.
	seedOpts := opts
	seedOpts.Deadline = time.Time{}
	// Under the weighted objective, the structural-inflation cap is
	// anchored to an unweighted greedy baseline: the weighted optimum
	// may not inflate A_max beyond AMaxSlack × the plan a structural
	// solve would ship.
	if st.wt != nil {
		baseOpts := seedOpts
		baseOpts.Traffic = nil
		if base, err := (Greedy{}).Solve(g, topo, baseOpts); err == nil {
			st.amaxCap = opts.amaxCap(base.AMax())
			st.adopt(ci.DenseAssign(base.Hosts()))
		}
	}
	if seed, err := (Greedy{}).Solve(g, topo, seedOpts); err == nil {
		st.adopt(ci.DenseAssign(seed.Hosts()))
	}
	if st.haveBest {
		st.sharedBest.Store(st.incumbentScore())
	}

	if workers := opts.workers(); workers > 1 && len(st.orderIdx) > 1 {
		searchParallel(st, workers)
	} else {
		st.dfs(0)
	}

	if !st.haveBest {
		if st.capped {
			return nil, fmt.Errorf("placement: exact search hit its limit with no feasible plan")
		}
		return nil, fmt.Errorf("placement: no feasible deployment exists")
	}

	plan, err := materializeAssignment(g, topo, ci.idAssign(st.bestSet), rm)
	if err != nil {
		return nil, err
	}
	plan.SolverName = e.Name()
	plan.SolveTime = time.Since(start)
	plan.Proven = !st.capped
	return plan, nil
}

// dfs explores assignments of orderIdx[i:].
func (st *exactState) dfs(i int) {
	total := st.sharedNodes.Add(1)
	st.localNodes++
	if st.capped {
		return
	}
	if total >= exactMaxNodes {
		st.capped = true
		return
	}
	if st.localNodes%1024 == 0 {
		if !st.deadline.IsZero() && time.Now().After(st.deadline) {
			st.capped = true
			return
		}
		select {
		case <-st.opts.done():
			st.capped = true
			return
		default:
		}
	}
	if i == len(st.orderIdx) {
		st.evaluateLeaf()
		return
	}
	usedHighest := st.usedHighest()
	//hermes:hot
	for idx := range st.cands {
		b, ok := st.enter(i, idx, usedHighest)
		if !ok {
			continue
		}
		st.dfs(i + 1)
		st.leave(b)
		if st.capped {
			return
		}
	}
}

// usedHighest is the highest candidate index holding load when
// symmetry breaking is on (-1 otherwise, or when nothing is placed):
// enter opens at most the next one.
func (st *exactState) usedHighest() int {
	h := -1
	if st.symmetry {
		//hermes:hot
		for idx, u := range st.cands {
			if st.load[u] > 0 {
				h = idx
			}
		}
	}
	return h
}

// branch records what one enter changed, for its leave.
type branch struct {
	x         int32
	u         network.SwitchID
	req       float64
	newSwitch bool
	base      int // undo-stack height before the in-edge fold
	prevMax   int
	prevW     int64
}

// enter is the one branch step of both searches: it tries assigning
// orderIdx[i] to cands[idx] through the candidate filters — symmetry,
// capacity, ε2, incremental acyclicity of the contracted switch graph,
// and the incumbent bound — folding the MAT's in-edges into the pair
// matrix on the shared undo stack. On success the assignment is
// committed and the caller must leave it; on failure the state is
// unchanged.
func (st *exactState) enter(i, idx, usedHighest int) (branch, bool) {
	u := st.cands[idx]
	b := branch{x: st.orderIdx[i], u: u, req: st.orderReq[i], newSwitch: st.load[u] == 0}
	// Symmetry: only the first unused switch may be opened (with no
	// switches in use yet that is candidate 0).
	if st.symmetry && b.newSwitch && idx > usedHighest+1 {
		return b, false
	}
	if st.load[u]+b.req > st.ci.Caps[u]+1e-9 {
		return b, false
	}
	if b.newSwitch && st.distinct+1 > st.eps2 {
		return b, false
	}
	b.base, b.prevMax, b.prevW = len(st.undoCell), st.curMax, st.curW
	ui, s := int32(u), st.ci.S
	//hermes:hot
	for _, ei := range st.ci.In[b.x] {
		pu := st.assign[st.ci.EdgeFrom[ei]]
		if pu < 0 || pu == ui {
			continue
		}
		if st.reachable(ui, pu) {
			st.unfold(b)
			return b, false
		}
		st.addPair(pu*s+ui, st.ci.EdgeBytes[ei])
	}
	if !st.boundOK() {
		st.unfold(b)
		return b, false
	}
	st.assign[b.x] = ui
	st.load[u] += b.req
	if b.newSwitch {
		st.distinct++
	}
	return b, true
}

// leave undoes a successful enter.
func (st *exactState) leave(b branch) {
	st.load[b.u] -= b.req
	if b.newSwitch {
		st.distinct--
		st.load[b.u] = 0
	}
	st.assign[b.x] = -1
	st.unfold(b)
}

// unfold pops enter's in-edge fold off the shared undo stack.
func (st *exactState) unfold(b branch) {
	for j := len(st.undoCell) - 1; j >= b.base; j-- {
		cell := st.undoCell[j]
		st.pair[cell] -= st.undoByte[j]
		st.swCnt[cell]--
	}
	st.undoCell = st.undoCell[:b.base]
	st.undoByte = st.undoByte[:b.base]
	st.curMax = b.prevMax
	st.curW = b.prevW
}

// frontierNode is one search subtree root awaiting exploration:
// orderIdx[:depth] is assigned in st, and path records the candidate
// indices chosen along the way so nodes can be ranked in the exact
// DFS visit order of the sequential search.
type frontierNode struct {
	st    *exactState
	depth int
	path  []int
}

// searchParallel splits the top of the DFS tree into independent
// subtree roots and explores them concurrently. Every branch runs the
// sequential dfs with a branch-local strict incumbent seeded from the
// Greedy incumbent, plus the shared atomic bound for cross-branch pruning
// (strict, so equal-valued optima survive in every branch). Because
// each branch ends holding its first leaf (in its own DFS order) that
// attains its local minimum, merging the branches in DFS order with a
// strict comparison reproduces the sequential result exactly: the
// global winner is the first leaf in global DFS order attaining the
// optimal A_max. Runs that hit the node cap or deadline may explore a
// different set of nodes than the sequential search and can return a
// different (still feasible, Proven=false) incumbent.
func searchParallel(root *exactState, workers int) {
	// Expand breadth-first until there are enough subtree roots to
	// balance across the workers (or the tree is exhausted first).
	target := workers * 4
	frontier := []frontierNode{{st: root.clone(), depth: 0}}
	for len(frontier) > 0 && len(frontier) < target && frontier[0].depth < len(root.orderIdx)-1 {
		fn := frontier[0]
		frontier = append(frontier[1:], fn.expand()...)
	}
	// Rank subtree roots in sequential DFS visit order: lexicographic
	// over candidate-index paths (a BFS queue interleaves levels once
	// the target is hit mid-level).
	sort.Slice(frontier, func(i, j int) bool {
		a, b := frontier[i].path, frontier[j].path
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})

	parallelFor(len(frontier), workers, func(i int) {
		frontier[i].st.dfs(frontier[i].depth)
	})

	// Merge in DFS order with a strict comparison: the first branch
	// attaining the global minimum supplies the assignment, matching
	// the sequential search's last-improvement semantics.
	for _, fn := range frontier {
		b := fn.st
		if b.capped {
			root.capped = true
		}
		if b.haveBest && (!root.haveBest || b.incumbentScore() < root.incumbentScore()) {
			root.bestA, root.bestW, root.bestSet, root.haveBest = b.bestA, b.bestW, b.bestSet, true
		}
	}
}

// expand returns fn's children in candidate order: a clone of the
// state taken between enter and leave for every candidate that
// survives, so the frontier applies exactly dfs's filters. fn's state
// ends unchanged.
func (fn frontierNode) expand() []frontierNode {
	st, usedHighest := fn.st, fn.st.usedHighest()
	var out []frontierNode
	for idx := range st.cands {
		if b, ok := st.enter(fn.depth, idx, usedHighest); ok {
			out = append(out, frontierNode{st: st.clone(), depth: fn.depth + 1, path: append(slices.Clone(fn.path), idx)})
			st.leave(b)
		}
	}
	return out
}

// reachable reports whether dst is reachable from src in the contracted
// switch graph (swCnt rows), using the state's scratch buffers. The
// stack works through a local: the seen guard bounds it to S pushes, so
// the pre-sized scratch never grows and nothing needs writing back.
func (st *exactState) reachable(src, dst int32) bool {
	if src == dst {
		return true
	}
	s := st.ci.S
	for i := range st.seen {
		st.seen[i] = false
	}
	stack := append(st.stack[:0], src)
	st.seen[src] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		row := st.swCnt[n*s : (n+1)*s]
		//hermes:hot
		for to, cnt := range row {
			if cnt <= 0 {
				continue
			}
			if int32(to) == dst {
				return true
			}
			if !st.seen[to] {
				st.seen[to] = true
				stack = append(stack, int32(to))
			}
		}
	}
	return false
}

// evaluateLeaf validates a complete assignment and records it when it
// improves the incumbent (under the active objective).
func (st *exactState) evaluateLeaf() {
	if st.wt == nil {
		if st.haveBest && st.curMax >= st.bestA {
			return
		}
	} else if st.curMax > st.amaxCap || (st.haveBest && st.curW >= st.bestW) {
		return
	}
	// Stage-level packing per switch, through the name-keyed packer.
	bySwitch := map[network.SwitchID][]string{}
	for x, u := range st.assign {
		if u >= 0 {
			bySwitch[network.SwitchID(u)] = append(bySwitch[network.SwitchID(u)], st.ci.Names[x])
		}
	}
	rm := program.DefaultResourceModel
	for u, names := range bySwitch {
		sw, err := st.ci.Topo.Switch(u)
		if err != nil {
			return
		}
		if !FitsSwitch(st.ci.Graph, names, sw, rm) {
			return
		}
	}
	// ε1 bound via the dense latency table over the communicating
	// pairs (lat < 0 marks an unreachable pair).
	if st.opts.Epsilon1 > 0 {
		lat := st.ci.Topo.LatencyTable()
		var total time.Duration
		//hermes:hot
		for _, cell := range st.active {
			if st.swCnt[cell] == 0 {
				continue
			}
			l := lat[cell]
			if l < 0 {
				return
			}
			total += l
		}
		if total > st.opts.Epsilon1 {
			return
		}
	}
	st.bestA = st.curMax
	st.bestW = st.curW
	st.bestSet = append([]int32(nil), st.assign...)
	st.haveBest = true
	// Publish the improvement so sibling branches prune against it
	// (monotone min; equality keeps the first stored value).
	val := st.incumbentScore()
	for {
		cur := st.sharedBest.Load()
		if val >= cur || st.sharedBest.CompareAndSwap(cur, val) {
			break
		}
	}
}
