package placement

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/tdg"
)

// Exact is a specialized branch & bound over MAT→switch assignments
// that proves the optimal A_max on small instances. It plays the role
// of the paper's Gurobi-backed "Optimal" reference. On larger
// instances it degrades gracefully: given a Deadline, or once it has
// visited exactMaxNodes search nodes, it returns the best incumbent
// found, with Proven=false — mirroring the paper's two-hour solver cap
// in Fig. 7.
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
	// pair is the flat S×S cross-byte matrix; pairLive replicates the
	// map entry lifecycle exactly (an entry exists from its first add
	// until a subtraction leaves it ≤0 — a zero-byte edge keeps its
	// pair alive for the ε1 sum, just like the map it replaces). swCnt
	// counts contributing edges per cell: the contracted switch graph
	// used for cycle pruning. active/inActive track ever-touched cells
	// so leaf scans stay O(pairs).
	pair     []int32
	pairLive []bool
	swCnt    []int32
	active   []int32
	inActive []bool
	curMax   int
	distinct int

	// Shared undo stack: each dfs candidate records a frame base and
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
		assign:   make([]int32, len(ci.Names)),
		load:     make([]float64, s),
		pair:     make([]int32, s*s),
		pairLive: make([]bool, s*s),
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
	c.pairLive = append([]bool(nil), st.pairLive...)
	c.swCnt = append([]int32(nil), st.swCnt...)
	c.active = append([]int32(nil), st.active...)
	c.inActive = append([]bool(nil), st.inActive...)
	c.undoCell = make([]int32, 0, cap(st.undoCell))
	c.undoByte = make([]int32, 0, cap(st.undoByte))
	c.seen = make([]bool, len(st.seen))
	c.stack = make([]int32, 0, cap(st.stack))
	return &c
}

// addPair folds bytes into a pair cell and bumps the contracted-graph
// edge count.
func (st *exactState) addPair(cell, bytes int32) {
	if !st.inActive[cell] {
		st.inActive[cell] = true
		st.active = append(st.active, cell)
	}
	st.pair[cell] += bytes
	st.pairLive[cell] = true
	st.swCnt[cell]++
}

// pushUndo records one pair delta on the shared undo stack. The stack
// is pre-sized to the edge count — each dfs frame pushes at most one
// entry per in-edge of a distinct MAT — so steady-state pushes never
// grow it.
func (st *exactState) pushUndo(cell, bytes int32) {
	st.undoCell = append(st.undoCell, cell)
	st.undoByte = append(st.undoByte, bytes)
}

// subPair reverses one addPair (LIFO), retiring the pair when its
// bytes decay to zero — the dense twin of the map's delete-on-≤0.
func (st *exactState) subPair(cell, bytes int32) {
	st.pair[cell] -= bytes
	if st.pair[cell] <= 0 {
		st.pairLive[cell] = false
	}
	st.swCnt[cell]--
}

// bumpWeighted folds one addPair into the running weighted score.
func (st *exactState) bumpWeighted(cell, bytes int32) {
	if st.wt == nil {
		return
	}
	if st.wobj == TrafficWeightedMax {
		if wv := st.wt.W[cell] * int64(st.pair[cell]); wv > st.curW {
			st.curW = wv
		}
		return
	}
	st.curW += st.wt.W[cell] * int64(bytes)
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
// under the active objective (strict improvement only, preserving the
// warm-start ordering semantics).
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
	rm := opts.resourceModel()
	ci := Compile(g, topo, rm)
	st := newExactState(ci, opts)
	st.orderIdx = make([]int32, len(order))
	st.orderReq = make([]float64, len(order))
	for i, name := range order {
		x := ci.Index[name]
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
		wt, werr := ci.CompileWeights(opts.Traffic)
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

	// Under the weighted objective, the structural-inflation cap is
	// anchored to an unweighted greedy baseline: the weighted optimum
	// may not inflate A_max beyond AMaxSlack × the plan a structural
	// solve would ship.
	if st.wt != nil {
		baseOpts := opts
		baseOpts.Traffic = nil
		if base, err := (Greedy{}).Solve(g, topo, baseOpts); err == nil {
			st.amaxCap = opts.amaxCap(base.AMax())
			st.adopt(ci.PlanAssign(base))
		}
	}
	// Warm start with the greedy heuristic to obtain a strong incumbent
	// (the greedy itself reuses opts.Warm when set, so a warm seed
	// tightens this bound transitively).
	if warm, err := (Greedy{}).Solve(g, topo, opts); err == nil {
		st.adopt(ci.PlanAssign(warm))
	}
	// Seed opts.Warm directly as well: the contract is that a
	// warm-started "Optimal" never reports worse than its seed, even
	// when the heuristic errors out (or lands above the seed).
	if assign, ok := warmSeed(g, topo, opts); ok {
		st.adopt(ci.DenseAssign(assign))
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

	plan, err := e.materialize(st)
	if err != nil {
		return nil, err
	}
	plan.SolverName = e.Name()
	plan.SolveTime = time.Since(start)
	plan.Proven = !st.capped
	return finishPlan(plan, opts)
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
	x := st.orderIdx[i]
	req := st.orderReq[i]
	s := st.ci.S

	usedHighest := -1
	if st.symmetry {
		//hermes:hot
		for idx, u := range st.cands {
			if st.load[u] > 0 {
				usedHighest = idx
			}
		}
	}
	//hermes:hot
	for idx, u := range st.cands {
		ui := int32(u)
		// Symmetry: only the first unused switch may be opened (with no
		// switches in use yet that is candidate 0).
		if st.symmetry && st.load[u] == 0 && idx > usedHighest+1 {
			continue
		}
		if st.load[u]+req > st.ci.Caps[u]+1e-9 {
			continue
		}
		newSwitch := st.load[u] == 0
		if newSwitch && st.distinct+1 > st.eps2 {
			continue
		}
		// Incremental pair bytes and cycle check over in-edges, with a
		// frame on the shared undo stack.
		base := len(st.undoCell)
		prevMax := st.curMax
		prevW := st.curW
		ok := true
		for _, ei := range st.ci.In[x] {
			pu := st.assign[st.ci.EdgeFrom[ei]]
			if pu < 0 || pu == ui {
				continue
			}
			if st.reachable(ui, pu) {
				ok = false
				break
			}
			cell := pu*s + ui
			b := st.ci.EdgeBytes[ei]
			st.addPair(cell, b)
			if int(st.pair[cell]) > st.curMax {
				st.curMax = int(st.pair[cell])
			}
			st.bumpWeighted(cell, b)
			st.pushUndo(cell, b)
		}
		if ok && st.boundOK() {
			st.assign[x] = ui
			st.load[u] += req
			if newSwitch {
				st.distinct++
			}
			st.dfs(i + 1)
			st.load[u] -= req
			if newSwitch {
				st.distinct--
				st.load[u] = 0
			}
			st.assign[x] = -1
		}
		for j := len(st.undoCell) - 1; j >= base; j-- {
			st.subPair(st.undoCell[j], st.undoByte[j])
		}
		st.undoCell = st.undoCell[:base]
		st.undoByte = st.undoByte[:base]
		st.curMax = prevMax
		st.curW = prevW
		if st.capped {
			return
		}
	}
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
// warm start, plus the shared atomic bound for cross-branch pruning
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
		frontier = frontier[1:]
		for _, ch := range fn.st.expand(fn.depth) {
			frontier = append(frontier, frontierNode{
				st:    ch.st,
				depth: fn.depth + 1,
				path:  append(append([]int(nil), fn.path...), ch.candIdx),
			})
		}
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
		better := b.haveBest && (!root.haveBest || b.bestA < root.bestA)
		if root.wt != nil {
			better = b.haveBest && (!root.haveBest || b.bestW < root.bestW)
		}
		if better {
			root.bestA = b.bestA
			root.bestW = b.bestW
			root.bestSet = b.bestSet
			root.haveBest = true
		}
	}
}

// expandedChild pairs a child state with the candidate index that
// produced it (for DFS-order ranking).
type expandedChild struct {
	st      *exactState
	candIdx int
}

// expand returns the surviving child states for assigning orderIdx[i],
// applying exactly the candidate filters of dfs (symmetry, capacity,
// ε2, switch-graph acyclicity, incumbent bound). The receiver is not
// mutated; each child is an independent clone with the assignment
// committed.
func (st *exactState) expand(i int) []expandedChild {
	x := st.orderIdx[i]
	req := st.orderReq[i]
	s := st.ci.S

	usedHighest := -1
	if st.symmetry {
		for idx, u := range st.cands {
			if st.load[u] > 0 {
				usedHighest = idx
			}
		}
	}
	var out []expandedChild
	for idx, u := range st.cands {
		ui := int32(u)
		if st.symmetry && st.load[u] == 0 && idx > usedHighest+1 {
			continue
		}
		if st.load[u]+req > st.ci.Caps[u]+1e-9 {
			continue
		}
		newSwitch := st.load[u] == 0
		if newSwitch && st.distinct+1 > st.eps2 {
			continue
		}
		ch := st.clone()
		ok := true
		for _, ei := range st.ci.In[x] {
			pu := ch.assign[st.ci.EdgeFrom[ei]]
			if pu < 0 || pu == ui {
				continue
			}
			if ch.reachable(ui, pu) {
				ok = false
				break
			}
			cell := pu*s + ui
			b := st.ci.EdgeBytes[ei]
			ch.addPair(cell, b)
			if int(ch.pair[cell]) > ch.curMax {
				ch.curMax = int(ch.pair[cell])
			}
			ch.bumpWeighted(cell, b)
		}
		if !ok || !ch.boundOK() {
			continue
		}
		ch.assign[x] = ui
		ch.load[u] += req
		if newSwitch {
			ch.distinct++
		}
		out = append(out, expandedChild{st: ch, candIdx: idx})
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
	// Stage-level packing per switch.
	bySwitch := map[network.SwitchID][]string{}
	for x, u := range st.assign {
		if u >= 0 {
			bySwitch[network.SwitchID(u)] = append(bySwitch[network.SwitchID(u)], st.ci.Names[x])
		}
	}
	rm := st.opts.resourceModel()
	for u, names := range bySwitch {
		sw, err := st.ci.Topo.Switch(u)
		if err != nil {
			return
		}
		if !FitsSwitch(st.ci.Graph, names, sw, rm) {
			return
		}
	}
	// ε1 bound via the dense latency table over live communicating
	// pairs (lat < 0 marks an unreachable pair).
	if st.opts.Epsilon1 > 0 {
		lat := st.ci.latencies()
		var total time.Duration
		//hermes:hot
		for _, cell := range st.active {
			if !st.pairLive[cell] {
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

// materialize turns the best assignment into a full plan with stage
// packing and routes.
func (e Exact) materialize(st *exactState) (*Plan, error) {
	plan := &Plan{
		Graph:       st.ci.Graph,
		Topo:        st.ci.Topo,
		Assignments: map[string]StagePlacement{},
	}
	bySwitch := map[network.SwitchID][]string{}
	for x, u := range st.bestSet {
		if u >= 0 {
			bySwitch[network.SwitchID(u)] = append(bySwitch[network.SwitchID(u)], st.ci.Names[x])
		}
	}
	rm := st.opts.resourceModel()
	for u, names := range bySwitch {
		sw, err := st.ci.Topo.Switch(u)
		if err != nil {
			return nil, err
		}
		placed, err := packShared(st.ci.Graph, names, sw, rm)
		if err != nil {
			return nil, fmt.Errorf("placement: materializing exact plan: %w", err)
		}
		for name, sp := range placed {
			plan.Assignments[name] = sp
		}
	}
	if err := addRoutesForCrossPairs(plan); err != nil {
		return nil, err
	}
	return plan, nil
}
