// Package placement is the core of Hermes: the optimization framework
// of paper §V. It places every MAT of a merged TDG onto pipeline stages
// of programmable switches (decision variables x(a,i,u)), chooses
// inter-switch paths (y(u,v,p)), and evaluates the three objectives —
// the per-packet byte overhead A_max (Eq. 1), the end-to-end latency
// t_e2e (Eq. 2), and the occupied-switch count Q_occ (Eq. 3) — under
// the ε-constraint scheme of problem P#1.
//
// Two solvers are provided:
//
//   - Greedy: the paper's Algorithm 2 heuristic (near-optimal, fast),
//   - Exact: a specialized branch & bound that proves optimality on
//     small instances (the paper's Gurobi-backed "Optimal"). Its
//     differential twin, the literal MILP encoding of P#1 solved with
//     internal/milp, lives in the tests (ilp_oracle_test.go).
package placement

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

// SwitchLabel renders a switch identifier together with its
// human-readable name, e.g. `switch 3 ("core2")`. Validation errors
// and the lint engine share it so diagnostics always carry the
// offending switch identity.
func SwitchLabel(t *network.Topology, id network.SwitchID) string {
	if t != nil {
		if sw, err := t.Switch(id); err == nil && sw.Name != "" {
			return fmt.Sprintf("switch %d (%q)", id, sw.Name)
		}
	}
	return fmt.Sprintf("switch %d", id)
}

// StagePlacement records where one MAT landed: a switch plus the
// half-open run of stages [Start, End] it occupies, with the resource
// amount consumed in each stage. Start corresponds to ρ_begin and End
// to ρ_end in Eq. 8.
type StagePlacement struct {
	Switch network.SwitchID
	// Start and End are 0-based stage indexes, inclusive.
	Start, End int
	// PerStage[i] is the resource consumed in stage Start+i; this is
	// R(a,i,u) restricted to the occupied stages.
	PerStage []float64
}

// Placed reports whether sp, an entry of a plan's by-id store
// (Plan.Placements), places its MAT: the store gives a MAT the plan
// does not place Switch -1 and a nil PerStage, and a placed one a
// non-nil PerStage, so a placement on switch -1 is still told apart.
func (sp StagePlacement) Placed() bool { return sp.PerStage != nil }

// Total returns the summed resource consumption R(a).
func (sp StagePlacement) Total() float64 {
	t := 0.0
	for _, v := range sp.PerStage {
		t += v
	}
	return t
}

// RouteKey identifies an ordered communicating switch pair.
type RouteKey struct {
	From, To network.SwitchID
}

// Plan is a complete deployment decision.
//
// A plan holds its placements in two stores: Assignments, keyed by MAT
// name, and a by-id store, one placement per node id of Graph, that
// Placements returns. The materializer writes the by-id store and fills
// Assignments once as its name view; any other plan (decoded,
// hand-built, or invalidated) adopts the by-id store from Assignments
// on first use. Validate and the lint engine re-adopt at entry, so a
// gate always judges Assignments; the back half after the gates
// (Compile, Verify, the proof's lowering, the rollout diff, Diff) reads
// the by-id store.
type Plan struct {
	// Graph is the merged TDG the plan deploys.
	Graph *tdg.Graph
	// Topo is the substrate network.
	Topo *network.Topology
	// Assignments maps MAT name to its placement (the x variables): the
	// name view of the by-id store. Its keys are names of Graph's nodes:
	// Validate rejects any other. A caller that writes it directly must
	// call InvalidateCache before any other reader of the plan runs.
	Assignments map[string]StagePlacement
	// Routes maps each communicating ordered switch pair to the chosen
	// path (the y variables).
	Routes map[RouteKey]network.Path
	// SolverName and SolveTime record provenance.
	SolverName string
	SolveTime  time.Duration
	// Proven reports whether the solver proved optimality.
	Proven bool

	// pairCache memoizes PairBytes between mutations. It is plain
	// fields, not a mutex-guarded box, so plans stay value-copyable;
	// the cached map must never be mutated in place. Callers that
	// mutate Assignments directly must call InvalidateCache (Validate
	// and the lint engine re-derive defensively at entry).
	pairCache   map[RouteKey]int
	pairCacheOK bool
	// placed is the by-id store: each MAT's placement by node id of
	// Graph; where Assignments places none, Switch -1 and a nil PerStage
	// (a placed entry's is never nil). hosts is its host table (hosts[id]
	// = placed[id].Switch) and used its UsedSwitches, both derived with
	// it. None is ever written in place once stored: a value copy of the
	// plan shares them, and re-adoption swaps in new slices. stale marks
	// them for re-adoption from Assignments; the re-adoption keeps them
	// while every entry still matches.
	placed []StagePlacement
	hosts  []network.SwitchID
	used   []network.SwitchID
	stale  bool
}

// InvalidateCache drops memoized derived state after a direct mutation
// of the plan's assignments: the pair map, and the by-id store with its
// host table, which the next reader re-adopts from Assignments.
func (p *Plan) InvalidateCache() {
	p.pairCache = nil
	p.pairCacheOK = false
	p.stale = true
}

// Placements returns the by-id store: the placement of each MAT indexed
// by node id of p.Graph; the entry of a MAT the plan does not place has
// Switch -1 and reports !Placed. The slice must be treated as
// read-only; see InvalidateCache. The first call after a mutation
// re-adopts the store, so it must not race another reader of the same
// plan; a plan the solvers or DecodePlan return is already adopted.
func (p *Plan) Placements() []StagePlacement {
	p.adopted()
	return p.placed
}

// Hosts returns the host table: the switch hosting each MAT, indexed by
// node id of p.Graph, -1 for a MAT the plan does not place. It is what
// SwitchOf answers by name, for the back half to read by Edge.Endpoints
// instead of hashing names. Like Placements, it is read-only and the
// first call after a mutation stores the memo.
func (p *Plan) Hosts() []network.SwitchID {
	p.adopted()
	return p.hosts
}

// adopted makes the by-id store current: adopted from Assignments when
// it is stale or missing, or sized for another graph.
func (p *Plan) adopted() {
	n := p.Graph.NumNodes()
	if !p.stale && p.hosts != nil && len(p.hosts) == n {
		return
	}
	a := p.readopt(n)
	for id := range n {
		sp, ok := p.Assignments[p.Graph.NodeOf(int32(id)).Name()]
		a.set(id, sp, ok)
	}
	a.store(p)
}

// adoption re-reads the by-id store from Assignments one node at a
// time. While every entry matches the store it had, it writes nothing,
// so re-adopting an untouched plan allocates nothing; the first entry
// that differs copies the store.
type adoption struct {
	prev, next []StagePlacement
}

// readopt starts a re-adoption of p's store for a graph of n nodes.
func (p *Plan) readopt(n int) adoption {
	a := adoption{prev: p.placed}
	if len(a.prev) != n || p.hosts == nil {
		a.prev, a.next = nil, make([]StagePlacement, n)
	}
	return a
}

// set records node id's placement sp, or that it has none (!ok).
func (a *adoption) set(id int, sp StagePlacement, ok bool) {
	switch {
	case !ok:
		sp = StagePlacement{Switch: -1}
	case sp.PerStage == nil:
		sp.PerStage = []float64{} // placed, whatever its window
	}
	if a.next == nil {
		if samePlacement(a.prev[id], sp) {
			return
		}
		a.next = make([]StagePlacement, len(a.prev))
		copy(a.next, a.prev[:id])
	}
	a.next[id] = sp
}

// store installs the adopted store on p, with its host table and used
// switches, and marks it current. A plan is fully derived once adopted,
// so concurrent readers of an adopted plan write nothing.
func (a *adoption) store(p *Plan) {
	p.stale = false
	if a.next == nil {
		return
	}
	p.placed = a.next
	p.hosts = make([]network.SwitchID, len(a.next))
	for id, sp := range a.next {
		p.hosts[id] = sp.Switch
	}
	p.used = usedOf(p.placed, p.Topo)
}

// samePlacement reports whether a and b are the same placement: equal
// windows over the same per-stage slice.
func samePlacement(a, b StagePlacement) bool {
	return a.Switch == b.Switch && a.Start == b.Start && a.End == b.End &&
		len(a.PerStage) == len(b.PerStage) && (len(a.PerStage) == 0 || &a.PerStage[0] == &b.PerStage[0])
}

// SwitchOf returns the switch hosting the named MAT.
func (p *Plan) SwitchOf(name string) (network.SwitchID, bool) {
	sp, ok := p.Assignments[name]
	return sp.Switch, ok
}

// UsedSwitches returns the distinct switches hosting at least one MAT,
// ascending, as a fresh slice the caller may keep or sort. It is
// memoized beside the host table: a heal asks for it about six times.
func (p *Plan) UsedSwitches() []network.SwitchID {
	return slices.Clone(p.usedSwitches())
}

// usedSwitches is UsedSwitches' memo, read-only.
func (p *Plan) usedSwitches() []network.SwitchID {
	p.adopted()
	return p.used
}

// usedOf lists the distinct switches of a by-id store's placements,
// ascending. It marks the switches by ID, with no map and no sort of
// the placements.
func usedOf(placed []StagePlacement, topo *network.Topology) []network.SwitchID {
	n := 0
	if topo != nil {
		n = topo.NumSwitches()
	}
	seen := make([]bool, n)
	var off []network.SwitchID // off the topology: a hand-built plan
	used := 0
	for _, sp := range placed {
		switch sw := sp.Switch; {
		case !sp.Placed():
		case sw < 0 || int(sw) >= n:
			off = append(off, sw)
		case !seen[sw]:
			seen[sw] = true
			used++
		}
	}
	out := make([]network.SwitchID, 0, used+len(off))
	for id, ok := range seen {
		if ok {
			out = append(out, network.SwitchID(id))
		}
	}
	out = append(out, off...)
	slices.Sort(out)
	return slices.Compact(out)
}

// QOcc is Eq. 3: the number of occupied programmable switches.
func (p *Plan) QOcc() int { return len(p.usedSwitches()) }

// PairBytes aggregates Σ A(a,b) per ordered communicating switch pair.
// The map is memoized on the plan (AMax, TE2E, OptimizeRoutes, and lint's
// HL101–HL111 checks all re-derive it otherwise) and must be treated
// as read-only; see InvalidateCache.
func (p *Plan) PairBytes() map[RouteKey]int {
	if p.pairCacheOK {
		return p.pairCache
	}
	hosts := p.Hosts()
	out := map[RouteKey]int{}
	//hermes:hot
	for _, e := range p.Graph.EdgeList() {
		from, to := e.Endpoints()
		if ua, ub := hosts[from], hosts[to]; ua >= 0 && ub >= 0 && ua != ub {
			out[RouteKey{From: ua, To: ub}] += e.MetadataBytes
		}
	}
	p.pairCache = out
	p.pairCacheOK = true
	return out
}

// AMax is Eq. 1: the maximum metadata bytes delivered between any
// ordered pair of programmable switches.
func (p *Plan) AMax() int {
	max := 0
	for _, b := range p.PairBytes() {
		if b > max {
			max = b
		}
	}
	return max
}

// TotalCrossBytes sums A(a,b) over all cross-switch edges; a secondary
// diagnostic (total coordination traffic added per packet).
func (p *Plan) TotalCrossBytes() int {
	t := 0
	for _, b := range p.PairBytes() {
		t += b
	}
	return t
}

// TE2E is Eq. 2: the summed latency of the chosen paths between
// communicating switch pairs.
func (p *Plan) TE2E() time.Duration {
	var total time.Duration
	for key := range p.PairBytes() {
		if path, ok := p.Routes[key]; ok {
			total += path.Latency
		}
	}
	return total
}

// switchDAG is Kahn's algorithm on a contracted switch graph over
// dense ids 0..n-1. arcs packs each cross-switch pair as from<<32 | to,
// in any order and with repeats: a repeated arc adds to its target's
// in-degree once per copy and is retired once per copy, so neither the
// verdict nor the order depends on them. A counting pass lays the arcs
// out by source. The lowest ready id is always taken next: the ready
// list stays sorted, and a switch has few enough neighbours that
// inserting into it beats a heap. It returns the order, and indeg,
// whose positive entries are the switches left stuck on a cycle when
// the order is shorter than n.
func switchDAG(n int, arcs []uint64) (order, indeg []int32) {
	// succ[head[u]:head[u+1]] are switch u's successors.
	buf := make([]int32, 4*n+1+len(arcs))
	indeg, ready, head, succ := buf[:n:n], buf[n:n:2*n], buf[2*n:3*n+1], buf[3*n+1:3*n+1+len(arcs)]
	order = buf[3*n+1+len(arcs):][:0]
	for _, a := range arcs {
		head[a>>32+1]++
		indeg[uint32(a)]++
	}
	for u := 0; u < n; u++ {
		head[u+1] += head[u]
		if indeg[u] == 0 {
			ready = append(ready, int32(u)) // ascending
		}
	}
	// fill[u] is where switch u's next successor goes; head is intact
	// once every arc is placed.
	fill := order[:n]
	copy(fill, head[:n])
	for _, a := range arcs {
		u := a >> 32
		succ[fill[u]] = int32(uint32(a))
		fill[u]++
	}
	for len(ready) > 0 {
		u := ready[0]
		ready = ready[1:]
		order = append(order, u)
		for _, v := range succ[head[u]:head[u+1]] {
			indeg[v]--
			if indeg[v] == 0 {
				i, _ := slices.BinarySearch(ready, v)
				ready = slices.Insert(ready, i, v)
			}
		}
	}
	return order, indeg
}

// hostsAcyclic reports whether the contracted switch graph of a by-id
// assignment (a switch per node id of g, -1 unassigned, every switch
// below numSwitches) is a DAG; unassigned MATs contribute no arcs.
func hostsAcyclic(g *tdg.Graph, byID []network.SwitchID, numSwitches int) bool {
	// slot numbers the assignment's switches densely, plus one.
	slot := make([]int32, numSwitches)
	n := int32(0)
	for _, u := range byID {
		if u >= 0 && slot[u] == 0 {
			n++
			slot[u] = n
		}
	}
	var arcs []uint64
	//hermes:hot
	for _, e := range g.EdgeList() {
		from, to := e.Endpoints()
		if ua, ub := byID[from], byID[to]; ua >= 0 && ub >= 0 && ua != ub {
			arcs = append(arcs, uint64(slot[ua]-1)<<32|uint64(slot[ub]-1))
		}
	}
	order, _ := switchDAG(int(n), arcs)
	return len(order) == int(n)
}

// cycleError names the switches a cyclic contraction leaves stuck:
// nodes[u] for every dense id u with indeg[u] > 0.
func (p *Plan) cycleError(nodes []network.SwitchID, indeg []int32) error {
	var stuck []string
	for u, d := range indeg {
		if d > 0 {
			stuck = append(stuck, SwitchLabel(p.Topo, nodes[u]))
		}
	}
	sort.Strings(stuck)
	return fmt.Errorf("placement: switch-level dependency graph is cyclic among %s",
		strings.Join(stuck, ", "))
}

// SwitchOrder returns the order in which packets must visit the used
// switches.
func (p *Plan) SwitchOrder() ([]network.SwitchID, error) {
	hosts := p.Hosts()
	nodes := p.usedSwitches()
	id := func(sw network.SwitchID) uint64 {
		i, _ := slices.BinarySearch(nodes, sw)
		return uint64(i)
	}
	var arcs []uint64
	//hermes:hot
	for _, e := range p.Graph.EdgeList() {
		from, to := e.Endpoints()
		if ua, ub := hosts[from], hosts[to]; ua >= 0 && ub >= 0 && ua != ub {
			arcs = append(arcs, id(ua)<<32|id(ub))
		}
	}
	order, indeg := switchDAG(len(nodes), arcs)
	if len(order) != len(nodes) {
		return nil, p.cycleError(nodes, indeg)
	}
	out := make([]network.SwitchID, len(order))
	for i, u := range order {
		out[i] = nodes[u]
	}
	return out, nil
}

// stageLoads is Validate's Eq. 9 scratch: the used switches numbered
// densely in first-seen order (slot[sw] = index + 1, 0 for a switch
// nothing uses yet), switch c's per-stage loads at load[base[c]:
// base[c+1]], and the first placement found with a negative stage
// amount.
type stageLoads struct {
	slot     []int32
	used     []network.SwitchID
	base     []int32
	load     []float64
	negative string
}

// add folds one placement on sw into the loads. The caller has checked
// the stage window against sw's pipeline.
func (sl *stageLoads) add(name string, sp StagePlacement, sw *network.Switch) {
	c := sl.slot[sp.Switch] - 1
	if c < 0 {
		c = int32(len(sl.used))
		sl.slot[sp.Switch] = c + 1
		sl.used = append(sl.used, sp.Switch)
		n := len(sl.load)
		sl.base = append(sl.base, int32(n))
		sl.load = slices.Grow(sl.load, sw.Stages)[:n+sw.Stages]
		clear(sl.load[n:])
	}
	stages := sl.load[sl.base[c]:][sp.Start:]
	for i, amt := range sp.PerStage {
		if amt < -1e-12 && sl.negative == "" {
			sl.negative = name
		}
		stages[i] += amt
	}
}

// Validate checks every constraint of P#1 against the plan:
// node deployment (Eq. 6), edge deployment across switches (Eq. 7),
// intra-switch stage ordering (Eq. 8), per-stage resource capacity
// (Eq. 9), and the ε bounds when positive.
//
// It re-derives everything from Assignments on every call and runs on
// node ids: one walk over the graph's nodes resolves each MAT's
// placement once, checks Eq. 6, folds its stage amounts into a load
// slab over the used switches and re-adopts the by-id store; the edge
// walk reads each endpoint's host and stage window from that store by
// Edge.Endpoints; the contracted switch graph is checked on dense
// switch ids. An assignment for a MAT outside the graph is rejected,
// naming the smallest such name, so every later stage may take a plan's
// MATs to be its graph's nodes. Where several placements break the same
// rule, the first in node-id order and the lowest switch ID are
// reported.
func (p *Plan) Validate(rm program.ResourceModel, eps1 time.Duration, eps2 int) error {
	if p.Graph == nil || p.Topo == nil {
		return fmt.Errorf("placement: plan missing graph or topology")
	}
	// Tests (and replans) mutate Assignments in place before
	// re-validating; never judge a tampered plan through a stale memo.
	p.InvalidateCache()
	g, topo := p.Graph, p.Topo
	n := g.NumNodes()
	a := p.readopt(n)
	sl := stageLoads{slot: make([]int32, topo.NumSwitches())}
	// Eq. 6: every MAT deployed, on a programmable switch, within the
	// stage range, with the full requirement placed. Eq. 9's loads
	// accumulate in the same walk.
	for id := range n {
		node := g.NodeOf(int32(id))
		name := node.Name()
		sp, ok := p.Assignments[name]
		if !ok {
			return fmt.Errorf("placement: MAT %q not deployed (Eq. 6)", name)
		}
		a.set(id, sp, true)
		sw, err := topo.Switch(sp.Switch)
		if err != nil {
			return fmt.Errorf("placement: MAT %q: %w", name, err)
		}
		if !sw.Programmable {
			return fmt.Errorf("placement: MAT %q on non-programmable switch %q", name, sw.Name)
		}
		// Fault overlay: a down switch hosts nothing. Paired with lint
		// rule HL112, which restates this check independently.
		if topo.SwitchIsDown(sp.Switch) {
			return fmt.Errorf("placement: MAT %q on down switch %q", name, sw.Name)
		}
		if sp.Start < 0 || sp.End >= sw.Stages || sp.Start > sp.End {
			return fmt.Errorf("placement: MAT %q on %s has stage range [%d,%d] outside 0..%d",
				name, SwitchLabel(topo, sp.Switch), sp.Start, sp.End, sw.Stages-1)
		}
		if len(sp.PerStage) != sp.End-sp.Start+1 {
			return fmt.Errorf("placement: MAT %q per-stage slice length %d != range %d",
				name, len(sp.PerStage), sp.End-sp.Start+1)
		}
		req := rm.Requirement(node.MAT)
		if math.Abs(sp.Total()-req) > 1e-6 {
			return fmt.Errorf("placement: MAT %q places %g of required %g resources",
				name, sp.Total(), req)
		}
		sl.add(name, sp, sw)
	}
	a.store(p)
	placed, hosts := p.placed, p.hosts
	// Every node is placed, so any further assignment is for a MAT
	// outside the graph, where x(a,i,u) is undefined.
	if len(p.Assignments) > n {
		var foreign string
		for name := range p.Assignments {
			if _, ok := g.ID(name); !ok && (foreign == "" || name < foreign) {
				foreign = name
			}
		}
		return fmt.Errorf("placement: MAT %q is not in the plan's graph (Eq. 6)", foreign)
	}
	// Eq. 9: no negative stage amount, and per-stage capacity, switches
	// by ascending ID: perm lists the used switches' compact indexes in
	// that order, and rank[c] is compact switch c's dense id.
	if sl.negative != "" {
		return fmt.Errorf("placement: MAT %q has negative stage amount", sl.negative)
	}
	buf := make([]int32, 2*len(sl.used))
	perm, rank := buf[:0], buf[len(sl.used):]
	for _, c := range sl.slot {
		if c > 0 {
			rank[c-1] = int32(len(perm))
			perm = append(perm, c-1)
		}
	}
	sl.base = append(sl.base, int32(len(sl.load)))
	for _, c := range perm {
		sw, _ := topo.Switch(sl.used[c])
		for i, amt := range sl.load[sl.base[c]:sl.base[c+1]] {
			if amt > sw.StageCapacity+1e-6 {
				return fmt.Errorf("placement: switch %q stage %d overcommitted: %g > %g (Eq. 9)",
					sw.Name, i, amt, sw.StageCapacity)
			}
		}
	}
	// Eq. 7 and Eq. 8 per edge; the walk collects the cross-switch
	// arcs the ordering check below contracts.
	var arcs []uint64
	//hermes:hot
	for _, e := range g.EdgeList() {
		from, to := e.Endpoints()
		ua, ub := hosts[from], hosts[to]
		if ua == ub {
			if end, start := placed[from].End, placed[to].Start; end >= start {
				return fmt.Errorf("placement: co-located dependency %s->%s violates stage order: end %d >= start %d (Eq. 8)",
					e.From, e.To, end, start)
			}
			continue
		}
		ra, rb := rank[sl.slot[ua]-1], rank[sl.slot[ub]-1]
		arcs = append(arcs, uint64(ra)<<32|uint64(rb))
		path, ok := p.Routes[RouteKey{From: ua, To: ub}]
		if !ok {
			return fmt.Errorf("placement: cross-switch dependency %s->%s has no route %s -> %s (Eq. 7)",
				e.From, e.To, SwitchLabel(topo, ua), SwitchLabel(topo, ub))
		}
		if len(path.Switches) == 0 || path.Switches[0] != ua || path.Switches[len(path.Switches)-1] != ub {
			return fmt.Errorf("placement: route for %s->%s does not connect %s to %s",
				e.From, e.To, SwitchLabel(topo, ua), SwitchLabel(topo, ub))
		}
	}
	// Global ordering feasibility.
	if order, indeg := switchDAG(len(sl.used), arcs); len(order) != len(sl.used) {
		nodes := make([]network.SwitchID, len(perm))
		for r, c := range perm {
			nodes[r] = sl.used[c]
		}
		return p.cycleError(nodes, indeg)
	}
	// ε bounds.
	if eps1 > 0 {
		if got := p.TE2E(); got > eps1 {
			return fmt.Errorf("placement: t_e2e %v exceeds ε1 %v (Eq. 4)", got, eps1)
		}
	}
	if eps2 > 0 {
		if got := len(sl.used); got > eps2 {
			return fmt.Errorf("placement: Q_occ %d exceeds ε2 %d (Eq. 5)", got, eps2)
		}
	}
	return nil
}

// Summary is a compact textual report of the plan's objectives.
func (p *Plan) Summary() string {
	return fmt.Sprintf("%s: A_max=%dB cross=%dB Q_occ=%d t_e2e=%v solve=%v",
		p.SolverName, p.AMax(), p.TotalCrossBytes(), p.QOcc(), p.TE2E(), p.SolveTime)
}
