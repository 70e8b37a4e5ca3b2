// Compiled placement core: the solvers' inner loops evaluate the
// paper's P#1 objective (Eq. 1) and constraints (Eq. 6–9) millions of
// times per solve, and the string-keyed boundary representation
// (map[string]SwitchID assignments, map[RouteKey]int pair tables) pays
// hashing and allocation on every candidate. CompiledInstance interns
// MAT names and switch IDs into dense int32 indices once per
// (graph, topology, resource model) and exposes allocation-free
// scoring kernels over flat arrays; the map-based API stays as the
// boundary (compile on solver entry, decode into Plan on exit). The
// map-based originals are retained in ref.go as differential oracles —
// every kernel is property-tested to agree with its map twin
// bit-for-bit.
package placement

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

// compiledMemoKey memoizes the CompiledInstance on the graph, next to
// the pack memo: the graph drops it on any mutation, and Compile
// revalidates the topology/model side itself.
const compiledMemoKey = "placement.compiledInstance"

// CompiledInstance is the dense-index form of one placement instance.
// MAT index space is the alphabetically sorted node-name list (the
// order the climb iterates); switch index space is the topology's
// SwitchID space, which is dense by construction. All
// fields are built once and treated as immutable; scratch state lives
// in PairTable/MoveScratch/CycleScratch values owned by each caller,
// so one instance is safe for concurrent use.
type CompiledInstance struct {
	Graph *tdg.Graph
	Topo  *network.Topology

	// Names and Index translate between the boundary representation
	// and MAT index space; Names is sorted.
	Names []string
	Index map[string]int32

	// Edge arrays in tdg.EdgeList order. Out/In/Incident hold edge
	// indices per MAT in that same order: the kernels only fold
	// commutative sums (and order-free verdicts) over them, so any fixed
	// order yields identical scores.
	EdgeFrom, EdgeTo []int32
	EdgeBytes        []int32
	Out, In          [][]int32
	Incident         [][]int32

	// Req is R(a) per MAT under rm.
	Req []float64

	// TopoPos is each MAT's position in Graph's cached topological order
	// — the full graph's, also on a subset instance — which is the
	// canonical order stage packing processes a MAT set in. Nil when the
	// graph is cyclic (no solver or repair gets that far).
	TopoPos []int32

	// Per-switch trait arrays indexed by SwitchID; Prog lists the
	// programmable switch IDs ascending.
	S            int32
	Programmable []bool
	Stages       []int32
	StageCap     []float64
	Caps         []float64
	Prog         []network.SwitchID

	rm    program.ResourceModel
	links int
	// epoch pins the topology's fault state at compile time; a fault
	// mutation (switch/link down or heal) bumps the topology's counter
	// and forces a rebuild, since Programmable/Prog and lat bake the
	// overlay in.
	epoch uint64

	// lat is the dense shortest-path latency table, fetched lazily:
	// parallel Exact branches share one instance, so the fetch is
	// guarded by a Once.
	latOnce sync.Once
	lat     []time.Duration
}

// Compile returns the dense-index form of (g, topo, rm), memoized on
// the graph. The memo is dropped by tdg on any graph mutation; switch
// traits can be mutated in place without a graph mutation (replan
// drains flip Programmable/Stages directly), so a hit is revalidated
// against the live switch fields in O(S).
func Compile(g *tdg.Graph, topo *network.Topology, rm program.ResourceModel) *CompiledInstance {
	if v, ok := g.Memo(compiledMemoKey); ok {
		if ci, ok := v.(*CompiledInstance); ok && ci.matches(topo, rm) {
			return ci
		}
	}
	names := g.NodeNames()
	sort.Strings(names)
	ci, err := compileSubset(g, names, topo, rm)
	if err != nil {
		panic(err) // unreachable: the names are g's own
	}
	g.MemoSet(compiledMemoKey, ci)
	return ci
}

// matches reports whether the memoized instance still describes the
// live topology and resource model. Pointer identity pins the switch
// ID space (the memo keeps the topology alive, so the address cannot
// be recycled); the per-switch field scan catches in-place trait
// mutation, and the link count catches links added after compilation
// (links cannot be removed).
func (ci *CompiledInstance) matches(topo *network.Topology, rm program.ResourceModel) bool {
	if ci.Topo != topo || ci.rm != rm || int(ci.S) != topo.NumSwitches() || ci.links != topo.NumLinks() {
		return false
	}
	if ci.epoch != topo.FaultEpoch() {
		return false
	}
	for id := int32(0); id < ci.S; id++ {
		sw, err := topo.Switch(network.SwitchID(id))
		if err != nil {
			return false
		}
		up := sw.Programmable && !topo.SwitchIsDown(network.SwitchID(id))
		if up != ci.Programmable[id] ||
			int32(sw.Stages) != ci.Stages[id] ||
			sw.StageCapacity != ci.StageCap[id] {
			return false
		}
	}
	return true
}

// compileSubset builds the dense-index form of a subset of g's MATs
// against a (typically compacted) topology; Compile is the memoized
// call over every MAT and the real topology. The replan repair builds
// one instance per touched region this way: materializing a
// tdg.Subgraph just to compile it costs more than the whole region
// repair (fresh string-keyed node/edge maps plus an uncached
// topological sort), while the dense arrays can be carved straight out
// of g. names must be sorted and duplicate-free; edges are kept when
// both endpoints are in the subset, in g's EdgeList order, so the
// kernels' iteration order is deterministic. The instance is not
// memoized here and its Graph field keeps pointing at g — callers that
// need full-graph facts (canonical pack order, TopoIndex) already hold
// g.
func compileSubset(g *tdg.Graph, names []string, topo *network.Topology, rm program.ResourceModel) (*CompiledInstance, error) {
	idx := make(map[string]int32, len(names))
	for i, n := range names {
		idx[n] = int32(i)
	}
	s := topo.NumSwitches()
	ci := &CompiledInstance{
		Graph: g,
		Topo:  topo,
		Names: names,
		Index: idx,
		S:     int32(s),
		rm:    rm,
		links: topo.NumLinks(),
		epoch: topo.FaultEpoch(),
	}

	ci.Req = make([]float64, len(names))
	ci.Out = make([][]int32, len(names))
	ci.In = make([][]int32, len(names))
	ci.Incident = make([][]int32, len(names))
	for i, name := range names {
		node, ok := g.Node(name)
		if !ok {
			return nil, fmt.Errorf("placement: compile subset references unknown MAT %q", name)
		}
		ci.Req[i] = rm.Requirement(node.MAT)
	}
	if pos, err := g.TopoIndex(); err == nil {
		ci.TopoPos = make([]int32, len(names))
		for i, name := range names {
			ci.TopoPos[i] = int32(pos[name])
		}
	}

	// One pass over g's edge list fills every edge array, skipping the
	// per-name tdg.OutEdges/InEdges walks (each sorts and copies) — that
	// keeps the per-region compile out of the replan's critical path.
	for _, e := range g.EdgeList() {
		f, fok := idx[e.From]
		t, tok := idx[e.To]
		if !fok || !tok {
			continue
		}
		ei := int32(len(ci.EdgeFrom))
		ci.EdgeFrom = append(ci.EdgeFrom, f)
		ci.EdgeTo = append(ci.EdgeTo, t)
		ci.EdgeBytes = append(ci.EdgeBytes, int32(e.MetadataBytes))
		ci.Incident[f] = append(ci.Incident[f], ei)
		ci.Incident[t] = append(ci.Incident[t], ei)
		ci.Out[f] = append(ci.Out[f], ei)
		ci.In[t] = append(ci.In[t], ei)
	}

	ci.Programmable = make([]bool, s)
	ci.Stages = make([]int32, s)
	ci.StageCap = make([]float64, s)
	ci.Caps = make([]float64, s)
	for id := 0; id < s; id++ {
		sw, err := topo.Switch(network.SwitchID(id))
		if err != nil {
			continue
		}
		// A down switch is indistinguishable from non-programmable for
		// placement purposes; Compile's epoch check rebuilds on heal.
		up := sw.Programmable && !topo.SwitchIsDown(sw.ID)
		ci.Programmable[id] = up
		ci.Stages[id] = int32(sw.Stages)
		ci.StageCap[id] = sw.StageCapacity
		ci.Caps[id] = sw.Capacity()
		if up {
			ci.Prog = append(ci.Prog, sw.ID)
		}
	}
	return ci, nil
}

// presetLatencies installs the latency table of an instance whose Topo
// cannot supply it: a repair instance's pseudo-topology is links-free,
// so healInstance hands in the real topology's host-pair latencies.
func (ci *CompiledInstance) presetLatencies(lat []time.Duration) {
	ci.latOnce.Do(func() { ci.lat = lat })
}

// latencies returns the dense shortest-path latency table (entry
// [u*S+v] = shortest latency u→v, -1 when unreachable), fetched from
// Topo unless preset.
func (ci *CompiledInstance) latencies() []time.Duration {
	ci.latOnce.Do(func() { ci.lat = ci.Topo.LatencyTable() })
	return ci.lat
}

// DenseAssign converts a (possibly partial) name-keyed assignment into
// MAT index space; unassigned MATs are -1.
func (ci *CompiledInstance) DenseAssign(assign map[string]network.SwitchID) []int32 {
	out := make([]int32, len(ci.Names))
	for i := range out {
		out[i] = -1
	}
	for name, u := range assign {
		if x, ok := ci.Index[name]; ok {
			out[x] = int32(u)
		}
	}
	return out
}

// PlanAssign is DenseAssign over a Plan's stage placements.
func (ci *CompiledInstance) PlanAssign(p *Plan) []int32 {
	out := make([]int32, len(ci.Names))
	for i := range out {
		out[i] = -1
	}
	for name, sp := range p.Assignments {
		if x, ok := ci.Index[name]; ok {
			out[x] = int32(sp.Switch)
		}
	}
	return out
}

// AssignMap decodes a dense assignment back into the boundary
// representation, skipping unassigned MATs.
func (ci *CompiledInstance) AssignMap(assign []int32) map[string]network.SwitchID {
	out := make(map[string]network.SwitchID, len(assign))
	for x, u := range assign {
		if u >= 0 {
			out[ci.Names[x]] = network.SwitchID(u)
		}
	}
	return out
}

// PairTable is the flat S×S cross-byte matrix of one assignment: cell
// [src*S+dst] holds A(src,dst) in bytes. keys lists every cell that
// ever held bytes, so scans touch O(pairs) cells, not S²; cells may
// decay to zero and contribute nothing to A_max (floored at zero,
// exactly like the map-based table).
type PairTable struct {
	S      int32
	Cells  []int32
	keys   []int32
	inKeys []bool
}

// NewPairTable allocates an empty table sized for the instance.
func (ci *CompiledInstance) NewPairTable() *PairTable {
	n := int(ci.S) * int(ci.S)
	return &PairTable{S: ci.S, Cells: make([]int32, n), inKeys: make([]bool, n)}
}

// Reset clears the table in O(touched cells).
func (pt *PairTable) Reset() {
	for _, k := range pt.keys {
		pt.Cells[k] = 0
		pt.inKeys[k] = false
	}
	pt.keys = pt.keys[:0]
}

// Add accumulates bytes into one cell, tracking first touch.
func (pt *PairTable) Add(cell, bytes int32) {
	if !pt.inKeys[cell] {
		pt.inKeys[cell] = true
		pt.keys = append(pt.keys, cell)
	}
	pt.Cells[cell] += bytes
}

// Keys returns the touched-cell list (read-only, unspecified order).
func (pt *PairTable) Keys() []int32 { return pt.keys }

// Max returns A_max = max over cells (Eq. 1), floored at zero.
func (pt *PairTable) Max() int {
	m := int32(0)
	//hermes:hot
	for _, k := range pt.keys {
		if pt.Cells[k] > m {
			m = pt.Cells[k]
		}
	}
	return int(m)
}

// FillPairTable recomputes the table from a dense assignment and
// returns the total cross bytes. Edges with an unassigned endpoint or
// both endpoints co-located contribute nothing.
func (ci *CompiledInstance) FillPairTable(assign []int32, pt *PairTable) int {
	pt.Reset()
	total := 0
	//hermes:hot
	for ei := range ci.EdgeFrom {
		ua := assign[ci.EdgeFrom[ei]]
		ub := assign[ci.EdgeTo[ei]]
		if ua < 0 || ub < 0 || ua == ub {
			continue
		}
		pt.Add(ua*pt.S+ub, ci.EdgeBytes[ei])
		total += int(ci.EdgeBytes[ei])
	}
	return total
}

// AssignmentAMax is Eq. 1 over a dense assignment: the compiled twin
// of AssignmentAMaxRef. pt is caller-owned scratch.
func (ci *CompiledInstance) AssignmentAMax(assign []int32, pt *PairTable) int {
	ci.FillPairTable(assign, pt)
	return pt.Max()
}

// MoveScratch is caller-owned scratch for move/place evaluation: a
// sparse delta overlay in the same flat cell space as PairTable.
type MoveScratch struct {
	delta  []int32
	keys   []int32
	inKeys []bool
}

// NewMoveScratch allocates scratch sized for the instance.
func (ci *CompiledInstance) NewMoveScratch() *MoveScratch {
	n := int(ci.S) * int(ci.S)
	return &MoveScratch{delta: make([]int32, n), inKeys: make([]bool, n)}
}

func (ms *MoveScratch) reset() {
	for _, k := range ms.keys {
		ms.delta[k] = 0
		ms.inKeys[k] = false
	}
	ms.keys = ms.keys[:0]
}

func (ms *MoveScratch) add(cell, bytes int32) {
	if !ms.inKeys[cell] {
		ms.inKeys[cell] = true
		ms.keys = append(ms.keys, cell)
	}
	ms.delta[cell] += bytes
}

// maxOver folds the delta overlay onto the pair table and returns the
// resulting A_max without mutating either.
func (ms *MoveScratch) maxOver(pt *PairTable) int {
	m := int32(0)
	//hermes:hot
	for _, k := range pt.keys {
		v := pt.Cells[k] + ms.delta[k]
		if v > m {
			m = v
		}
	}
	//hermes:hot
	for _, k := range ms.keys {
		if !pt.inKeys[k] && ms.delta[k] > m {
			m = ms.delta[k]
		}
	}
	return int(m)
}

// MoveScore computes the absolute (A_max, total cross bytes) of the
// assignment with MAT x moved to switch c and everything else fixed,
// without mutating any state: the compiled twin of MoveScoreRef.
// Requires every MAT incident to x to be assigned; total is the
// current total cross bytes matching (assign, pt). O(deg(x) + pairs).
func (ci *CompiledInstance) MoveScore(assign []int32, pt *PairTable, ms *MoveScratch, x, c int32, total int) (int, int) {
	ms.reset()
	cross := total
	old := assign[x]
	s := pt.S
	//hermes:hot
	for _, ei := range ci.Incident[x] {
		var peer, oldCell, newCell int32
		if ci.EdgeFrom[ei] == x {
			peer = assign[ci.EdgeTo[ei]]
			oldCell = old*s + peer
			newCell = c*s + peer
		} else {
			peer = assign[ci.EdgeFrom[ei]]
			oldCell = peer*s + old
			newCell = peer*s + c
		}
		b := ci.EdgeBytes[ei]
		if peer != old {
			ms.add(oldCell, -b)
			cross -= int(b)
		}
		if peer != c {
			ms.add(newCell, b)
			cross += int(b)
		}
	}
	return ms.maxOver(pt), cross
}

// ApplyMove commits MAT x to switch c, folding the move into the pair
// table and dense assignment, and returns the new total cross bytes.
func (ci *CompiledInstance) ApplyMove(assign []int32, pt *PairTable, x, c int32, total int) int {
	old := assign[x]
	s := pt.S
	//hermes:hot
	for _, ei := range ci.Incident[x] {
		var peer, oldCell, newCell int32
		if ci.EdgeFrom[ei] == x {
			peer = assign[ci.EdgeTo[ei]]
			oldCell = old*s + peer
			newCell = c*s + peer
		} else {
			peer = assign[ci.EdgeFrom[ei]]
			oldCell = peer*s + old
			newCell = peer*s + c
		}
		b := ci.EdgeBytes[ei]
		if peer != old {
			pt.Add(oldCell, -b)
			total -= int(b)
		}
		if peer != c {
			pt.Add(newCell, b)
			total += int(b)
		}
	}
	assign[x] = c
	return total
}

// PlaceScore computes the A_max that results from placing the
// currently-unassigned MAT x on switch u, everything else fixed: the
// compiled twin of PlaceScoreRef. Edges to still-unassigned peers
// contribute nothing, matching the repair pass's incremental scoring.
func (ci *CompiledInstance) PlaceScore(assign []int32, pt *PairTable, ms *MoveScratch, x, u int32) int {
	ms.reset()
	s := pt.S
	//hermes:hot
	for _, ei := range ci.Out[x] {
		if peer := assign[ci.EdgeTo[ei]]; peer >= 0 && peer != u {
			ms.add(u*s+peer, ci.EdgeBytes[ei])
		}
	}
	//hermes:hot
	for _, ei := range ci.In[x] {
		if peer := assign[ci.EdgeFrom[ei]]; peer >= 0 && peer != u {
			ms.add(peer*s+u, ci.EdgeBytes[ei])
		}
	}
	return ms.maxOver(pt)
}

// ApplyPlace folds the placement of MAT x on switch u into the pair
// table. The caller updates assign[x] itself (the repair pass sets it
// before its acyclicity probe).
func (ci *CompiledInstance) ApplyPlace(assign []int32, pt *PairTable, x, u int32) {
	s := pt.S
	//hermes:hot
	for _, ei := range ci.Out[x] {
		if peer := assign[ci.EdgeTo[ei]]; peer >= 0 && peer != u {
			pt.Add(u*s+peer, ci.EdgeBytes[ei])
		}
	}
	//hermes:hot
	for _, ei := range ci.In[x] {
		if peer := assign[ci.EdgeFrom[ei]]; peer >= 0 && peer != u {
			pt.Add(peer*s+u, ci.EdgeBytes[ei])
		}
	}
}

// CycleScratch holds the reusable buffers of the contracted-switch-
// graph acyclicity check.
type CycleScratch struct {
	adj     []int32 // S×S distinct-edge presence, reset via touched
	touched []int32
	indeg   []int32
	present []bool
	ready   []network.SwitchID
}

// NewCycleScratch allocates scratch sized for the instance.
func (ci *CompiledInstance) NewCycleScratch() *CycleScratch {
	n := int(ci.S)
	return &CycleScratch{
		adj:     make([]int32, n*n),
		indeg:   make([]int32, n),
		present: make([]bool, n),
		ready:   make([]network.SwitchID, 0, n),
	}
}

// AssignmentAcyclic reports whether the contracted switch graph of a
// (possibly partial) dense assignment is a DAG (constraint Eq. 7 at
// switch granularity): the compiled twin of the map-based Kahn check
// in assignmentAcyclic. Allocation-free given caller-owned scratch.
func (ci *CompiledInstance) AssignmentAcyclic(assign []int32, cs *CycleScratch) bool {
	s := ci.S
	for _, c := range cs.touched {
		cs.adj[c] = 0
	}
	cs.touched = cs.touched[:0]
	for u := int32(0); u < s; u++ {
		cs.indeg[u] = 0
		cs.present[u] = false
	}
	nodes := 0
	//hermes:hot
	for _, u := range assign {
		if u >= 0 && !cs.present[u] {
			cs.present[u] = true
			nodes++
		}
	}
	// The touched list works through a local in the edge loop (one
	// entry per distinct cross pair, amortized like the rest of the
	// scratch) and is written back for the next call's reset.
	touched := cs.touched
	//hermes:hot
	for ei := range ci.EdgeFrom {
		ua := assign[ci.EdgeFrom[ei]]
		ub := assign[ci.EdgeTo[ei]]
		if ua < 0 || ub < 0 || ua == ub {
			continue
		}
		cell := ua*s + ub
		if cs.adj[cell] == 0 {
			cs.adj[cell] = 1
			touched = append(touched, cell)
			cs.indeg[ub]++
		}
	}
	cs.touched = touched
	ready := cs.ready[:0]
	for u := int32(0); u < s; u++ {
		if cs.present[u] && cs.indeg[u] == 0 {
			ready = append(ready, network.SwitchID(u))
		}
	}
	count := 0
	for len(ready) > 0 {
		u := int32(ready[len(ready)-1])
		ready = ready[:len(ready)-1]
		count++
		row := cs.adj[u*s : (u+1)*s]
		for v, present := range row {
			if present != 0 {
				cs.indeg[v]--
				if cs.indeg[v] == 0 {
					ready = append(ready, network.SwitchID(v))
				}
			}
		}
	}
	cs.ready = ready[:0]
	return count == nodes
}

// AssignmentLatency sums shortest-path latency over the distinct
// communicating switch pairs of a dense assignment (the ε1 bound of
// Eq. 6 as evaluated by the climb's feasibility probe); ok is false
// when some pair is disconnected. ms is reused as the seen-pair set.
func (ci *CompiledInstance) AssignmentLatency(assign []int32, ms *MoveScratch) (time.Duration, bool) {
	lat := ci.latencies()
	ms.reset()
	var total time.Duration
	//hermes:hot
	for ei := range ci.EdgeFrom {
		ua := assign[ci.EdgeFrom[ei]]
		ub := assign[ci.EdgeTo[ei]]
		if ua < 0 || ub < 0 || ua == ub {
			continue
		}
		cell := ua*ci.S + ub
		if ms.inKeys[cell] {
			continue
		}
		ms.add(cell, 1)
		l := lat[cell]
		if l < 0 {
			return 0, false
		}
		total += l
	}
	return total, true
}
