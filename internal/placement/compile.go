// Compiled placement core: the solvers' inner loops evaluate the
// paper's P#1 objective (Eq. 1) and constraints (Eq. 6–9) millions of
// times per solve, and the string-keyed boundary representation
// (map[string]SwitchID assignments, map[RouteKey]int pair tables) pays
// hashing and allocation on every candidate. CompiledInstance lays a
// MAT subset and the switches out as dense int32 indices and exposes
// allocation-free scoring kernels over flat arrays. Instances are built
// on the graph's node ids (graphIndex): no MAT name is hashed below the
// solvers' name-keyed boundary (compile on solver entry, decode into
// Plan on exit). The map-based originals are retained in ref.go as
// differential oracles — every kernel is property-tested to agree with
// its map twin bit-for-bit.
package placement

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

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
	// and MAT index space; Names is sorted. Only Compile fills them: the
	// solvers' own instances cross the name boundary through ids.
	Names []string
	Index map[string]int32

	// ids maps MAT index space to g's node ids, ascending in name order;
	// gi is the graph index the instance was carved from.
	ids []int32
	gi  *graphIndex

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

	// lat is the dense shortest-path latency table, fetched lazily:
	// parallel Exact branches share one instance, so the fetch is
	// guarded by a Once.
	latOnce sync.Once
	lat     []time.Duration
}

// graphIndex is the node-id view of a graph that every instance is
// built from: the topological order as names and as ids, each id's
// position in it, R(a) under one resource model, and each id's rank in
// name order — the MAT index order of every instance. It is computed
// once per (graph, resource model) and memoized under Graph.Memo, which
// drops it on mutation; it is immutable once built.
type graphIndex struct {
	rm     program.ResourceModel
	names  []string  // node names by id
	order  []string  // topological order; nil when the graph is cyclic
	topo   []int32   // order as node ids
	pos    []int32   // topological position by id; nil when cyclic
	req    []float64 // R(a) by id under rm
	byName []int32   // ids in name order: Compile's MAT index space
	rank   []int32   // position in byName by id
}

const graphIndexKey = "placement/graphIndex"

// indexOf returns g's graph index under rm, building it on first use.
func indexOf(g *tdg.Graph, rm program.ResourceModel) *graphIndex {
	if v, ok := g.Memo(graphIndexKey); ok && v.(*graphIndex).rm == rm {
		return v.(*graphIndex)
	}
	n := g.NumNodes()
	gi := &graphIndex{rm: rm, names: g.NodeNames(), req: make([]float64, n), byName: make([]int32, n), rank: make([]int32, n)}
	for id, node := range g.Nodes() {
		gi.req[id] = rm.Requirement(node.MAT)
		gi.byName[id] = int32(id)
	}
	slices.SortFunc(gi.byName, func(a, b int32) int { return strings.Compare(gi.names[a], gi.names[b]) })
	for r, id := range gi.byName {
		gi.rank[id] = int32(r)
	}
	if ids, err := g.TopoIDs(); err == nil {
		gi.topo, gi.order, gi.pos = ids, make([]string, n), make([]int32, n)
		for p, id := range ids {
			gi.order[p], gi.pos[id] = gi.names[id], int32(p)
		}
	}
	g.MemoSet(graphIndexKey, gi)
	return gi
}

// byRank orders node ids by name, the order of an instance's MATs.
func (gi *graphIndex) byRank(a, b int32) int { return cmp.Compare(gi.rank[a], gi.rank[b]) }

// Compile returns the dense-index form of (g, topo, rm) over every MAT
// in name order. Its Names and Index are the name boundary: Exact
// decodes its plan through them, and the kernel benchmarks probe by
// name.
func Compile(g *tdg.Graph, topo *network.Topology, rm program.ResourceModel) *CompiledInstance {
	gi := indexOf(g, rm)
	ci := compileSubset(g, gi, gi.byName, topo)
	ci.Names = make([]string, len(gi.byName))
	ci.Index = make(map[string]int32, len(gi.byName))
	for x, id := range gi.byName {
		ci.Names[x] = gi.names[id]
		ci.Index[ci.Names[x]] = int32(x)
	}
	return ci
}

// memberPool recycles compileSubset's graph-id → instance-index maps:
// arrays of g.NumNodes() entries, all zero between uses.
var memberPool sync.Pool

// compileSubset builds the dense-index form of the MATs ids — g's node
// ids, ascending in name order (graphIndex.byRank) — against a
// (typically compacted) topology. Every region polish, reconcile and
// regional repair builds its instance this way, straight from g's ids:
// no tdg.Subgraph, no name lookups. The subset's edges are gathered
// from its members' out-edges, so the cost follows the subset, not the
// graph, and are put back in g's EdgeList order by their list
// positions, so the kernels' iteration order is deterministic.
// Out/In/Incident are carved from one backing array sized by the
// members' degrees. The instance's Graph field keeps pointing at g.
func compileSubset(g *tdg.Graph, gi *graphIndex, ids []int32, topo *network.Topology) *CompiledInstance {
	n, s := len(ids), topo.NumSwitches()
	ci := &CompiledInstance{Graph: g, Topo: topo, S: int32(s), ids: ids, gi: gi}

	// local holds each member's instance index + 1, 0 outside the subset.
	lp, _ := memberPool.Get().(*[]int32)
	if lp == nil || len(*lp) < g.NumNodes() {
		lp = new([]int32)
		*lp = make([]int32, g.NumNodes())
	}
	local := *lp
	outDeg, inDeg := 0, 0
	for x, id := range ids {
		local[id] = int32(x) + 1
		outDeg += len(g.OutEdgesOf(id))
		inDeg += len(g.InEdgesOf(id))
	}
	pos := make([]int32, 0, outDeg)
	//hermes:hot
	for _, id := range ids {
		for _, e := range g.OutEdgesOf(id) {
			if _, to := e.Endpoints(); local[to] != 0 {
				pos = append(pos, e.Pos())
			}
		}
	}
	if len(pos) == g.NumEdges() {
		for i := range pos { // every edge: EdgeList order is the identity
			pos[i] = int32(i)
		}
	} else {
		slices.Sort(pos)
	}

	m := len(pos)
	edges := make([]int32, 3*m)
	ci.EdgeFrom, ci.EdgeTo, ci.EdgeBytes = edges[:m:m], edges[m:2*m:2*m], edges[2*m:]
	lists := make([][]int32, 3*n)
	out, in, inc := lists[:n:n], lists[n:2*n:2*n], lists[2*n:]
	ci.Out, ci.In, ci.Incident = out, in, inc
	adj := make([]int32, 2*(outDeg+inDeg))
	for x, id := range ids {
		o, i := len(g.OutEdgesOf(id)), len(g.InEdgesOf(id))
		out[x], in[x], inc[x] = adj[:0:o], adj[o:o:o+i], adj[o+i:o+i:2*(o+i)]
		adj = adj[2*(o+i):]
	}
	list := g.EdgeList()
	//hermes:hot
	for ei, p := range pos {
		from, to := list[p].Endpoints()
		f, t := local[from]-1, local[to]-1
		ci.EdgeFrom[ei], ci.EdgeTo[ei], ci.EdgeBytes[ei] = f, t, int32(list[p].MetadataBytes)
		out[f] = append(out[f], int32(ei))
		in[t] = append(in[t], int32(ei))
		inc[f] = append(inc[f], int32(ei))
		inc[t] = append(inc[t], int32(ei))
	}
	for _, id := range ids {
		local[id] = 0
	}
	memberPool.Put(lp)

	ci.Req = make([]float64, n)
	for x, id := range ids {
		ci.Req[x] = gi.req[id]
	}
	if gi.pos != nil {
		ci.TopoPos = make([]int32, n)
		for x, id := range ids {
			ci.TopoPos[x] = gi.pos[id]
		}
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
		// placement purposes.
		up := sw.Programmable && !topo.SwitchIsDown(sw.ID)
		ci.Programmable[id] = up
		ci.Stages[id] = int32(sw.Stages)
		ci.StageCap[id] = sw.StageCapacity
		ci.Caps[id] = sw.Capacity()
		if up {
			ci.Prog = append(ci.Prog, sw.ID)
		}
	}
	return ci
}

// name returns MAT x's name: the name boundary of the solvers' own
// instances (write-back into a name-keyed assignment, error text).
func (ci *CompiledInstance) name(x int32) string { return ci.gi.names[ci.ids[x]] }

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
// the MAT index space of a Compile instance; unassigned MATs are -1. It
// crosses the name boundary through Index.
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

// AssignMap decodes a dense assignment of a Compile instance back into
// the boundary representation through Names, skipping unassigned MATs.
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
	return newPairTable(ci.S)
}

func newPairTable(s int32) *PairTable {
	n := int(s) * int(s)
	return &PairTable{S: s, Cells: make([]int32, n), inKeys: make([]bool, n)}
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
	return newMoveScratch(ci.S)
}

func newMoveScratch(s int32) *MoveScratch {
	n := int(s) * int(s)
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

// foldMove fills the overlay with the pair-cell change of moving MAT x
// to switch c, everything else fixed, and returns the change in total
// cross bytes. Every MAT incident to x must be assigned. This and
// foldPlace are the move and place folds every score and commit reads.
func (ms *MoveScratch) foldMove(ci *CompiledInstance, assign []int32, x, c int32) int {
	ms.reset()
	d := 0
	old := assign[x]
	s := ci.S
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
			d -= int(b)
		}
		if peer != c {
			ms.add(newCell, b)
			d += int(b)
		}
	}
	return d
}

// foldPlace fills the overlay with the pair cells that placing MAT x
// on switch u adds. Edges to still-unassigned peers contribute nothing,
// matching the repair pass's incremental scoring; assign[x] is not read.
func (ms *MoveScratch) foldPlace(ci *CompiledInstance, assign []int32, x, u int32) {
	ms.reset()
	s := ci.S
	//hermes:hot
	for _, ei := range ci.Incident[x] {
		if ci.EdgeFrom[ei] == x {
			if peer := assign[ci.EdgeTo[ei]]; peer >= 0 && peer != u {
				ms.add(u*s+peer, ci.EdgeBytes[ei])
			}
		} else if peer := assign[ci.EdgeFrom[ei]]; peer >= 0 && peer != u {
			ms.add(peer*s+u, ci.EdgeBytes[ei])
		}
	}
}

// apply commits the overlay into the table.
func (pt *PairTable) apply(ms *MoveScratch) {
	//hermes:hot
	for _, k := range ms.keys {
		pt.Add(k, ms.delta[k])
	}
}

// MoveScore computes the absolute (A_max, total cross bytes) of the
// assignment with MAT x moved to switch c and everything else fixed,
// without mutating the assignment or the table: the compiled twin of
// MoveScoreRef. It leaves the move's overlay in ms, where weightedOver
// reads the weighted score. Requires every MAT incident to x to be
// assigned; total is the current total cross bytes matching (assign,
// pt). O(deg(x) + pairs).
func (ci *CompiledInstance) MoveScore(assign []int32, pt *PairTable, ms *MoveScratch, x, c int32, total int) (int, int) {
	cross := total + ms.foldMove(ci, assign, x, c)
	return ms.maxOver(pt), cross
}

// ApplyMove commits MAT x to switch c, folding the move into the pair
// table and dense assignment, and returns the new total cross bytes.
// It re-folds through ms: the overlay MoveScore left may since have
// served as another probe's scratch.
func (ci *CompiledInstance) ApplyMove(assign []int32, pt *PairTable, ms *MoveScratch, x, c int32, total int) int {
	total += ms.foldMove(ci, assign, x, c)
	pt.apply(ms)
	assign[x] = c
	return total
}

// PlaceScore computes the A_max that results from placing the
// currently-unassigned MAT x on switch u, everything else fixed: the
// compiled twin of PlaceScoreRef. It leaves the placement's overlay in
// ms, where weightedOver reads the weighted score.
func (ci *CompiledInstance) PlaceScore(assign []int32, pt *PairTable, ms *MoveScratch, x, u int32) int {
	ms.foldPlace(ci, assign, x, u)
	return ms.maxOver(pt)
}

// ApplyPlace folds the placement of MAT x on switch u into the pair
// table. The caller updates assign[x] itself (the repair pass sets it
// before its acyclicity probe).
func (ci *CompiledInstance) ApplyPlace(assign []int32, pt *PairTable, ms *MoveScratch, x, u int32) {
	ms.foldPlace(ci, assign, x, u)
	pt.apply(ms)
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
	return newCycleScratch(ci.S)
}

func newCycleScratch(s int32) *CycleScratch {
	n := int(s)
	return &CycleScratch{
		adj:     make([]int32, n*n),
		indeg:   make([]int32, n),
		present: make([]bool, n),
		ready:   make([]network.SwitchID, 0, n),
	}
}

// reset clears the adjacency cells the last check set, in O(touched).
func (cs *CycleScratch) reset() {
	for _, c := range cs.touched {
		cs.adj[c] = 0
	}
	cs.touched = cs.touched[:0]
}

// AssignmentAcyclic reports whether the contracted switch graph of a
// (possibly partial) dense assignment is a DAG (constraint Eq. 7 at
// switch granularity): the compiled twin of the map-based Kahn check
// in assignmentAcyclic. Allocation-free given caller-owned scratch.
func (ci *CompiledInstance) AssignmentAcyclic(assign []int32, cs *CycleScratch) bool {
	s := ci.S
	cs.reset()
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
