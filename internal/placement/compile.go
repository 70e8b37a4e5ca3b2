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
	"math/bits"
	"slices"
	"sync"
	"time"

	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

// CompiledInstance is the dense-index form of one placement instance.
// MAT index space is the alphabetically sorted node-name list (the
// order the climb iterates); switch index space is [0,S): the
// topology's SwitchID space for Compile, the host list of a repair
// instance (newRepairInstance: switch i is the i-th host). All fields
// are built once and treated as immutable; scratch state lives in
// PairTable/MoveScratch/CycleScratch values owned by each caller, so
// one instance is safe for concurrent use.
type CompiledInstance struct {
	Graph *tdg.Graph
	// Topo is the topology Compile laid the instance out on; nil on a
	// repair instance, whose switches are its hosts.
	Topo *network.Topology

	// Names and Index translate between the boundary representation
	// and MAT index space; Names is sorted. Only Compile fills them: the
	// solvers' own instances cross the name boundary through ids.
	Names []string
	Index map[string]int32

	// ids maps MAT index space to g's node ids, ascending in name order;
	// gi is the graph index the instance was carved from.
	ids []int32
	gi  *graphIndex

	// Edge arrays in tdg.EdgeList order. In/Incident hold edge indices
	// per MAT in that same order: the kernels only fold commutative sums
	// (and order-free verdicts) over them, so any fixed order yields
	// identical scores.
	EdgeFrom, EdgeTo []int32
	EdgeBytes        []int32
	In, Incident     [][]int32

	// Req is R(a) per MAT under rm.
	Req []float64

	// TopoPos is each MAT's position in Graph's cached topological order
	// — the full graph's, also on a subset instance — which is the
	// canonical order stage packing processes a MAT set in. Nil when the
	// graph is cyclic (no solver or repair gets that far).
	TopoPos []int32

	// S is the switch count; Caps is each switch's capacity, indexed by
	// SwitchID (Compile only).
	S    int32
	Caps []float64
}

// graphIndex is the node-id view of a graph that every instance is
// built from: the graph's tdg.Index (node names, the name order — the
// MAT index order of every instance — and the topological order as ids
// and positions) plus R(a) under one resource model. It is computed
// once per (graph, resource model) and memoized under Graph.Memo, which
// drops it on mutation; it is immutable once built.
type graphIndex struct {
	*tdg.Index
	rm  program.ResourceModel
	req []float64 // R(a) by id under rm
}

const graphIndexKey = "placement/graphIndex"

// indexOf returns g's graph index under rm, building it on first use.
func indexOf(g *tdg.Graph, rm program.ResourceModel) *graphIndex {
	if v, ok := g.Memo(graphIndexKey); ok && v.(*graphIndex).rm == rm {
		return v.(*graphIndex)
	}
	gi := &graphIndex{Index: g.Index(), rm: rm, req: make([]float64, g.NumNodes())}
	for id := range gi.req {
		gi.req[id] = rm.Requirement(g.NodeOf(int32(id)).MAT)
	}
	g.MemoSet(graphIndexKey, gi)
	return gi
}

// byRank orders node ids by name, the order of an instance's MATs.
func (gi *graphIndex) byRank(a, b int32) int { return cmp.Compare(gi.Rank[a], gi.Rank[b]) }

// Compile returns the dense-index form of (g, topo, rm) over every MAT
// in name order. Its Names and Index are the name boundary: Exact
// decodes its plan through them, and the kernel benchmarks probe by
// name.
func Compile(g *tdg.Graph, topo *network.Topology, rm program.ResourceModel) *CompiledInstance {
	gi := indexOf(g, rm)
	s := topo.NumSwitches()
	ci := compileSubset(g, gi, gi.ByName, int32(s))
	ci.Topo = topo
	ci.Caps = make([]float64, s)
	for id := range ci.Caps {
		if sw, err := topo.Switch(network.SwitchID(id)); err == nil {
			ci.Caps[id] = sw.Capacity()
		}
	}
	ci.Names = make([]string, len(gi.ByName))
	ci.Index = make(map[string]int32, len(gi.ByName))
	for x, id := range gi.ByName {
		ci.Names[x] = gi.Names[id]
		ci.Index[ci.Names[x]] = int32(x)
	}
	return ci
}

// memberPool recycles compileSubset's graph-id → instance-index maps:
// arrays of g.NumNodes() entries, all zero between uses.
var memberPool sync.Pool

// compileSubset builds the dense-index form of the MATs ids — g's node
// ids, ascending in name order (graphIndex.byRank) — over s switches.
// Compile and every repair instance build theirs this way, straight
// from g's ids: no tdg.Subgraph, no name lookups. The subset's edges are gathered
// from its members' out-edges, so the cost follows the subset, not the
// graph, and kept in that order — the members' in name order, each
// member's in insertion order — which fixes the kernels' iteration
// order without a sort; a subset holding every edge keeps g's EdgeList
// order.
// In/Incident are carved from one backing array sized by the members'
// degrees. The instance's Graph field keeps pointing at g.
func compileSubset(g *tdg.Graph, gi *graphIndex, ids []int32, s int32) *CompiledInstance {
	n := len(ids)
	ci := &CompiledInstance{Graph: g, S: s, ids: ids, gi: gi}

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
	}

	m := len(pos)
	edges := make([]int32, 3*m)
	ci.EdgeFrom, ci.EdgeTo, ci.EdgeBytes = edges[:m:m], edges[m:2*m:2*m], edges[2*m:]
	lists := make([][]int32, 2*n)
	in, inc := lists[:n:n], lists[n:]
	ci.In, ci.Incident = in, inc
	adj := make([]int32, outDeg+2*inDeg)
	for x, id := range ids {
		o, i := len(g.OutEdgesOf(id)), len(g.InEdgesOf(id))
		in[x], inc[x] = adj[:0:i], adj[i:i:o+2*i]
		adj = adj[o+2*i:]
	}
	list := g.EdgeList()
	//hermes:hot
	for ei, p := range pos {
		from, to := list[p].Endpoints()
		f, t := local[from]-1, local[to]-1
		ci.EdgeFrom[ei], ci.EdgeTo[ei], ci.EdgeBytes[ei] = f, t, int32(list[p].MetadataBytes)
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
	if gi.Pos != nil {
		ci.TopoPos = make([]int32, n)
		for x, id := range ids {
			ci.TopoPos[x] = gi.Pos[id]
		}
	}
	return ci
}

// name returns MAT x's name: the name boundary of the solvers' own
// instances (write-back into a name-keyed assignment, error text).
func (ci *CompiledInstance) name(x int32) string { return ci.gi.Names[ci.ids[x]] }

// DenseAssign moves a host table — a switch per node id of the
// instance's graph, -1 unassigned, as Plan.Hosts returns — into the MAT
// index space of a Compile instance.
func (ci *CompiledInstance) DenseAssign(hosts []network.SwitchID) []int32 {
	out := make([]int32, len(ci.ids))
	for x, id := range ci.ids {
		out[x] = int32(hosts[id])
	}
	return out
}

// idAssign moves a dense assignment onto the graph's node ids: the
// form materialization packs, -1 for every MAT outside the instance or
// unassigned.
func (ci *CompiledInstance) idAssign(dense []int32) []network.SwitchID {
	byID := make([]network.SwitchID, ci.Graph.NumNodes())
	for id := range byID {
		byID[id] = -1
	}
	for x, u := range dense {
		byID[ci.ids[x]] = network.SwitchID(u)
	}
	return byID
}

// PairTable is the flat S×S cross-byte matrix of one assignment: cell
// [src*S+dst] holds A(src,dst) in bytes. keys lists every cell that
// ever held bytes, so scans touch O(pairs) cells, not S²; cells may
// decay to zero and contribute nothing to A_max (floored at zero,
// exactly like the map-based table). A value histogram rides along
// once a probe asks for it (counted, set by the first maxOver after a
// fill and kept up by every Add until the next Reset): hist counts the
// cells holding each positive value, bits marks the values whose count
// is nonzero and sums the nonzero words of bits, so A_max and the
// largest value below any bound are word scans away instead of a scan
// of every pair. A table only filled and read once never builds it.
type PairTable struct {
	S       int32
	Cells   []int32
	keys    []int32
	inKeys  []bool
	counted bool
	hist    []int32
	bits    []uint64
	sums    []uint64
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
	if pt.counted {
		for _, k := range pt.keys {
			if v := pt.Cells[k]; v > 0 {
				pt.hist[v] = 0
				pt.bits[v>>6] = 0
				pt.sums[v>>12] = 0
			}
		}
		pt.counted = false
	}
	for _, k := range pt.keys {
		pt.Cells[k] = 0
		pt.inKeys[k] = false
	}
	pt.keys = pt.keys[:0]
}

// Add accumulates bytes into one cell, tracking first touch.
func (pt *PairTable) Add(cell, bytes int32) {
	old := pt.Cells[cell]
	pt.addRaw(cell, bytes)
	if pt.counted {
		pt.count(old, -1)
		pt.count(old+bytes, 1)
	}
}

// addRaw is Add before the histogram is built: a fill's add.
func (pt *PairTable) addRaw(cell, bytes int32) {
	if !pt.inKeys[cell] {
		pt.inKeys[cell] = true
		pt.keys = append(pt.keys, cell)
	}
	pt.Cells[cell] += bytes
}

// countAll builds the histogram from the touched cells.
func (pt *PairTable) countAll() {
	pt.counted = true
	//hermes:hot
	for _, k := range pt.keys {
		pt.count(pt.Cells[k], 1)
	}
}

// count adds d to the histogram count of value v; values that are not
// positive are not counted.
func (pt *PairTable) count(v, d int32) {
	if v <= 0 {
		return
	}
	if int(v) >= len(pt.hist) {
		pt.grow(v)
	}
	c := pt.hist[v] + d
	pt.hist[v] = c
	if (c > 0) == (c-d > 0) {
		return
	}
	w := v >> 6
	pt.bits[w] ^= 1 << (v & 63)
	if c > 0 {
		pt.sums[w>>6] |= 1 << (w & 63)
	} else if pt.bits[w] == 0 {
		pt.sums[w>>6] &^= 1 << (w & 63)
	}
}

// grow widens the histogram to hold value v, in whole sums words.
func (pt *PairTable) grow(v int32) {
	n := max(2*len(pt.hist), (int(v)+1+4095)&^4095)
	pt.hist = append(pt.hist, make([]int32, n-len(pt.hist))...)
	pt.bits = append(pt.bits, make([]uint64, n/64-len(pt.bits))...)
	pt.sums = append(pt.sums, make([]uint64, n/4096-len(pt.sums))...)
}

// atMost returns the largest value no greater than v whose histogram
// bit is set, or 0 when there is none.
func (pt *PairTable) atMost(v int) int {
	if v >= len(pt.hist) {
		v = len(pt.hist) - 1
	}
	if v <= 0 {
		return 0
	}
	w := v >> 6
	if m := pt.bits[w] & (^uint64(0) >> (63 - v&63)); m != 0 {
		return w<<6 | (63 - bits.LeadingZeros64(m))
	}
	q := w >> 6
	m := pt.sums[q] & (1<<(w&63) - 1)
	for m == 0 {
		if q == 0 {
			return 0
		}
		q--
		m = pt.sums[q]
	}
	w = q<<6 | (63 - bits.LeadingZeros64(m))
	return w<<6 | (63 - bits.LeadingZeros64(pt.bits[w]))
}

// Keys returns the touched-cell list (read-only, unspecified order).
func (pt *PairTable) Keys() []int32 { return pt.keys }

// Max returns A_max = max over cells (Eq. 1), floored at zero: the
// histogram's largest value, or a scan of the pairs before a probe has
// built it.
func (pt *PairTable) Max() int {
	if pt.counted {
		return pt.atMost(len(pt.hist) - 1)
	}
	m := int32(0)
	//hermes:hot
	for _, k := range pt.keys {
		m = max(m, pt.Cells[k])
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
		pt.addRaw(ua*pt.S+ub, ci.EdgeBytes[ei])
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
// sparse delta overlay in the same flat cell space as PairTable, and
// the peer fold of the MAT last gathered — the distinct switches
// hosting its assigned TDG peers (hosts, in first-seen order) and, per
// switch, the bytes and edge counts it sends there (out) and receives
// from there (in). One gather is one pass over the MAT's incident
// edges; every overlay of that MAT then costs O(peer hosts).
type MoveScratch struct {
	delta  []int32
	keys   []int32
	inKeys []bool

	hosts     []int32
	outB, inB []int64
	outN, inN []int32
}

// NewMoveScratch allocates scratch sized for the instance.
func (ci *CompiledInstance) NewMoveScratch() *MoveScratch {
	return newMoveScratch(ci.S)
}

func newMoveScratch(s int32) *MoveScratch {
	n := int(s) * int(s)
	return &MoveScratch{
		delta: make([]int32, n), inKeys: make([]bool, n),
		outB: make([]int64, s), inB: make([]int64, s),
		outN: make([]int32, s), inN: make([]int32, s),
	}
}

func (ms *MoveScratch) reset() {
	for _, k := range ms.keys {
		ms.delta[k] = 0
		ms.inKeys[k] = false
	}
	ms.keys = ms.keys[:0]
}

// clearFold zeroes the per-host sums of the last gather.
func (ms *MoveScratch) clearFold() {
	for _, h := range ms.hosts {
		ms.outB[h], ms.inB[h], ms.outN[h], ms.inN[h] = 0, 0, 0, 0
	}
	ms.hosts = ms.hosts[:0]
}

func (ms *MoveScratch) add(cell, bytes int32) {
	if !ms.inKeys[cell] {
		ms.inKeys[cell] = true
		ms.keys = append(ms.keys, cell)
	}
	ms.delta[cell] += bytes
}

// maxOver folds the delta overlay onto the pair table and returns the
// resulting A_max. The touched cells give their new values; the
// untouched cells' maximum is the histogram's top unless the overlay
// touches every cell holding it, and then the next value down, found
// by hiding the touched cells' current values from the histogram,
// scanning down and restoring them. Neither the table nor the overlay
// is left changed, and the cost follows the overlay, not the pairs.
func (ms *MoveScratch) maxOver(pt *PairTable) int {
	if !pt.counted {
		pt.countAll()
	}
	top := int32(pt.Max())
	m, onTop := int32(0), int32(0)
	//hermes:hot
	for _, k := range ms.keys {
		c := pt.Cells[k]
		m = max(m, c+ms.delta[k])
		if c == top {
			onTop++
		}
	}
	if m >= top || onTop < pt.hist[top] {
		return int(max(m, top))
	}
	//hermes:hot
	for _, k := range ms.keys {
		if v := pt.Cells[k]; v > 0 {
			pt.hist[v]--
		}
	}
	rest := int(top)
	for rest > 0 && pt.hist[rest] == 0 {
		rest = pt.atMost(rest - 1)
	}
	//hermes:hot
	for _, k := range ms.keys {
		if v := pt.Cells[k]; v > 0 {
			pt.hist[v]++
		}
	}
	return max(int(m), rest)
}

// gather folds MAT x's incident edges into the peer fold, one pass:
// per switch hosting an assigned peer, the bytes and edge counts of
// x's edges to and from it. Unassigned peers are skipped; assign[x] is
// not read (a TDG has no self-edges), so the fold holds wherever x sits.
// It returns the edges visited.
func (ms *MoveScratch) gather(ci *CompiledInstance, assign []int32, x int32) int {
	ms.clearFold()
	hosts := ms.hosts
	//hermes:hot
	for _, ei := range ci.Incident[x] {
		b := int64(ci.EdgeBytes[ei])
		if ci.EdgeFrom[ei] == x {
			h := assign[ci.EdgeTo[ei]]
			if h < 0 {
				continue
			}
			if ms.outN[h] == 0 && ms.inN[h] == 0 {
				hosts = append(hosts, h)
			}
			ms.outB[h] += b
			ms.outN[h]++
		} else {
			h := assign[ci.EdgeFrom[ei]]
			if h < 0 {
				continue
			}
			if ms.outN[h] == 0 && ms.inN[h] == 0 {
				hosts = append(hosts, h)
			}
			ms.inB[h] += b
			ms.inN[h]++
		}
	}
	ms.hosts = hosts
	return len(ci.Incident[x])
}

// overlayMove fills the overlay with the pair-cell change of moving the
// gathered MAT from switch old to switch c, everything else fixed, and
// returns the change in total cross bytes: per peer host p, the bytes x
// sends to p leave cell (old,p) unless p is old and enter (c,p) unless p
// is c, and likewise for the bytes it receives. A cell enters the
// overlay exactly when some edge crosses it, so the overlay is
// foldMove's cell for cell (compile_test.go holds them equal).
func (ms *MoveScratch) overlayMove(s, old, c int32) int {
	ms.reset()
	d := int64(0)
	//hermes:hot
	for _, p := range ms.hosts {
		if ms.outN[p] > 0 {
			b := ms.outB[p]
			if p != old {
				ms.add(old*s+p, int32(-b))
				d -= b
			}
			if p != c {
				ms.add(c*s+p, int32(b))
				d += b
			}
		}
		if ms.inN[p] > 0 {
			b := ms.inB[p]
			if p != old {
				ms.add(p*s+old, int32(-b))
				d -= b
			}
			if p != c {
				ms.add(p*s+c, int32(b))
				d += b
			}
		}
	}
	return int(d)
}

// overlayPlace fills the overlay with the pair cells that placing the
// gathered (unassigned) MAT on switch u adds: foldPlace's cells.
func (ms *MoveScratch) overlayPlace(s, u int32) {
	ms.reset()
	//hermes:hot
	for _, p := range ms.hosts {
		if p == u {
			continue
		}
		if ms.outN[p] > 0 {
			ms.add(u*s+p, int32(ms.outB[p]))
		}
		if ms.inN[p] > 0 {
			ms.add(p*s+u, int32(ms.inB[p]))
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
// leaving the assignment and the table as they were: the compiled twin
// of MoveScoreRef. It leaves x's peer fold and the move's overlay in
// ms, where weightedOver reads the weighted score. Requires every MAT
// incident to x to be assigned; total is the current total cross bytes
// matching (assign, pt). O(deg(x) + overlay).
func (ci *CompiledInstance) MoveScore(assign []int32, pt *PairTable, ms *MoveScratch, x, c int32, total int) (int, int) {
	ms.gather(ci, assign, x)
	cross := total + ms.overlayMove(ci.S, assign[x], c)
	return ms.maxOver(pt), cross
}

// PlaceScore computes the A_max that results from placing the
// currently-unassigned MAT x on switch u, everything else fixed: the
// compiled twin of PlaceScoreRef. Edges to still-unassigned peers
// contribute nothing. It leaves x's peer fold and the placement's
// overlay in ms, where weightedOver reads the weighted score.
func (ci *CompiledInstance) PlaceScore(assign []int32, pt *PairTable, ms *MoveScratch, x, u int32) int {
	ms.gather(ci, assign, x)
	ms.overlayPlace(ci.S, u)
	return ms.maxOver(pt)
}

// CycleScratch is the contracted switch graph of one (possibly
// partial) dense assignment, kept up to date move by move so constraint
// Eq. 7 at switch granularity is checked incrementally: mult counts the
// TDG edges behind each contracted edge u→v (u ≠ v, both endpoints
// assigned), succ lists each switch's successors (mult > 0, in no
// order), and seen/stack are the reachability probe's scratch.
type CycleScratch struct {
	s     int32
	mult  []int32
	succ  [][]int32
	seen  []int32
	gen   int32
	stack []int32
	indeg []int32
}

func newCycleScratch(s int32) *CycleScratch {
	n := int(s)
	return &CycleScratch{
		s:     s,
		mult:  make([]int32, n*n),
		succ:  make([][]int32, n),
		seen:  make([]int32, n),
		indeg: make([]int32, n),
	}
}

// reset empties the graph in O(contracted edges).
func (cs *CycleScratch) reset() {
	for u, vs := range cs.succ {
		for _, v := range vs {
			cs.mult[int32(u)*cs.s+v] = 0
		}
		cs.succ[u] = vs[:0]
	}
}

// fill rebuilds the graph from a dense assignment.
func (cs *CycleScratch) fill(ci *CompiledInstance, assign []int32) {
	cs.reset()
	//hermes:hot
	for ei := range ci.EdgeFrom {
		ua := assign[ci.EdgeFrom[ei]]
		ub := assign[ci.EdgeTo[ei]]
		if ua >= 0 && ub >= 0 && ua != ub {
			cs.inc(ua, ub, 1)
		}
	}
}

// inc adds n edges to u→v and reports whether the contracted edge is
// new.
func (cs *CycleScratch) inc(u, v, n int32) bool {
	c := &cs.mult[u*cs.s+v]
	*c += n
	if *c != n {
		return false
	}
	cs.succ[u] = append(cs.succ[u], v)
	return true
}

// dec removes n edges from u→v, dropping the contracted edge with its
// last TDG edge.
func (cs *CycleScratch) dec(u, v, n int32) {
	c := &cs.mult[u*cs.s+v]
	if *c -= n; *c == 0 {
		vs := cs.succ[u]
		i := slices.Index(vs, v)
		vs[i] = vs[len(vs)-1]
		cs.succ[u] = vs[:len(vs)-1]
	}
}

// adds reports whether moving or placing the MAT gathered in ms onto
// switch c creates a contracted edge the graph lacks: a move creates
// edges only at c.
func (cs *CycleScratch) adds(ms *MoveScratch, c int32) bool {
	s := cs.s
	//hermes:hot
	for _, p := range ms.hosts {
		if p == c {
			continue
		}
		if ms.outN[p] > 0 && cs.mult[c*s+p] == 0 || ms.inN[p] > 0 && cs.mult[p*s+c] == 0 {
			return true
		}
	}
	return false
}

// retarget moves the contracted edges of the MAT gathered in ms from
// switch old to switch c (either may be -1: a placement or its undo).
// Edges are added before any is removed, so a contracted edge that
// both gains and loses TDG edges never transiently disappears.
func (cs *CycleScratch) retarget(ms *MoveScratch, old, c int32) {
	//hermes:hot
	for _, p := range ms.hosts {
		if c >= 0 && p != c {
			if n := ms.outN[p]; n > 0 {
				cs.inc(c, p, n)
			}
			if n := ms.inN[p]; n > 0 {
				cs.inc(p, c, n)
			}
		}
	}
	//hermes:hot
	for _, p := range ms.hosts {
		if old >= 0 && p != old {
			if n := ms.outN[p]; n > 0 {
				cs.dec(old, p, n)
			}
			if n := ms.inN[p]; n > 0 {
				cs.dec(p, old, n)
			}
		}
	}
}

// onCycle reports whether switch c reaches itself. When the graph was
// acyclic before edges at c were added, every new cycle runs through c,
// so this is the whole acyclicity verdict.
func (cs *CycleScratch) onCycle(c int32) bool {
	cs.gen++
	stack := append(cs.stack[:0], cs.succ[c]...)
	found := false
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if u == c {
			found = true
			break
		}
		if cs.seen[u] == cs.gen {
			continue
		}
		cs.seen[u] = cs.gen
		stack = append(stack, cs.succ[u]...)
	}
	cs.stack = stack[:0]
	return found
}

// acyclic is Kahn's check over the whole graph: the verdict when
// nothing is known about it beforehand.
func (cs *CycleScratch) acyclic() bool {
	clear(cs.indeg)
	edges := 0
	for _, vs := range cs.succ {
		edges += len(vs)
		for _, v := range vs {
			cs.indeg[v]++
		}
	}
	ready := cs.stack[:0]
	for u, d := range cs.indeg {
		if d == 0 {
			ready = append(ready, int32(u))
		}
	}
	for len(ready) > 0 {
		u := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		for _, v := range cs.succ[u] {
			edges--
			if cs.indeg[v]--; cs.indeg[v] == 0 {
				ready = append(ready, v)
			}
		}
	}
	cs.stack = ready[:0]
	return edges == 0
}

// AssignmentLatency sums shortest-path latency over the distinct
// communicating switch pairs of a dense assignment (the ε1 bound of
// Eq. 6 as evaluated by the climb's feasibility probe), read off lat,
// the instance's dense latency table; ok is false when some pair is
// disconnected. ms is reused as the seen-pair set.
func (ci *CompiledInstance) AssignmentLatency(lat []time.Duration, assign []int32, ms *MoveScratch) (time.Duration, bool) {
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
