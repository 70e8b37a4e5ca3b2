// Package tdg implements table dependency graphs (TDGs), the
// intermediate representation Hermes deploys (paper §IV).
//
// A TDG is a DAG whose nodes are MATs and whose directed edges are MAT
// dependencies. Each edge carries one of the four dependency types from
// Jose et al. [8] that the paper enumerates:
//
//	M — match dependency: b matches a field modified by a.
//	A — action dependency: a and b modify a common field.
//	R — reverse-match dependency: a matches a field modified by b
//	    (with a invoked before b).
//	S — successor dependency: a's result gates whether b executes.
//
// Edges additionally carry A(a,b), the number of metadata bytes that
// must be piggybacked on each packet when a and b land on different
// switches; the analyzer package fills that in per Algorithm 1.
package tdg

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/hermes-net/hermes/internal/program"
)

// DepType is the type T(a,b) of a MAT dependency.
type DepType int

const (
	// DepMatch is a match dependency (M).
	DepMatch DepType = iota + 1
	// DepAction is an action dependency (A).
	DepAction
	// DepReverse is a reverse-match dependency (R).
	DepReverse
	// DepSuccessor is a successor dependency (S).
	DepSuccessor
)

// String returns the paper's single-letter name for the type.
func (d DepType) String() string {
	switch d {
	case DepMatch:
		return "M"
	case DepAction:
		return "A"
	case DepReverse:
		return "R"
	case DepSuccessor:
		return "S"
	default:
		return fmt.Sprintf("DepType(%d)", int(d))
	}
}

// Valid reports whether d is a defined dependency type.
func (d DepType) Valid() bool { return d >= DepMatch && d <= DepSuccessor }

// Node is one MAT in the TDG.
type Node struct {
	// MAT is the underlying table. Node identity is MAT.Name.
	MAT *program.MAT
	// Origin lists the names of the source programs this node serves;
	// merging appends to it when redundant MATs are unified.
	Origin []string
}

// Name returns the node's identity.
func (n *Node) Name() string { return n.MAT.Name }

// Edge is one dependency in the TDG.
type Edge struct {
	// From and To are MAT names; From is the upstream MAT.
	From string
	To   string
	// Type is T(a,b).
	Type DepType
	// MetadataBytes is A(a,b): the bytes of metadata delivered from
	// From to To when they are placed on different switches. Filled in
	// by the analyzer; zero until then (and always zero for R edges).
	MetadataBytes int
	// from and to are the endpoints' ids in the graph holding the edge;
	// pos is the edge's position in its EdgeList.
	from, to, pos int32
}

// Endpoints returns the ids of the edge's upstream and downstream
// nodes in the graph holding it: their insertion indexes, the positions
// Nodes and NodeNames list them at. Callers that resolve per-node state
// into a slice once can then index it per edge instead of hashing the
// From and To names.
func (e *Edge) Endpoints() (from, to int32) { return e.from, e.to }

// Pos returns the edge's position in the EdgeList of the graph holding
// it. A caller that gathers a node subset's edges from the adjacency
// lists sorts them by Pos to put them back in EdgeList order without
// walking the whole list.
func (e *Edge) Pos() int32 { return e.pos }

// Graph is a table dependency graph. The zero value is not usable; call
// New.
//
// Every node has a dense id: its insertion index. Nothing removes a
// node, so an id is stable for the graph's lifetime, and the per-node
// state lives in slices indexed by it.
type Graph struct {
	nodes []*Node
	names []string
	ids   map[string]int32
	// out and in hold each node's edges in insertion order.
	out, in [][]*Edge
	// edges indexes every edge by its (from, to) id pair.
	edges map[uint64]*Edge
	// list holds every edge in insertion order; the cheap iteration
	// surface for hot paths (sorting in Edges dominates profiles
	// otherwise).
	list []*Edge
	// The arenas hand out the Node and Edge structs, the Origin slices,
	// and the backing arrays of out and in.
	nodeArena   arena[Node]
	edgeArena   arena[Edge]
	originArena arena[string]
	adjArena    arena[*Edge]
	// mu guards the lazily-filled topo cache and the derived-result
	// memo, making read-only graph sharing safe across goroutines
	// (parallel candidate evaluation packs against one shared graph).
	// Mutations (AddNode/AddEdge) remain single-goroutine operations;
	// only reads may run concurrently.
	mu sync.Mutex
	// topoCache memoizes TopoSort between mutations and topoIDs the same
	// order as node ids (Index holds each id's position); topoErr holds
	// the cycle error when the last sort failed.
	topoIDs   []int32
	topoCache []string
	topoErr   error
	topoValid bool
	// index is the memoized Index; idxMu serializes its build, so
	// concurrent first readers sort the names once.
	index *Index
	idxMu sync.Mutex
	// memo caches derived computations keyed by caller-chosen strings
	// (e.g. placement's stage-packing results). Cleared on mutation.
	memo map[string]any
	// derived is set while the topo cache, the index or the memo holds
	// anything, so a mutation of a graph nothing has read yet (a
	// builder's) skips the lock.
	derived atomic.Bool
}

// memoCap bounds the derived-result memo; on overflow the memo is
// cleared wholesale rather than evicted piecemeal.
const memoCap = 1 << 16

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		ids:   make(map[string]int32),
		edges: make(map[uint64]*Edge),
	}
}

func edgeKey(from, to int32) uint64 { return uint64(uint32(from))<<32 | uint64(uint32(to)) }

// arena carves values out of chunks that double up to arenaChunk
// elements, so building a graph costs a few allocations per kind rather
// than one per node, per edge and per adjacency growth. Chunks are
// never reallocated, so handed-out pointers and slices stay valid.
type arena[T any] struct{ buf []T }

const arenaChunk = 1024

// alloc returns an empty slice of capacity n. The capacity bound makes
// an append past n reallocate instead of spilling into the next carve.
func (a *arena[T]) alloc(n int) []T {
	if cap(a.buf)-len(a.buf) < n {
		a.buf = make([]T, 0, max(n, min(2*cap(a.buf), arenaChunk), 8))
	}
	lo := len(a.buf)
	a.buf = a.buf[:lo+n]
	return a.buf[lo : lo : lo+n]
}

// new returns a pointer to a zero T.
func (a *arena[T]) new() *T { return &a.alloc(1)[:1][0] }

// reserve makes the next n carves come from one chunk.
func (a *arena[T]) reserve(n int) {
	if cap(a.buf)-len(a.buf) < n {
		a.buf = make([]T, 0, n)
	}
}

// appendCarved appends v to s, a slice carved from a. A full slice
// moves to a doubled carve; the outgrown carve stays behind as dead
// space until the graph is dropped.
func appendCarved[T any](a *arena[T], s []T, v T) []T {
	if len(s) == cap(s) {
		s = append(a.alloc(max(2*len(s), 2)), s...)
	}
	return append(s, v)
}

// Grow reserves room for nodes more nodes and edges more edges, so a
// builder that knows its size up front fills the graph without
// rehashing its maps or regrowing its slices as it goes.
func (g *Graph) Grow(nodes, edges int) {
	if nodes > 0 {
		ids := make(map[string]int32, len(g.nodes)+nodes)
		maps.Copy(ids, g.ids)
		g.ids = ids
		g.nodes = slices.Grow(g.nodes, nodes)
		g.names = slices.Grow(g.names, nodes)
		g.out = slices.Grow(g.out, nodes)
		g.in = slices.Grow(g.in, nodes)
		g.nodeArena.reserve(nodes)
		g.originArena.reserve(nodes)
	}
	if edges > 0 {
		byPair := make(map[uint64]*Edge, len(g.list)+edges)
		maps.Copy(byPair, g.edges)
		g.edges = byPair
		g.list = slices.Grow(g.list, edges)
		g.edgeArena.reserve(edges)
		g.adjArena.reserve(2 * edges)
	}
}

// AddNode inserts a MAT. It fails on duplicate names or nil MATs.
func (g *Graph) AddNode(m *program.MAT, origin ...string) error {
	if m == nil {
		return fmt.Errorf("tdg: nil MAT")
	}
	if _, ok := g.ids[m.Name]; ok {
		return fmt.Errorf("tdg: duplicate node %q", m.Name)
	}
	g.ids[m.Name] = int32(len(g.nodes))
	n := g.nodeArena.new()
	n.MAT = m
	if len(origin) > 0 {
		n.Origin = append(g.originArena.alloc(len(origin)), origin...)
	}
	g.nodes = append(g.nodes, n)
	g.names = append(g.names, m.Name)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.invalidateDerived()
	return nil
}

// AddEdge inserts a dependency. If an edge From→To already exists, the
// stronger type wins (M > A > S > R) and metadata bytes are merged by
// maximum.
func (g *Graph) AddEdge(from, to string, typ DepType, metadataBytes int) error {
	if from == to {
		return fmt.Errorf("tdg: self edge on %q", from)
	}
	if !typ.Valid() {
		return fmt.Errorf("tdg: invalid dependency type %d", int(typ))
	}
	f, ok := g.ids[from]
	if !ok {
		return fmt.Errorf("tdg: edge from unknown node %q", from)
	}
	t, ok := g.ids[to]
	if !ok {
		return fmt.Errorf("tdg: edge to unknown node %q", to)
	}
	if metadataBytes < 0 {
		return fmt.Errorf("tdg: negative metadata size on %q->%q", from, to)
	}
	g.AppendEdge(f, t, typ, metadataBytes)
	return nil
}

// AppendEdge is AddEdge on node ids, the path every edge insertion
// takes: it inserts the dependency from → to, or merges typ and
// metadataBytes into the edge already there. The caller guarantees
// what AddEdge checks: two distinct existing ids, a valid type and
// non-negative bytes.
func (g *Graph) AppendEdge(from, to int32, typ DepType, metadataBytes int) {
	if e, ok := g.edges[edgeKey(from, to)]; ok {
		if strength(typ) > strength(e.Type) {
			e.Type = typ
		}
		if metadataBytes > e.MetadataBytes {
			e.MetadataBytes = metadataBytes
		}
		return
	}
	e := g.edgeArena.new()
	*e = Edge{From: g.names[from], To: g.names[to], Type: typ, MetadataBytes: metadataBytes, from: from, to: to}
	g.addEdge(e)
	g.invalidateDerived()
}

// addEdge links e, whose id pair must be new, into the graph. The caller
// invalidates derived results.
func (g *Graph) addEdge(e *Edge) {
	e.pos = int32(len(g.list))
	g.edges[edgeKey(e.from, e.to)] = e
	g.out[e.from] = appendCarved(&g.adjArena, g.out[e.from], e)
	g.in[e.to] = appendCarved(&g.adjArena, g.in[e.to], e)
	g.list = append(g.list, e)
}

// AppendOrigin adds origin to node id's Origin unless it is listed
// there already.
func (g *Graph) AppendOrigin(id int32, origin string) {
	n := g.nodes[id]
	if !slices.Contains(n.Origin, origin) {
		n.Origin = appendCarved(&g.originArena, n.Origin, origin)
	}
}

// strength orders dependency types for edge merging: a match dependency
// subsumes an action dependency, which subsumes successor/reverse.
func strength(d DepType) int {
	switch d {
	case DepMatch:
		return 4
	case DepAction:
		return 3
	case DepSuccessor:
		return 2
	case DepReverse:
		return 1
	default:
		return 0
	}
}

// Node returns the named node.
func (g *Graph) Node(name string) (*Node, bool) {
	id, ok := g.ids[name]
	if !ok {
		return nil, false
	}
	return g.nodes[id], true
}

// NodeOf returns the node with id id.
func (g *Graph) NodeOf(id int32) *Node { return g.nodes[id] }

// ID returns the named node's id: its insertion index.
func (g *Graph) ID(name string) (int32, bool) {
	id, ok := g.ids[name]
	return id, ok
}

// EdgeByID returns the edge between node ids from and to.
func (g *Graph) EdgeByID(from, to int32) (*Edge, bool) {
	e, ok := g.edges[edgeKey(from, to)]
	return e, ok
}

// AppendSuccessors appends the ids of the targets of node id's
// out-edges to dst, in edge insertion order. A node's id is its
// insertion index.
func (g *Graph) AppendSuccessors(dst []int, id int) []int {
	for _, e := range g.out[id] {
		dst = append(dst, int(e.to))
	}
	return dst
}

// OutEdgesOf returns the edges leaving node id in insertion order,
// without copying: OutEdgeList on a node id. Callers must not modify
// the slice.
func (g *Graph) OutEdgesOf(id int32) []*Edge { return g.out[id] }

// InEdgesOf returns the edges entering node id in insertion order,
// without copying: InEdgeList on a node id. Callers must not modify the
// slice.
func (g *Graph) InEdgesOf(id int32) []*Edge { return g.in[id] }

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.list) }

// Nodes returns the nodes in insertion order.
func (g *Graph) Nodes() []*Node { return append(make([]*Node, 0, len(g.nodes)), g.nodes...) }

// NodeNames returns node names in insertion order.
func (g *Graph) NodeNames() []string { return slices.Clone(g.names) }

// Edges returns a fresh copy of all edges, sorted by (From, To) for
// determinism. The copy and the sort cost O(E log E) string compares
// per call: Edges belongs to output paths (reports, tests), not to
// gates and solvers that run per deploy or heal — those walk EdgeList
// and index nodes through Edge.Endpoints.
func (g *Graph) Edges() []*Edge {
	out := append([]*Edge(nil), g.list...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// EdgeList returns the edges in insertion order without copying or
// sorting. Callers must not modify the slice; use it on hot paths where
// Edges()'s sort would dominate.
func (g *Graph) EdgeList() []*Edge { return g.list }

// Edge returns the edge from → to.
func (g *Graph) Edge(from, to string) (*Edge, bool) {
	f, ok := g.ids[from]
	if !ok {
		return nil, false
	}
	t, ok := g.ids[to]
	if !ok {
		return nil, false
	}
	e, ok := g.edges[edgeKey(f, t)]
	return e, ok
}

// OutEdgeList returns the edges leaving the node in insertion order,
// without copying; callers must not modify the slice. Nil for an
// unknown name.
func (g *Graph) OutEdgeList(name string) []*Edge {
	if id, ok := g.ids[name]; ok {
		return g.out[id]
	}
	return nil
}

// InEdgeList returns the edges entering the node in insertion order,
// without copying; callers must not modify the slice. Nil for an
// unknown name.
func (g *Graph) InEdgeList(name string) []*Edge {
	if id, ok := g.ids[name]; ok {
		return g.in[id]
	}
	return nil
}

// OutEdges returns a copy of the edges leaving the node, sorted by
// target.
func (g *Graph) OutEdges(name string) []*Edge {
	out := slices.Clone(g.OutEdgeList(name))
	slices.SortFunc(out, func(a, b *Edge) int { return strings.Compare(a.To, b.To) })
	return out
}

// InEdges returns a copy of the edges entering the node, sorted by
// source.
func (g *Graph) InEdges(name string) []*Edge {
	out := slices.Clone(g.InEdgeList(name))
	slices.SortFunc(out, func(a, b *Edge) int { return strings.Compare(a.From, b.From) })
	return out
}

// TopoSort returns the node names in a topological order. Ties are
// broken by insertion order, giving deterministic output. It fails if
// the graph has a cycle. Reverse-match (R) edges still orient the order
// (a must precede b) but do not forbid co-location; they participate in
// sorting like the others.
func (g *Graph) TopoSort() ([]string, error) {
	_, cache, err := g.topoFill()
	if err != nil {
		return nil, err
	}
	return append([]string(nil), cache...), nil
}

// topoFill computes the topo cache on first use (under the lock, so
// concurrent readers race-freely share the lazy fill) and returns the
// shared order as ids and as names, and the cycle error.
func (g *Graph) topoFill() ([]int32, []string, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.topoValid {
		ids, err := g.topoSortUncached()
		g.topoValid = true
		g.derived.Store(true)
		g.topoErr = err
		g.topoIDs, g.topoCache = nil, nil
		if err == nil {
			g.topoIDs = ids
			g.topoCache = make([]string, len(ids))
			for i, id := range ids {
				g.topoCache[i] = g.names[id]
			}
		}
	}
	return g.topoIDs, g.topoCache, g.topoErr
}

// TopoIDs returns the cached topological order as node ids: TopoSort
// on ids, without the copy. The slice is shared; callers must not
// modify it.
func (g *Graph) TopoIDs() ([]int32, error) {
	ids, _, err := g.topoFill()
	if err != nil {
		return nil, err
	}
	return ids, nil
}

// invalidateDerived drops every lazily-derived result (topo cache,
// index and memo); called by every mutating operation. Mutations never run
// concurrently with reads, so the unlocked flag read is safe.
func (g *Graph) invalidateDerived() {
	if !g.derived.Load() {
		return
	}
	g.mu.Lock()
	g.derived.Store(false)
	g.topoValid = false
	g.topoErr = nil
	g.index = nil
	g.memo = nil
	g.mu.Unlock()
}

// Memo returns the derived value cached under key, if any. The memo is
// safe for concurrent use and cleared on any graph mutation; callers
// must treat stored values as immutable.
func (g *Graph) Memo(key string) (any, bool) {
	g.mu.Lock()
	v, ok := g.memo[key]
	g.mu.Unlock()
	return v, ok
}

// MemoSet stores a derived value under key. When the memo exceeds
// memoCap entries it is cleared wholesale before inserting.
func (g *Graph) MemoSet(key string, val any) {
	g.mu.Lock()
	if g.memo == nil || len(g.memo) >= memoCap {
		g.memo = make(map[string]any)
	}
	g.memo[key] = val
	g.derived.Store(true)
	g.mu.Unlock()
}

// topoSortUncached is Kahn's algorithm with the ready set in a min-heap
// of node ids, so the ready node inserted first always goes next. It
// walks the out-edge slices directly and allocates only the
// indegree/heap buffer and the result, the order as node ids:
// O((V+E) log V) time.
func (g *Graph) topoSortUncached() ([]int32, error) {
	n := len(g.nodes)
	buf := make([]int32, 2*n)
	indeg, ready := buf[:n], buf[n:n]
	for id, in := range g.in {
		indeg[id] = int32(len(in))
		if len(in) == 0 {
			// Ascending ids: already a valid min-heap.
			ready = append(ready, int32(id))
		}
	}
	out := make([]int32, 0, n)
	for len(ready) > 0 {
		var u int32
		u, ready = heapPop(ready)
		out = append(out, u)
		for _, e := range g.out[u] {
			indeg[e.to]--
			if indeg[e.to] == 0 {
				ready = heapPush(ready, e.to)
			}
		}
	}
	if len(out) != n {
		return nil, fmt.Errorf("tdg: graph has a cycle (%d of %d nodes sorted)", len(out), n)
	}
	return out, nil
}

// heapPush adds v to the binary min-heap h. Every node enters the
// ready heap once, so it never outgrows its n-slot buffer.
func heapPush(h []int32, v int32) []int32 {
	h = append(h, v)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

// heapPop removes and returns the minimum of the non-empty min-heap h.
func heapPop(h []int32) (int32, []int32) {
	top, last := h[0], len(h)-1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r] < h[c] {
			c = r
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top, h
}

// Levels assigns each node its longest-path depth from the sources
// (level 0). FFL/FFLS place MATs level by level.
func (g *Graph) Levels() (map[string]int, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	lvl := make(map[string]int, len(order))
	for _, n := range order {
		max := 0
		for _, e := range g.InEdgeList(n) {
			if lvl[e.From]+1 > max {
				max = lvl[e.From] + 1
			}
		}
		lvl[n] = max
	}
	return lvl, nil
}

// TotalRequirement sums R(a) over all nodes under the given model, in
// insertion order: float addition is not associative, and callers
// compare the sum against capacities and half-totals, so the order must
// not be the map's.
func (g *Graph) TotalRequirement(rm program.ResourceModel) float64 {
	total := 0.0
	for _, n := range g.nodes {
		total += rm.Requirement(n.MAT)
	}
	return total
}

// Subgraph returns a new graph containing only the named nodes and the
// edges among them. Each kept node is a fresh Node with its own copy of
// Origin; only the MAT is shared, so appending origins to the result
// leaves g alone.
// Edges are copies too, inserted sorted by (From, To), as if filtered
// from Edges(); only the kept nodes' out-edges are gathered and sorted,
// so the cost follows the subset, not the parent.
func (g *Graph) Subgraph(names []string) (*Graph, error) {
	sub := New()
	for _, name := range names {
		n, ok := g.Node(name)
		if !ok {
			return nil, fmt.Errorf("tdg: subgraph of unknown node %q", name)
		}
		if err := sub.AddNode(n.MAT, n.Origin...); err != nil {
			return nil, err
		}
	}
	var kept []*Edge
	for _, name := range names {
		for _, e := range g.OutEdgeList(name) {
			if _, ok := sub.ids[e.To]; ok {
				kept = append(kept, e)
			}
		}
	}
	slices.SortFunc(kept, func(a, b *Edge) int {
		if c := strings.Compare(a.From, b.From); c != 0 {
			return c
		}
		return strings.Compare(a.To, b.To)
	})
	sub.list = make([]*Edge, 0, len(kept))
	for _, e := range kept {
		// Both endpoints exist and (From, To) is unique in g, so AddEdge's
		// validation and merge cases cannot arise.
		c := sub.edgeArena.new()
		*c = *e
		c.from, c.to = sub.ids[c.From], sub.ids[c.To]
		sub.addEdge(c)
	}
	return sub, nil
}

// Clone returns an independent copy of the graph: fresh Node and Edge
// structs and Origin slices, sharing only the MAT structs.
func (g *Graph) Clone() *Graph {
	c, err := g.Subgraph(g.names)
	if err != nil {
		// Subgraph over our own node list cannot fail.
		panic("tdg: clone failed: " + err.Error())
	}
	return c
}
