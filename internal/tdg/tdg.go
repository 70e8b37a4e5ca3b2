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
	"slices"
	"sort"
	"strings"
	"sync"

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
}

// Graph is a table dependency graph. The zero value is not usable; call
// New.
type Graph struct {
	nodes map[string]*Node
	// out and in are adjacency maps: out[from][to] = edge.
	out map[string]map[string]*Edge
	in  map[string]map[string]*Edge
	// list holds every edge in insertion order; the cheap iteration
	// surface for hot paths (sorting in Edges dominates profiles
	// otherwise).
	list []*Edge
	// order preserves node insertion order for deterministic iteration.
	order []string
	// mu guards the lazily-filled topo cache and the derived-result
	// memo, making read-only graph sharing safe across goroutines
	// (parallel candidate evaluation packs against one shared graph).
	// Mutations (AddNode/AddEdge/RemoveNode) remain single-goroutine
	// operations; only reads may run concurrently.
	mu sync.Mutex
	// topoCache memoizes TopoSort between mutations; topoErr holds the
	// cycle error when the last sort failed.
	topoCache []string
	topoPos   map[string]int
	topoErr   error
	topoValid bool
	// memo caches derived computations keyed by caller-chosen strings
	// (e.g. placement's stage-packing results). Cleared on mutation.
	memo map[string]any
}

// memoCap bounds the derived-result memo; on overflow the memo is
// cleared wholesale rather than evicted piecemeal.
const memoCap = 1 << 16

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		nodes: make(map[string]*Node),
		out:   make(map[string]map[string]*Edge),
		in:    make(map[string]map[string]*Edge),
	}
}

// AddNode inserts a MAT. It fails on duplicate names or nil MATs.
func (g *Graph) AddNode(m *program.MAT, origin ...string) error {
	if m == nil {
		return fmt.Errorf("tdg: nil MAT")
	}
	if _, ok := g.nodes[m.Name]; ok {
		return fmt.Errorf("tdg: duplicate node %q", m.Name)
	}
	g.nodes[m.Name] = &Node{MAT: m, Origin: append([]string(nil), origin...)}
	g.out[m.Name] = make(map[string]*Edge)
	g.in[m.Name] = make(map[string]*Edge)
	g.order = append(g.order, m.Name)
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
	if _, ok := g.nodes[from]; !ok {
		return fmt.Errorf("tdg: edge from unknown node %q", from)
	}
	if _, ok := g.nodes[to]; !ok {
		return fmt.Errorf("tdg: edge to unknown node %q", to)
	}
	if metadataBytes < 0 {
		return fmt.Errorf("tdg: negative metadata size on %q->%q", from, to)
	}
	if e, ok := g.out[from][to]; ok {
		if strength(typ) > strength(e.Type) {
			e.Type = typ
		}
		if metadataBytes > e.MetadataBytes {
			e.MetadataBytes = metadataBytes
		}
		return nil
	}
	e := &Edge{From: from, To: to, Type: typ, MetadataBytes: metadataBytes}
	g.out[from][to] = e
	g.in[to][from] = e
	g.list = append(g.list, e)
	g.invalidateDerived()
	return nil
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
	n, ok := g.nodes[name]
	return n, ok
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.list) }

// Nodes returns the nodes in insertion order.
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, 0, len(g.order))
	for _, name := range g.order {
		out = append(out, g.nodes[name])
	}
	return out
}

// NodeNames returns node names in insertion order.
func (g *Graph) NodeNames() []string {
	return append([]string(nil), g.order...)
}

// Edges returns all edges sorted by (From, To) for determinism.
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
	e, ok := g.out[from][to]
	return e, ok
}

// OutEdgeList returns the edges leaving the node in map order (not
// deterministic); use for hot paths where ordering does not matter.
func (g *Graph) OutEdgeList(name string) map[string]*Edge { return g.out[name] }

// InEdgeList returns the edges entering the node in map order (not
// deterministic); use for hot paths where ordering does not matter.
func (g *Graph) InEdgeList(name string) map[string]*Edge { return g.in[name] }

// OutEdges returns the edges leaving the node, sorted by target.
func (g *Graph) OutEdges(name string) []*Edge {
	m := g.out[name]
	out := make([]*Edge, 0, len(m))
	for _, e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].To < out[j].To })
	return out
}

// InEdges returns the edges entering the node, sorted by source.
func (g *Graph) InEdges(name string) []*Edge {
	m := g.in[name]
	out := make([]*Edge, 0, len(m))
	for _, e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].From < out[j].From })
	return out
}

// RemoveNode deletes a node and its incident edges.
func (g *Graph) RemoveNode(name string) error {
	if _, ok := g.nodes[name]; !ok {
		return fmt.Errorf("tdg: remove of unknown node %q", name)
	}
	for to := range g.out[name] {
		delete(g.in[to], name)
	}
	for from := range g.in[name] {
		delete(g.out[from], name)
	}
	delete(g.out, name)
	delete(g.in, name)
	delete(g.nodes, name)
	kept := g.list[:0]
	for _, e := range g.list {
		if e.From != name && e.To != name {
			kept = append(kept, e)
		}
	}
	g.list = kept
	g.invalidateDerived()
	for i, n := range g.order {
		if n == name {
			g.order = append(g.order[:i], g.order[i+1:]...)
			break
		}
	}
	return nil
}

// RedirectEdges moves every edge incident to old so it is incident to
// replacement instead, merging with existing edges; used when the
// merger unifies redundant MATs. Self-edges that would result are
// dropped.
func (g *Graph) RedirectEdges(old, replacement string) error {
	if _, ok := g.nodes[old]; !ok {
		return fmt.Errorf("tdg: redirect from unknown node %q", old)
	}
	if _, ok := g.nodes[replacement]; !ok {
		return fmt.Errorf("tdg: redirect to unknown node %q", replacement)
	}
	for to, e := range g.out[old] {
		if to == replacement {
			continue
		}
		if err := g.AddEdge(replacement, to, e.Type, e.MetadataBytes); err != nil {
			return err
		}
	}
	for from, e := range g.in[old] {
		if from == replacement {
			continue
		}
		if err := g.AddEdge(from, replacement, e.Type, e.MetadataBytes); err != nil {
			return err
		}
	}
	return nil
}

// TopoSort returns the node names in a topological order. Ties are
// broken by insertion order, giving deterministic output. It fails if
// the graph has a cycle. Reverse-match (R) edges still orient the order
// (a must precede b) but do not forbid co-location; they participate in
// sorting like the others.
func (g *Graph) TopoSort() ([]string, error) {
	cache, _, err := g.topoFill()
	if err != nil {
		return nil, err
	}
	return append([]string(nil), cache...), nil
}

// topoFill computes the topo cache on first use (under the lock, so
// concurrent readers race-freely share the lazy fill) and returns the
// shared cache, position map, and cycle error.
func (g *Graph) topoFill() ([]string, map[string]int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.topoValid {
		order, err := g.topoSortUncached()
		g.topoValid = true
		g.topoErr = err
		if err != nil {
			g.topoCache = nil
			g.topoPos = nil
		} else {
			g.topoCache = order
			g.topoPos = make(map[string]int, len(order))
			for i, n := range order {
				g.topoPos[n] = i
			}
		}
	}
	return g.topoCache, g.topoPos, g.topoErr
}

// TopoIndex returns each node's position in the cached topological
// order. The returned map is shared; callers must not modify it.
func (g *Graph) TopoIndex() (map[string]int, error) {
	_, pos, err := g.topoFill()
	if err != nil {
		return nil, err
	}
	return pos, nil
}

// invalidateDerived drops every lazily-derived result (topo cache and
// memo); called by every mutating operation.
func (g *Graph) invalidateDerived() {
	g.mu.Lock()
	g.topoValid = false
	g.topoErr = nil
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
	g.mu.Unlock()
}

func (g *Graph) topoSortUncached() ([]string, error) {
	indeg := make(map[string]int, len(g.nodes))
	for name := range g.nodes {
		indeg[name] = len(g.in[name])
	}
	// Ready queue ordered by insertion order.
	pos := make(map[string]int, len(g.order))
	for i, name := range g.order {
		pos[name] = i
	}
	var ready []string
	for _, name := range g.order {
		if indeg[name] == 0 {
			ready = append(ready, name)
		}
	}
	var out []string
	for len(ready) > 0 {
		// Pick the ready node with the smallest insertion index.
		best := 0
		for i := 1; i < len(ready); i++ {
			if pos[ready[i]] < pos[ready[best]] {
				best = i
			}
		}
		n := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		out = append(out, n)
		for to := range g.out[n] {
			indeg[to]--
			if indeg[to] == 0 {
				ready = append(ready, to)
			}
		}
	}
	if len(out) != len(g.nodes) {
		return nil, fmt.Errorf("tdg: graph has a cycle (%d of %d nodes sorted)", len(out), len(g.nodes))
	}
	return out, nil
}

// IsDAG reports whether the graph is acyclic.
func (g *Graph) IsDAG() bool {
	_, err := g.TopoSort()
	return err == nil
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
		for from := range g.in[n] {
			if lvl[from]+1 > max {
				max = lvl[from] + 1
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
	for _, name := range g.order {
		total += rm.Requirement(g.nodes[name].MAT)
	}
	return total
}

// Subgraph returns a new graph containing only the named nodes and the
// edges among them. Each kept node is a fresh Node with its own copy of
// Origin; only the MAT is shared, so appending origins to the result
// (as merge.Graphs does to the clone of its first input) leaves g alone.
// Edges are copies too, inserted sorted by (From, To), as if filtered
// from Edges(); only the kept nodes' out-edges are gathered and sorted,
// so the cost follows the subset, not the parent.
func (g *Graph) Subgraph(names []string) (*Graph, error) {
	sub := New()
	for _, name := range names {
		n, ok := g.nodes[name]
		if !ok {
			return nil, fmt.Errorf("tdg: subgraph of unknown node %q", name)
		}
		if err := sub.AddNode(n.MAT, n.Origin...); err != nil {
			return nil, err
		}
	}
	var kept []*Edge
	for _, name := range names {
		for to, e := range g.out[name] {
			if _, ok := sub.nodes[to]; ok {
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
		c := *e
		sub.out[c.From][c.To] = &c
		sub.in[c.To][c.From] = &c
		sub.list = append(sub.list, &c)
	}
	return sub, nil
}

// Clone returns an independent copy of the graph: fresh Node and Edge
// structs and Origin slices, sharing only the MAT structs.
func (g *Graph) Clone() *Graph {
	c, err := g.Subgraph(g.order)
	if err != nil {
		// Subgraph over our own node list cannot fail.
		panic("tdg: clone failed: " + err.Error())
	}
	return c
}

// CutBytes sums A(a,b) over edges whose tail is in from and whose head
// is in to. The greedy splitter minimizes this quantity.
func (g *Graph) CutBytes(from, to map[string]bool) int {
	total := 0
	for name := range from {
		for t, e := range g.out[name] {
			if to[t] {
				total += e.MetadataBytes
			}
		}
	}
	return total
}

// DOT renders the graph in Graphviz format for debugging.
func (g *Graph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph tdg {\n  rankdir=LR;\n")
	for _, name := range g.order {
		fmt.Fprintf(&b, "  %q;\n", name)
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  %q -> %q [label=\"%s/%dB\"];\n", e.From, e.To, e.Type, e.MetadataBytes)
	}
	b.WriteString("}\n")
	return b.String()
}
