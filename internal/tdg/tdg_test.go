package tdg

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/program"
)

func mat(t *testing.T, name string) *program.MAT {
	t.Helper()
	m := &program.MAT{
		Name:     name,
		Capacity: 16,
		Actions: []program.Action{{
			Name: "noop",
			Ops:  []program.Op{program.SetOp(fields.Metadata("meta."+name, 8), 0)},
		}},
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("test MAT invalid: %v", err)
	}
	return m
}

// chain builds a graph a->b->c->... with the given per-edge bytes.
func chain(t *testing.T, names []string, bytes []int) *Graph {
	t.Helper()
	g := New()
	for _, n := range names {
		if err := g.AddNode(mat(t, n)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i+1 < len(names); i++ {
		if err := g.AddEdge(names[i], names[i+1], DepMatch, bytes[i]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestAddNodeAndEdgeErrors(t *testing.T) {
	g := New()
	if err := g.AddNode(nil); err == nil {
		t.Error("AddNode(nil) succeeded")
	}
	m := mat(t, "a")
	if err := g.AddNode(m); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(m); err == nil {
		t.Error("duplicate AddNode succeeded")
	}
	if err := g.AddEdge("a", "a", DepMatch, 0); err == nil {
		t.Error("self edge succeeded")
	}
	if err := g.AddEdge("a", "zz", DepMatch, 0); err == nil {
		t.Error("edge to unknown node succeeded")
	}
	if err := g.AddEdge("zz", "a", DepMatch, 0); err == nil {
		t.Error("edge from unknown node succeeded")
	}
	if err := g.AddNode(mat(t, "b")); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("a", "b", DepType(0), 0); err == nil {
		t.Error("invalid dep type succeeded")
	}
	if err := g.AddEdge("a", "b", DepMatch, -1); err == nil {
		t.Error("negative metadata succeeded")
	}
}

func TestEdgeMergeKeepsStrongerTypeAndMaxBytes(t *testing.T) {
	g := chain(t, []string{"a", "b"}, []int{4})
	// Re-adding with a weaker type and smaller size must not downgrade.
	if err := g.AddEdge("a", "b", DepSuccessor, 2); err != nil {
		t.Fatal(err)
	}
	e, ok := g.Edge("a", "b")
	if !ok {
		t.Fatal("edge missing")
	}
	if e.Type != DepMatch || e.MetadataBytes != 4 {
		t.Errorf("edge = %v/%d, want M/4", e.Type, e.MetadataBytes)
	}
	// A larger size upgrades bytes; a stronger type would upgrade type.
	if err := g.AddEdge("a", "b", DepAction, 9); err != nil {
		t.Fatal(err)
	}
	if e.Type != DepMatch || e.MetadataBytes != 9 {
		t.Errorf("edge = %v/%d, want M/9", e.Type, e.MetadataBytes)
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestTopoSortDeterministicAndComplete(t *testing.T) {
	g := New()
	for _, n := range []string{"c", "a", "b", "d"} {
		if err := g.AddNode(mat(t, n)); err != nil {
			t.Fatal(err)
		}
	}
	// d -> a, d -> b; c independent.
	if err := g.AddEdge("d", "a", DepMatch, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("d", "b", DepMatch, 1); err != nil {
		t.Fatal(err)
	}
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	posOf := map[string]int{}
	for i, n := range order {
		posOf[n] = i
	}
	if posOf["d"] > posOf["a"] || posOf["d"] > posOf["b"] {
		t.Errorf("topological violation: %v", order)
	}
	// Ties break by insertion order: c precedes d among sources.
	if order[0] != "c" {
		t.Errorf("order[0] = %q, want c (insertion-order tiebreak)", order[0])
	}
	// Determinism.
	for i := 0; i < 5; i++ {
		again, err := g.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		for j := range order {
			if again[j] != order[j] {
				t.Fatalf("TopoSort not deterministic: %v vs %v", order, again)
			}
		}
	}
}

func TestCycleDetection(t *testing.T) {
	g := chain(t, []string{"a", "b", "c"}, []int{1, 1})
	if _, err := g.TopoSort(); err != nil {
		t.Fatalf("chain should be a DAG: %v", err)
	}
	if err := g.AddEdge("c", "a", DepMatch, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.TopoSort(); err == nil {
		t.Error("TopoSort succeeded on cyclic graph")
	}
	if _, err := g.Levels(); err == nil {
		t.Error("Levels succeeded on cyclic graph")
	}
}

func TestLevels(t *testing.T) {
	//    a -> b -> d
	//    a -> c ----^
	g := New()
	for _, n := range []string{"a", "b", "c", "d"} {
		if err := g.AddNode(mat(t, n)); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}} {
		if err := g.AddEdge(e[0], e[1], DepMatch, 1); err != nil {
			t.Fatal(err)
		}
	}
	lvl, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"a": 0, "b": 1, "c": 1, "d": 2}
	for n, w := range want {
		if lvl[n] != w {
			t.Errorf("level[%s] = %d, want %d", n, lvl[n], w)
		}
	}
}

func TestSubgraphAndClone(t *testing.T) {
	g := chain(t, []string{"a", "b", "c", "d"}, []int{1, 2, 3})
	sub, err := g.Subgraph([]string{"b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumNodes() != 2 || sub.NumEdges() != 1 {
		t.Errorf("subgraph: %d nodes %d edges, want 2/1", sub.NumNodes(), sub.NumEdges())
	}
	if _, err := g.Subgraph([]string{"zz"}); err == nil {
		t.Error("Subgraph of unknown node succeeded")
	}
	c := g.Clone()
	if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
		t.Error("clone shape mismatch")
	}
	if err := c.AddNode(mat(t, "e")); err != nil {
		t.Fatal(err)
	}
	if err := c.AddEdge("a", "b", DepMatch, 9); err != nil {
		t.Fatal(err)
	}
	if e, _ := g.Edge("a", "b"); g.NumNodes() != 4 || e.MetadataBytes != 1 {
		t.Error("mutating clone affected original")
	}
}

func TestTotalRequirement(t *testing.T) {
	g := chain(t, []string{"a", "b"}, []int{1})
	for _, n := range g.Nodes() {
		n.MAT.FixedRequirement = 0.25
	}
	if got := g.TotalRequirement(program.DefaultResourceModel); got != 0.5 {
		t.Errorf("TotalRequirement = %g, want 0.5", got)
	}
}

func TestDepTypeStrings(t *testing.T) {
	got := []string{DepMatch.String(), DepAction.String(), DepReverse.String(), DepSuccessor.String()}
	want := []string{"M", "A", "R", "S"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("DepType string %d = %q, want %q", i, got[i], want[i])
		}
	}
	if DepType(0).Valid() || DepType(5).Valid() {
		t.Error("invalid DepType reported valid")
	}
}

// --- inference tests ---

func inferProgram(t *testing.T) *program.Program {
	t.Helper()
	idx := fields.Metadata("meta.idx", 32)
	cnt := fields.Metadata("meta.cnt", 32)
	heavy := fields.Metadata("meta.heavy", 8)
	src := fields.Header("ipv4.srcAddr", 32)

	return program.NewBuilder("p").
		Table("hash", 1). // writes idx
		ActionDef("h", program.HashOp(idx, src)).
		Table("count", 1024). // matches idx, writes cnt
		Key(idx, program.MatchExact).
		ActionDef("c", program.CountOp(cnt, idx)).
		Table("mark", 8). // matches cnt, writes heavy
		Key(cnt, program.MatchRange).
		ActionDef("m", program.SetOp(heavy, 1)).
		Table("log", 8). // gated by mark via control edge, writes own field
		ActionDef("l", program.SetOp(fields.Metadata("meta.log", 8), 1)).
		Gate("mark", "log").
		MustBuild()
}

func TestFromProgramInfersDependencyTypes(t *testing.T) {
	g, err := FromProgram(inferProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", g.NumNodes())
	}
	tests := []struct {
		from, to string
		typ      DepType
	}{
		{"p/hash", "p/count", DepMatch},   // count matches idx written by hash
		{"p/count", "p/mark", DepMatch},   // mark matches cnt written by count
		{"p/mark", "p/log", DepSuccessor}, // explicit gate
	}
	for _, tt := range tests {
		e, ok := g.Edge(tt.from, tt.to)
		if !ok {
			t.Errorf("missing edge %s->%s", tt.from, tt.to)
			continue
		}
		if e.Type != tt.typ {
			t.Errorf("edge %s->%s type = %v, want %v", tt.from, tt.to, e.Type, tt.typ)
		}
	}
	// hash also *reads* idx? No: hash writes idx and count reads it as
	// both key and action source, so hash->count must not be Reverse.
	if e, _ := g.Edge("p/hash", "p/count"); e != nil && e.Type == DepReverse {
		t.Error("hash->count wrongly classified reverse")
	}
}

func TestFromProgramActionDependency(t *testing.T) {
	shared := fields.Metadata("meta.shared", 16)
	p := program.NewBuilder("p").
		Table("w1", 1).
		ActionDef("a", program.SetOp(shared, 1)).
		Table("w2", 1).
		ActionDef("b", program.SetOp(shared, 2)).
		MustBuild()
	g, err := FromProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := g.Edge("p/w1", "p/w2")
	if !ok || e.Type != DepAction {
		t.Errorf("w1->w2 = %+v ok=%v, want action dependency", e, ok)
	}
}

func TestFromProgramReverseDependency(t *testing.T) {
	f := fields.Metadata("meta.f", 16)
	p := program.NewBuilder("p").
		Table("reader", 8). // matches f
		Key(f, program.MatchExact).
		ActionDef("r", program.SetOp(fields.Metadata("meta.other", 8), 0)).
		Table("writer", 8). // writes f afterwards
		ActionDef("w", program.SetOp(f, 1)).
		MustBuild()
	g, err := FromProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := g.Edge("p/reader", "p/writer")
	if !ok || e.Type != DepReverse {
		t.Errorf("reader->writer = %+v ok=%v, want reverse dependency", e, ok)
	}
}

func TestFromProgramMatchBeatsActionAndGate(t *testing.T) {
	f := fields.Metadata("meta.f", 16)
	p := program.NewBuilder("p").
		Table("up", 8). // writes f
		ActionDef("w", program.SetOp(f, 1)).
		Table("down", 8). // matches f AND writes f
		Key(f, program.MatchExact).
		ActionDef("w2", program.SetOp(f, 2)).
		Gate("up", "down").
		MustBuild()
	g, err := FromProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := g.Edge("p/up", "p/down")
	if !ok || e.Type != DepMatch {
		t.Errorf("up->down = %+v ok=%v, want match dependency to win", e, ok)
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1 (merged)", g.NumEdges())
	}
}

func TestFromProgramIndependentTables(t *testing.T) {
	p := program.NewBuilder("p").
		Table("t1", 8).
		Key(fields.Header("ipv4.srcAddr", 32), program.MatchExact).
		ActionDef("a", program.SetOp(fields.Metadata("meta.x", 8), 1)).
		Table("t2", 8).
		Key(fields.Header("ipv4.dstAddr", 32), program.MatchExact).
		ActionDef("b", program.SetOp(fields.Metadata("meta.y", 8), 1)).
		MustBuild()
	g, err := FromProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 {
		t.Errorf("independent tables produced %d edges", g.NumEdges())
	}
}

func TestFromProgramRejectsInvalid(t *testing.T) {
	if _, err := FromProgram(&program.Program{Name: "x"}); err == nil {
		t.Error("FromProgram accepted invalid program")
	}
}

func TestFromProgramActionSourceRead(t *testing.T) {
	// Downstream reads the upstream's output only as an action source
	// (not as a match key): still a match dependency, because the value
	// must reach the downstream switch.
	ts := fields.Metadata("meta.ts", 96)
	out := fields.Metadata("meta.report", 32)
	p := program.NewBuilder("p").
		Table("stamp", 4).
		ActionDef("s", program.SetOp(ts, 0)).
		Table("export", 4).
		Key(fields.Header("ipv4.srcAddr", 32), program.MatchExact).
		ActionDef("e", program.CopyOp(out, ts)).
		MustBuild()
	g, err := FromProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := g.Edge("p/stamp", "p/export")
	if !ok {
		t.Fatal("action-source read produced no dependency")
	}
	if e.Type != DepMatch {
		t.Errorf("type = %v, want M", e.Type)
	}
}

func TestEdgeListAndTopoIndex(t *testing.T) {
	g := chain(t, []string{"a", "b", "c"}, []int{1, 2})
	if len(g.EdgeList()) != 2 {
		t.Fatalf("EdgeList = %d edges", len(g.EdgeList()))
	}
	pos := func(ix *Index, name string) int32 {
		id, _ := g.ID(name)
		return ix.Pos[id]
	}
	ix := g.Index()
	if !(pos(ix, "a") < pos(ix, "b") && pos(ix, "b") < pos(ix, "c")) {
		t.Errorf("Index positions not topological: %v", ix.Pos)
	}
	// The cache must invalidate on mutation.
	if err := g.AddNode(mat(t, "z")); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("z", "a", DepMatch, 1); err != nil {
		t.Fatal(err)
	}
	if ix2 := g.Index(); !(pos(ix2, "z") < pos(ix2, "a")) {
		t.Errorf("Index positions stale after mutation: %v", ix2.Pos)
	}
	// Cycle invalidates the cache with an error both times.
	if err := g.AddEdge("c", "z", DepMatch, 1); err != nil {
		t.Fatal(err)
	}
	if ix3 := g.Index(); ix3.Topo != nil || ix3.Pos != nil {
		t.Error("Index of cyclic graph has a topological order")
	}
	if _, err := g.TopoSort(); err == nil {
		t.Error("cached TopoSort of cyclic graph succeeded")
	}
}

// TestTopoCacheConcurrentReaders: goroutines that read a fresh graph's
// topological order at once — as names, as ids and as the lazily built
// index's positions — share one fill and agree (run under -race).
func TestTopoCacheConcurrentReaders(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f"}
	g := chain(t, names, []int{1, 2, 3, 4, 5})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			order, err := g.TopoSort()
			ids, ierr := g.TopoIDs()
			ix := g.Index()
			if err != nil || ierr != nil || !slices.Equal(order, names) || len(ids) != len(names) {
				t.Errorf("order %v (%v), ids %v (%v)", order, err, ids, ierr)
				return
			}
			for i, name := range order {
				if ix.Pos[ids[i]] != int32(i) || ix.Names[ids[i]] != name {
					t.Errorf("position %d: index %d, id %d", i, ix.Pos[ids[i]], ids[i])
				}
			}
		}()
	}
	wg.Wait()
}

func TestUnsortedAdjacencyAccessors(t *testing.T) {
	g := chain(t, []string{"a", "b", "c"}, []int{1, 2})
	if len(g.OutEdgeList("a")) != 1 || len(g.InEdgeList("b")) != 1 {
		t.Error("unsorted adjacency sizes wrong")
	}
	if len(g.OutEdgeList("c")) != 0 || g.OutEdgeList("zz") != nil || g.InEdgeList("zz") != nil {
		t.Error("sink or unknown node has edges")
	}
	// Insertion order, not name order.
	if err := g.AddEdge("a", "c", DepAction, 3); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("b", "c", DepSuccessor, 4); err != nil { // merges into b->c
		t.Fatal(err)
	}
	in := g.InEdgeList("c")
	if len(in) != 2 || in[0].From != "b" || in[1].From != "a" || in[0].Type != DepMatch || in[0].MetadataBytes != 4 {
		t.Errorf("InEdgeList(c) = %v %v, want [b->c M/4, a->c]", *in[0], *in[1])
	}
	if got := g.AppendSuccessors(nil, 0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("AppendSuccessors(a) = %v, want [1 2]", got)
	}
}

// TestAdjacencyMatchesEdgeList: with edge insertions interleaved across
// many nodes, so every adjacency slice outgrows its carve several times
// while its neighbours' carves sit next to it, each node's out- and
// in-slice is exactly the edge list filtered by endpoint, in insertion
// order and by pointer.
func TestAdjacencyMatchesEdgeList(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := New()
	const n = 60
	for i := 0; i < n; i++ {
		if err := g.AddNode(mat(t, fmt.Sprintf("m%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	names := g.NodeNames()
	for k := 0; k < 1500; k++ {
		// Repeats merge into the existing edge.
		a, b := names[rng.Intn(n)], names[rng.Intn(n)]
		if a == b {
			continue
		}
		if err := g.AddEdge(a, b, DepMatch+DepType(rng.Intn(4)), rng.Intn(16)); err != nil {
			t.Fatal(err)
		}
	}
	if g.NumEdges() != len(g.Edges()) {
		t.Fatalf("NumEdges %d, Edges %d", g.NumEdges(), len(g.Edges()))
	}
	for id, name := range names {
		var wantOut, wantIn []*Edge
		for _, e := range g.EdgeList() {
			if e.From == name {
				wantOut = append(wantOut, e)
			}
			if e.To == name {
				wantIn = append(wantIn, e)
			}
		}
		if !slices.Equal(g.OutEdgeList(name), wantOut) || !slices.Equal(g.InEdgeList(name), wantIn) {
			t.Fatalf("node %s: adjacency differs from the filtered edge list", name)
		}
		succ := g.AppendSuccessors(nil, id)
		if len(succ) != len(wantOut) {
			t.Fatalf("node %s: %d successor ids, %d out-edges", name, len(succ), len(wantOut))
		}
		for i, e := range wantOut {
			if names[succ[i]] != e.To {
				t.Fatalf("node %s: successor id %d is %s, want %s", name, succ[i], names[succ[i]], e.To)
			}
			if got, ok := g.Edge(e.From, e.To); !ok || got != e {
				t.Fatalf("Edge(%s, %s) is not the adjacency record", e.From, e.To)
			}
		}
	}
}

// TestOriginAppendLeavesNeighboursIntact: Origin slices are carved from
// one shared chunk, yet appending to one node's Origin (as the merger
// does when it unifies MATs) must not write into the next node's.
func TestOriginAppendLeavesNeighboursIntact(t *testing.T) {
	g := New()
	for _, name := range []string{"a", "b", "c"} {
		if err := g.AddNode(mat(t, name), "p_"+name, "q_"+name); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := g.Node("a")
	a.Origin = append(a.Origin, "r", "s")
	for _, name := range []string{"b", "c"} {
		n, _ := g.Node(name)
		if want := []string{"p_" + name, "q_" + name}; !slices.Equal(n.Origin, want) {
			t.Errorf("node %s Origin = %v after appending to a's, want %v", name, n.Origin, want)
		}
	}
	if want := []string{"p_a", "q_a", "r", "s"}; !slices.Equal(a.Origin, want) {
		t.Errorf("a.Origin = %v, want %v", a.Origin, want)
	}
}

// TestEdgeEndpointsIndexNodeNames: an edge's endpoint ids are the
// insertion indexes of its From and To nodes, and its Pos is its
// EdgeList index, in the graph holding it — also in a Subgraph or
// Clone, whose ids and positions are renumbered. OutEdgesOf and
// InEdgesOf are OutEdgeList and InEdgeList on ids.
func TestEdgeEndpointsIndexNodeNames(t *testing.T) {
	g := chain(t, []string{"a", "b", "c", "d"}, []int{1, 2, 3})
	if err := g.AddEdge("a", "d", DepAction, 4); err != nil {
		t.Fatal(err)
	}
	sub, err := g.Subgraph([]string{"d", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]*Graph{"graph": g, "subgraph": sub, "clone": g.Clone()} {
		names := h.NodeNames()
		for i, e := range h.EdgeList() {
			from, to := e.Endpoints()
			if names[from] != e.From || names[to] != e.To {
				t.Errorf("%s: %s->%s has endpoints %d->%d, naming %s->%s", name, e.From, e.To, from, to, names[from], names[to])
			}
			if e.Pos() != int32(i) {
				t.Errorf("%s: %s->%s is EdgeList[%d] but has Pos %d", name, e.From, e.To, i, e.Pos())
			}
		}
		for id, n := range names {
			if !slices.Equal(h.OutEdgesOf(int32(id)), h.OutEdgeList(n)) || !slices.Equal(h.InEdgesOf(int32(id)), h.InEdgeList(n)) {
				t.Errorf("%s: node %d's id-keyed adjacency differs from %s's", name, id, n)
			}
		}
	}
}
