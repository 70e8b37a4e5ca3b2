package merge

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

// Two is the literal pairwise step of Algorithm 1's fold, kept as the
// reference TestGraphsMatchesPairwiseFold holds the incremental merger
// to: it merges two TDGs. Nodes of t2 that are equivalent to a node of
// t1 are unified into the t1 node; everything else is unioned. t1's
// edges keep their order and t2's follow in (From, To) order, so a fold
// lists edges in the order it adds them. Inputs are not modified.
func Two(t1, t2 *tdg.Graph) (*tdg.Graph, error) {
	out := copyGraph(t1)

	// Union in t2's nodes, remembering which get unified.
	renamed := make(map[string]string) // t2 name -> merged name
	for _, n2 := range t2.Nodes() {
		target := ""
		for _, n1 := range out.Nodes() {
			if n1.Name() == n2.Name() {
				// Same name across graphs: must be the same MAT
				// definition or the inputs are inconsistent.
				if !n1.MAT.Equivalent(n2.MAT) {
					return nil, fmt.Errorf("merge: node %q has conflicting definitions", n2.Name())
				}
				target = n1.Name()
				break
			}
			if n1.MAT.Equivalent(n2.MAT) {
				target = n1.Name()
				break
			}
		}
		if target == "" {
			if err := out.AddNode(n2.MAT, n2.Origin...); err != nil {
				return nil, err
			}
			renamed[n2.Name()] = n2.Name()
			continue
		}
		renamed[n2.Name()] = target
		node, _ := out.Node(target)
		node.Origin = appendUnique(node.Origin, n2.Origin...)
	}

	// Union in t2's edges under the renaming.
	for _, e := range t2.Edges() {
		from, to := renamed[e.From], renamed[e.To]
		if from == to {
			// Both endpoints unified into the same node; the
			// dependency is internal now.
			continue
		}
		if err := out.AddEdge(from, to, e.Type, e.MetadataBytes); err != nil {
			return nil, err
		}
	}

	if _, err := out.TopoSort(); err == nil {
		return out, nil
	}

	// Unification created a cycle (the two programs order the shared
	// MATs incompatibly). Fall back to a plain union with no
	// unification, which is always acyclic for acyclic inputs.
	return plainUnion(t1, t2)
}

// copyGraph copies g, listing nodes and edges in g's insertion order
// (Clone lists edges sorted).
func copyGraph(g *tdg.Graph) *tdg.Graph {
	out := tdg.New()
	for _, n := range g.Nodes() {
		if err := out.AddNode(n.MAT, n.Origin...); err != nil {
			panic(err)
		}
	}
	for _, e := range g.EdgeList() {
		if err := out.AddEdge(e.From, e.To, e.Type, e.MetadataBytes); err != nil {
			panic(err)
		}
	}
	return out
}

// appendUnique appends each of src not yet in dst: the reference's
// origin merge.
func appendUnique(dst []string, src ...string) []string {
	for _, s := range src {
		if !slices.Contains(dst, s) {
			dst = append(dst, s)
		}
	}
	return dst
}

// plainUnion unions two TDGs without unifying equivalent nodes. Name
// collisions are still required to be genuine duplicates.
func plainUnion(t1, t2 *tdg.Graph) (*tdg.Graph, error) {
	out := copyGraph(t1)
	for _, n2 := range t2.Nodes() {
		if n1, ok := out.Node(n2.Name()); ok {
			if !n1.MAT.Equivalent(n2.MAT) {
				return nil, fmt.Errorf("merge: node %q has conflicting definitions", n2.Name())
			}
			n1.Origin = appendUnique(n1.Origin, n2.Origin...)
			continue
		}
		if err := out.AddNode(n2.MAT, n2.Origin...); err != nil {
			return nil, err
		}
	}
	for _, e := range t2.Edges() {
		if err := out.AddEdge(e.From, e.To, e.Type, e.MetadataBytes); err != nil {
			return nil, err
		}
	}
	if _, err := out.TopoSort(); err != nil {
		return nil, fmt.Errorf("merge: union of TDGs is cyclic")
	}
	return out, nil
}

// sketchProgram builds a program shaped like a sketch: a shared hash
// stage followed by a per-program counting stage. All sketchPrograms
// share an equivalent hash MAT, which the merger should unify.
func sketchProgram(t *testing.T, name string) *tdg.Graph {
	t.Helper()
	idx := fields.Metadata("meta.idx", 32)
	cnt := fields.Metadata("meta.cnt_"+name, 32)
	src := fields.Header("ipv4.srcAddr", 32)

	p := program.NewBuilder(name).
		Table("hash", 1).
		ActionDef("h", program.HashOp(idx, src)).
		Table("count", 1024).
		Key(idx, program.MatchExact).
		ActionDef("c", program.CountOp(cnt, idx)).
		MustBuild()
	g, err := tdg.FromProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTwoUnifiesEquivalentMATs(t *testing.T) {
	g1 := sketchProgram(t, "cm")
	g2 := sketchProgram(t, "bloom")
	m, err := Two(g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	// 4 input MATs; the two hash MATs are equivalent -> 3 remain.
	if m.NumNodes() != 3 {
		t.Errorf("merged NumNodes = %d, want 3\nnodes: %v", m.NumNodes(), m.NodeNames())
	}
	if _, err := m.TopoSort(); err != nil {
		t.Error("merged graph not a DAG")
	}
	// The unified hash node must feed both count tables.
	hash, ok := m.Node("cm/hash")
	if !ok {
		t.Fatal("unified hash node missing")
	}
	if len(m.OutEdges(hash.Name())) != 2 {
		t.Errorf("unified hash has %d out edges, want 2", len(m.OutEdges(hash.Name())))
	}
	// Origin must record both source programs.
	if len(hash.Origin) != 2 {
		t.Errorf("unified node Origin = %v, want both programs", hash.Origin)
	}
}

func TestTwoKeepsDistinctMATs(t *testing.T) {
	// Programs with different capacities are not redundant.
	mk := func(name string, capacity int) *tdg.Graph {
		p := program.NewBuilder(name).
			Table("acl", capacity).
			Key(fields.Header("ipv4.srcAddr", 32), program.MatchTernary).
			ActionDef("drop", program.SetOp(fields.Metadata("meta.drop", 8), 1)).
			MustBuild()
		g, err := tdg.FromProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	m, err := Two(mk("p1", 100), mk("p2", 200))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumNodes() != 2 {
		t.Errorf("NumNodes = %d, want 2 (no unification)", m.NumNodes())
	}
}

func TestGraphsMergesManyAndCountsSavings(t *testing.T) {
	var inputs []*tdg.Graph
	for _, n := range []string{"a", "b", "c", "d"} {
		inputs = append(inputs, sketchProgram(t, n))
	}
	m, err := Graphs(inputs)
	if err != nil {
		t.Fatal(err)
	}
	// 8 MATs in, 4 hash MATs unify into 1 -> 5 out.
	if m.NumNodes() != 5 {
		t.Errorf("NumNodes = %d, want 5", m.NumNodes())
	}
	if got := Savings(inputs, m); got != 3 {
		t.Errorf("Savings = %d, want 3", got)
	}
	if _, err := m.TopoSort(); err != nil {
		t.Error("merged graph not a DAG")
	}
}

func TestGraphsErrors(t *testing.T) {
	if _, err := Graphs(nil); err == nil {
		t.Error("Graphs(nil) succeeded")
	}
	if _, err := Graphs([]*tdg.Graph{nil}); err == nil {
		t.Error("Graphs with nil entry succeeded")
	}
}

func TestGraphsDoesNotMutateInputs(t *testing.T) {
	g1 := sketchProgram(t, "x")
	g2 := sketchProgram(t, "y")
	n1, e1 := g1.NumNodes(), g1.NumEdges()
	if _, err := Graphs([]*tdg.Graph{g1, g2}); err != nil {
		t.Fatal(err)
	}
	if g1.NumNodes() != n1 || g1.NumEdges() != e1 {
		t.Error("merge mutated input graph")
	}
}

func TestTwoSameNameConflictingDefinition(t *testing.T) {
	mk := func(capacity int) *tdg.Graph {
		p := program.NewBuilder("p").
			Table("t", capacity).
			ActionDef("a", program.SetOp(fields.Metadata("meta.m", 8), 1)).
			MustBuild()
		g, err := tdg.FromProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	if _, err := Two(mk(10), mk(20)); err == nil {
		t.Error("Two accepted same-name MATs with different definitions")
	}
}

func TestTwoIdenticalGraphsCollapse(t *testing.T) {
	g := sketchProgram(t, "same")
	m, err := Two(g, g.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if m.NumNodes() != g.NumNodes() || m.NumEdges() != g.NumEdges() {
		t.Errorf("merging a graph with itself changed shape: %d/%d vs %d/%d",
			m.NumNodes(), m.NumEdges(), g.NumNodes(), g.NumEdges())
	}
}

// foldInputs is a merge workload that exercises unification across
// programs, non-unifiable same-shape tables, and the cyclic pair that
// forces the plain-union fallback mid-fold. Each call builds fresh
// graphs.
func foldInputs(t *testing.T) []*tdg.Graph {
	t.Helper()
	mkDistinct := func(name string, capacity int) *tdg.Graph {
		p := program.NewBuilder(name).
			Table("acl", capacity).
			Key(fields.Header("ipv4.srcAddr", 32), program.MatchTernary).
			ActionDef("drop", program.SetOp(fields.Metadata("meta.drop", 8), 1)).
			MustBuild()
		g, err := tdg.FromProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	mkPair := func(prog string, forward bool) *tdg.Graph {
		matA := &program.MAT{
			Name: prog + "/a", Capacity: 4,
			Actions: []program.Action{{Name: "w", Ops: []program.Op{
				program.SetOp(fields.Metadata("meta.a", 8), 1)}}},
		}
		matX := &program.MAT{
			Name: prog + "/x", Capacity: 4,
			Actions: []program.Action{{Name: "w", Ops: []program.Op{
				program.SetOp(fields.Metadata("meta.x", 8), 1)}}},
		}
		g := tdg.New()
		for _, m := range []*program.MAT{matA, matX} {
			if err := g.AddNode(m, prog); err != nil {
				t.Fatal(err)
			}
		}
		from, to := matA.Name, matX.Name
		if !forward {
			from, to = to, from
		}
		if err := g.AddEdge(from, to, tdg.DepSuccessor, 1); err != nil {
			t.Fatal(err)
		}
		return g
	}
	var in []*tdg.Graph
	for _, n := range []string{"cm", "bloom", "hll", "dedup"} {
		in = append(in, sketchProgram(t, n))
	}
	in = append(in, mkDistinct("acl1", 100), mkDistinct("acl2", 200))
	// Opposite-order equivalent pair: unifying it against the pair
	// already folded in would close a cycle, forcing the fallback.
	in = append(in, mkPair("cyc1", true), mkPair("cyc2", false))
	return in
}

// TestGraphsMatchesPairwiseFold pins the indexed incremental merger to
// the reference semantics: folding the inputs one by one through Two
// must produce the same nodes (in the same insertion order), the same
// origins, and the same edges in the same order.
func TestGraphsMatchesPairwiseFold(t *testing.T) {
	inputs := foldInputs(t)
	ref := inputs[0].Clone()
	for _, g := range inputs[1:] {
		var err error
		ref, err = Two(ref, g)
		if err != nil {
			t.Fatal(err)
		}
	}

	got, err := Graphs(foldInputs(t))
	if err != nil {
		t.Fatal(err)
	}

	refNames, gotNames := ref.NodeNames(), got.NodeNames()
	if len(refNames) != len(gotNames) {
		t.Fatalf("node count: fold %d, Graphs %d\nfold: %v\nGraphs: %v",
			len(refNames), len(gotNames), refNames, gotNames)
	}
	for i := range refNames {
		if refNames[i] != gotNames[i] {
			t.Fatalf("node order diverges at %d: fold %q, Graphs %q", i, refNames[i], gotNames[i])
		}
		rn, _ := ref.Node(refNames[i])
		gn, _ := got.Node(gotNames[i])
		if len(rn.Origin) != len(gn.Origin) {
			t.Fatalf("node %q origins: fold %v, Graphs %v", refNames[i], rn.Origin, gn.Origin)
		}
		for j := range rn.Origin {
			if rn.Origin[j] != gn.Origin[j] {
				t.Fatalf("node %q origins: fold %v, Graphs %v", refNames[i], rn.Origin, gn.Origin)
			}
		}
	}

	row := func(e *tdg.Edge) string {
		from, to := e.Endpoints()
		return fmt.Sprintf("%s(%d)->%s(%d) %v/%d", e.From, from, e.To, to, e.Type, e.MetadataBytes)
	}
	re, ge := ref.EdgeList(), got.EdgeList()
	if len(re) != len(ge) {
		t.Fatalf("edge count: fold %d, Graphs %d", len(re), len(ge))
	}
	for i := range re {
		if row(re[i]) != row(ge[i]) {
			t.Errorf("edge %d: fold %s, Graphs %s", i, row(re[i]), row(ge[i]))
		}
	}
}

func TestCycleFallbackToPlainUnion(t *testing.T) {
	// Construct two graphs whose unification would create a cycle:
	// g1: A -> X, g2: X' -> A' where X' is equivalent to X and A'
	// equivalent to A. Unifying both pairs yields A <-> X.
	matA := func() *program.MAT {
		return &program.MAT{
			Name: "pa/a", Capacity: 4,
			Actions: []program.Action{{Name: "w", Ops: []program.Op{
				program.SetOp(fields.Metadata("meta.a", 8), 1)}}},
		}
	}
	matX := func() *program.MAT {
		return &program.MAT{
			Name: "pa/x", Capacity: 4,
			Actions: []program.Action{{Name: "w", Ops: []program.Op{
				program.SetOp(fields.Metadata("meta.x", 8), 1)}}},
		}
	}
	g1 := tdg.New()
	if err := g1.AddNode(matA(), "pa"); err != nil {
		t.Fatal(err)
	}
	if err := g1.AddNode(matX(), "pa"); err != nil {
		t.Fatal(err)
	}
	if err := g1.AddEdge("pa/a", "pa/x", tdg.DepSuccessor, 1); err != nil {
		t.Fatal(err)
	}

	// Same MATs under different names, opposite order.
	a2, x2 := matA(), matX()
	a2.Name, x2.Name = "pb/a", "pb/x"
	g2 := tdg.New()
	if err := g2.AddNode(x2, "pb"); err != nil {
		t.Fatal(err)
	}
	if err := g2.AddNode(a2, "pb"); err != nil {
		t.Fatal(err)
	}
	if err := g2.AddEdge("pb/x", "pb/a", tdg.DepSuccessor, 1); err != nil {
		t.Fatal(err)
	}

	m, err := Two(g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TopoSort(); err != nil {
		t.Fatal("merge returned cyclic graph")
	}
	// Fallback keeps all four nodes.
	if m.NumNodes() != 4 {
		t.Errorf("NumNodes = %d, want 4 (plain union fallback)", m.NumNodes())
	}
}

// TestGraphsLeavesInputsUntouched holds Graphs to "input graphs are not
// modified". The merger appends origins onto the copy of its first
// input, so the copy must own its Node structs and Origin slices; the
// fold's cyclic pair also sends one input through the plain-union
// fallback. Edge bytes are made distinct so a max-merge into an input
// edge would show.
func TestGraphsLeavesInputsUntouched(t *testing.T) {
	inputs := foldInputs(t)
	type snapshot struct {
		nodes, edges int
		origins      map[string][]string
		edgeRows     []string
	}
	take := func(g *tdg.Graph) snapshot {
		s := snapshot{nodes: g.NumNodes(), edges: g.NumEdges(), origins: map[string][]string{}}
		for _, n := range g.Nodes() {
			s.origins[n.Name()] = append([]string(nil), n.Origin...)
		}
		for _, e := range g.EdgeList() {
			s.edgeRows = append(s.edgeRows, fmt.Sprintf("%s->%s %v %dB", e.From, e.To, e.Type, e.MetadataBytes))
		}
		return s
	}
	before := make([]snapshot, len(inputs))
	for i, g := range inputs {
		for j, e := range g.EdgeList() {
			e.MetadataBytes = 10*i + j + 1
		}
		before[i] = take(g)
	}
	merged, err := Graphs(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if Savings(inputs, merged) == 0 {
		t.Fatal("workload unified nothing: the origin-append path went unexercised")
	}
	for i, g := range inputs {
		if after := take(g); !reflect.DeepEqual(after, before[i]) {
			t.Errorf("input %d changed:\nbefore %+v\nafter  %+v", i, before[i], after)
		}
	}
}

// TestEquivKeyIsOrderFreeAndAllocationFree pins the bucket key's two
// contracts. Equivalent compares match keys and actions as sorted
// multisets, so a MAT with its keys and actions permuted must land in
// the same bucket; and the merger hashes every node it folds, so the
// key must not allocate.
func TestEquivKeyIsOrderFreeAndAllocationFree(t *testing.T) {
	src, dst := fields.Header("ipv4.srcAddr", 32), fields.Header("ipv4.dstAddr", 32)
	port, idx := fields.Header("tcp.dstPort", 16), fields.Metadata("meta.idx", 32)
	m := &program.MAT{
		Name: "p/t", Capacity: 64, DefaultAction: "b",
		Keys: []program.MatchKey{
			{Field: src, Type: program.MatchExact},
			{Field: dst, Type: program.MatchLPM},
			{Field: port, Type: program.MatchTernary},
		},
		Actions: []program.Action{
			{Name: "a", Ops: []program.Op{program.HashOp(idx, src, dst)}},
			{Name: "b", Ops: []program.Op{program.SetOp(fields.Metadata("meta.drop", 8), 1)}},
			{Name: "c", Ops: []program.Op{program.CopyOp(idx, port), program.DecOp(fields.Header("ipv4.ttl", 8), 1)}},
		},
		Rules: []program.Rule{{Priority: 2, Action: "a"}, {Priority: 1, Action: "c"}},
	}
	perm := *m
	perm.Name = "q/t"
	perm.Keys = []program.MatchKey{m.Keys[2], m.Keys[0], m.Keys[1]}
	perm.Actions = []program.Action{m.Actions[1], m.Actions[2], m.Actions[0]}
	if !m.Equivalent(&perm) {
		t.Fatal("fixture: the permuted MAT must be Equivalent")
	}
	if equivKey(m) != equivKey(&perm) {
		t.Fatalf("Equivalent MATs got keys %x and %x", equivKey(m), equivKey(&perm))
	}
	other := perm
	other.Keys = []program.MatchKey{m.Keys[0], m.Keys[1], {Field: port, Type: program.MatchRange}}
	if equivKey(m) == equivKey(&other) {
		t.Error("a different match type left the key unchanged")
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = equivKey(m) }); allocs != 0 {
		t.Fatalf("equivKey made %.0f allocations, want 0", allocs)
	}
}
