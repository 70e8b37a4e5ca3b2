package tdg_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
	"github.com/hermes-net/hermes/internal/workload"
)

// subgraphRef is Subgraph as it was before it learned to cost the
// subset: add the named nodes, then filter the parent's whole sorted
// edge list. Kept as the differential reference.
func subgraphRef(g *tdg.Graph, names []string) (*tdg.Graph, error) {
	sub := tdg.New()
	keep := make(map[string]bool, len(names))
	for _, name := range names {
		n, ok := g.Node(name)
		if !ok {
			return nil, fmt.Errorf("tdg: subgraph of unknown node %q", name)
		}
		if err := sub.AddNode(n.MAT, n.Origin...); err != nil {
			return nil, err
		}
		keep[name] = true
	}
	for _, e := range g.Edges() {
		if keep[e.From] && keep[e.To] {
			if err := sub.AddEdge(e.From, e.To, e.Type, e.MetadataBytes); err != nil {
				return nil, err
			}
		}
	}
	return sub, nil
}

func corpusGraph(t testing.TB, progs []*program.Program, err error) *tdg.Graph {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	g, err := analyzer.Analyze(progs, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// seededDAG builds an n-node DAG with forward edges of random type and
// byte count, inserted in a shuffled order so EdgeList order differs
// from the (From, To) sort.
func seededDAG(t *testing.T, rng *rand.Rand, n int, density float64) *tdg.Graph {
	t.Helper()
	g := tdg.New()
	for i := 0; i < n; i++ {
		m := &program.MAT{Name: fmt.Sprintf("n%03d", i), FixedRequirement: 0.05 + 0.3*rng.Float64()}
		if err := g.AddNode(m, fmt.Sprintf("p%d", i%7)); err != nil {
			t.Fatal(err)
		}
	}
	type pair struct{ a, b int }
	var pairs []pair
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				pairs = append(pairs, pair{i, j})
			}
		}
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	for _, p := range pairs {
		typ := tdg.DepType(1 + rng.Intn(4))
		if err := g.AddEdge(fmt.Sprintf("n%03d", p.a), fmt.Sprintf("n%03d", p.b), typ, rng.Intn(40)); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func sameGraph(t *testing.T, label string, got, want *tdg.Graph) {
	t.Helper()
	if !reflect.DeepEqual(got.NodeNames(), want.NodeNames()) {
		t.Fatalf("%s: node names differ:\n got %v\nwant %v", label, got.NodeNames(), want.NodeNames())
	}
	ge, we := got.EdgeList(), want.EdgeList()
	if len(ge) != len(we) {
		t.Fatalf("%s: %d edges, want %d", label, len(ge), len(we))
	}
	for i := range ge {
		if *ge[i] != *we[i] {
			t.Fatalf("%s: edge %d is %+v, want %+v", label, i, *ge[i], *we[i])
		}
	}
	gt, gerr := got.TopoSort()
	wt, werr := want.TopoSort()
	if (gerr == nil) != (werr == nil) || !reflect.DeepEqual(gt, wt) {
		t.Fatalf("%s: topological orders differ (%v / %v)", label, gerr, werr)
	}
	for _, name := range got.NodeNames() {
		gn, _ := got.Node(name)
		wn, _ := want.Node(name)
		if gn.MAT != wn.MAT || !reflect.DeepEqual(gn.Origin, wn.Origin) {
			t.Fatalf("%s: node %q differs", label, name)
		}
		if len(got.InEdgeList(name)) != len(want.InEdgeList(name)) || len(got.OutEdgeList(name)) != len(want.OutEdgeList(name)) {
			t.Fatalf("%s: node %q adjacency differs", label, name)
		}
		for _, e := range got.OutEdgeList(name) {
			if !slices.Contains(got.InEdgeList(e.To), e) {
				t.Fatalf("%s: edge %s->%s has distinct in/out records", label, name, e.To)
			}
		}
	}
}

// TestSubgraphMatchesEdgeFilterReference: the subset-cost Subgraph must
// be indistinguishable from filtering the parent's sorted edge list —
// same nodes, same EdgeList order, same types and bytes, same
// topological order — on the paper corpus, the 200-program synthetic
// set and seeded random DAGs, over random subsets in random order, the
// empty set and the full set (Clone).
func TestSubgraphMatchesEdgeFilterReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	graphs := map[string]*tdg.Graph{}
	progs, err := workload.EvaluationPrograms(30, 1)
	graphs["eval30"] = corpusGraph(t, progs, err)
	progs, err = workload.SyntheticSet(200, workload.PaperSyntheticSpec(), 1)
	graphs["syn200"] = corpusGraph(t, progs, err)
	for i := 0; i < 6; i++ {
		graphs[fmt.Sprintf("dag%d", i)] = seededDAG(t, rng, 5+rng.Intn(60), 0.05+0.3*rng.Float64())
	}
	for _, label := range []string{"eval30", "syn200", "dag0", "dag1", "dag2", "dag3", "dag4", "dag5"} {
		g := graphs[label]
		all := g.NodeNames()
		subsets := [][]string{nil, all}
		if order, err := g.TopoSort(); err == nil {
			subsets = append(subsets, order, order[len(order)/3:2*len(order)/3])
		}
		for trial := 0; trial < 12; trial++ {
			perm := rng.Perm(len(all))
			pick := make([]string, 0, len(all))
			for _, i := range perm[:rng.Intn(len(all)+1)] {
				pick = append(pick, all[i])
			}
			subsets = append(subsets, pick)
		}
		for i, names := range subsets {
			got, gerr := g.Subgraph(names)
			want, werr := subgraphRef(g, names)
			if gerr != nil || werr != nil {
				t.Fatalf("%s subset %d: errors %v / %v", label, i, gerr, werr)
			}
			sameGraph(t, fmt.Sprintf("%s subset %d", label, i), got, want)
			// The copy is independent: mutating it leaves the parent alone.
			if el := got.EdgeList(); len(el) > 0 {
				e := el[0]
				before := *e
				if err := got.AddEdge(e.From, e.To, tdg.DepMatch, e.MetadataBytes+1); err != nil {
					t.Fatal(err)
				}
				if pe, _ := g.Edge(before.From, before.To); pe.MetadataBytes != before.MetadataBytes {
					t.Fatalf("%s subset %d: mutating the subgraph changed the parent", label, i)
				}
			}
		}
		ref, err := subgraphRef(g, all)
		if err != nil {
			t.Fatal(err)
		}
		sameGraph(t, label+" clone", g.Clone(), ref)

		for _, bad := range [][]string{{"no-such-mat"}, {all[0], "no-such-mat"}, {all[0], all[0]}} {
			_, gerr := g.Subgraph(bad)
			_, werr := subgraphRef(g, bad)
			if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
				t.Fatalf("%s: Subgraph(%v) error %v, reference %v", label, bad, gerr, werr)
			}
		}
		if _, err := g.Subgraph([]string{"no-such-mat"}); err == nil || !strings.Contains(err.Error(), `unknown node "no-such-mat"`) {
			t.Fatalf("%s: unknown-name error text changed: %v", label, err)
		}
	}
}

// TestTotalRequirementBitStable: the sum runs in insertion order, so
// repeated calls (and calls on a clone, which re-inserts in the same
// order) return the same bits; a map-order sum wobbles in the last ulp.
func TestTotalRequirementBitStable(t *testing.T) {
	g := seededDAG(t, rand.New(rand.NewSource(9)), 300, 0.02)
	rm := program.DefaultResourceModel
	want := math.Float64bits(g.TotalRequirement(rm))
	for i := 0; i < 50; i++ {
		if got := math.Float64bits(g.TotalRequirement(rm)); got != want {
			t.Fatalf("call %d: TotalRequirement bits %x, first call %x", i, got, want)
		}
	}
	if got := math.Float64bits(g.Clone().TotalRequirement(rm)); got != want {
		t.Fatalf("clone sums to bits %x, original %x", got, want)
	}
	sum := 0.0
	for _, n := range g.Nodes() {
		sum += rm.Requirement(n.MAT)
	}
	if math.Float64bits(sum) != want {
		t.Fatalf("TotalRequirement is not the insertion-order sum")
	}
}
