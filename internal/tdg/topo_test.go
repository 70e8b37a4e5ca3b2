package tdg_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
	"github.com/hermes-net/hermes/internal/workload"
)

// topoSortRef is TopoSort as it was before dense node ids: Kahn's
// algorithm over name-keyed maps built from the edge list, whose ready
// list is scanned for the smallest insertion index on every pick. Kept
// as the differential reference.
func topoSortRef(g *tdg.Graph) ([]string, error) {
	names := g.NodeNames()
	pos := make(map[string]int, len(names))
	for i, name := range names {
		pos[name] = i
	}
	indeg := make(map[string]int, len(names))
	succ := make(map[string][]string, len(names))
	for _, e := range g.EdgeList() {
		indeg[e.To]++
		succ[e.From] = append(succ[e.From], e.To)
	}
	var ready []string
	for _, name := range names {
		if indeg[name] == 0 {
			ready = append(ready, name)
		}
	}
	var out []string
	for len(ready) > 0 {
		best := 0
		for i := 1; i < len(ready); i++ {
			if pos[ready[i]] < pos[ready[best]] {
				best = i
			}
		}
		n := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		out = append(out, n)
		for _, to := range succ[n] {
			indeg[to]--
			if indeg[to] == 0 {
				ready = append(ready, to)
			}
		}
	}
	if len(out) != len(names) {
		return nil, fmt.Errorf("tdg: graph has a cycle (%d of %d nodes sorted)", len(out), len(names))
	}
	return out, nil
}

// rankedDAG builds an n-node DAG whose edges follow a hidden random
// rank, not insertion order, so insertion order is not a topological
// order and the ready set is wide: at low density most nodes are
// sources and every pick is a tie broken by insertion index.
func rankedDAG(t testing.TB, rng *rand.Rand, n int, density float64) *tdg.Graph {
	t.Helper()
	g := tdg.New()
	for i := 0; i < n; i++ {
		if err := g.AddNode(&program.MAT{Name: fmt.Sprintf("n%04d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	rank := rng.Perm(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rank[i] < rank[j] && rng.Float64() < density {
				if err := g.AddEdge(fmt.Sprintf("n%04d", i), fmt.Sprintf("n%04d", j), tdg.DepMatch, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return g
}

func sameSort(t *testing.T, label string, g *tdg.Graph) {
	t.Helper()
	got, gerr := g.TopoSort()
	want, werr := topoSortRef(g)
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("%s: error %v, reference %v", label, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: order differs from the ready-scan reference", label)
	}
	ids, ierr := g.TopoIDs()
	if (ierr == nil) != (gerr == nil) {
		t.Fatalf("%s: TopoIDs error %v, TopoSort error %v", label, ierr, gerr)
	}
	names := g.NodeNames()
	for i, id := range ids {
		if names[id] != got[i] {
			t.Fatalf("%s: TopoIDs[%d] names %q, TopoSort has %q", label, i, names[id], got[i])
		}
	}
}

// TestTopoSortMatchesReadyScanReference: the heap-ordered sort emits the
// reference's order byte for byte — on tie-heavy random DAGs, on the
// merged evaluation corpora and the 200-program synthetic set — and the
// same cycle error on cyclic graphs.
func TestTopoSortMatchesReadyScanReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 40; i++ {
		n := 1 + rng.Intn(120)
		density := []float64{0, 0.005, 0.02, 0.1, 0.4}[i%5]
		g := rankedDAG(t, rng, n, density)
		sameSort(t, fmt.Sprintf("dag%d (n=%d, p=%g)", i, n, density), g)

		// Random extra edges: one against the rank closes a cycle when a
		// path already runs the other way, leaving part of the graph
		// unsortable.
		names := g.NodeNames()
		for k := 0; k < 1+rng.Intn(3) && n > 1; k++ {
			a, b := names[rng.Intn(n)], names[rng.Intn(n)]
			if a != b {
				if err := g.AddEdge(a, b, tdg.DepAction, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		sameSort(t, fmt.Sprintf("dag%d plus back edges", i), g)
	}

	cyc := rankedDAG(t, rng, 6, 0)
	for _, e := range [][2]string{{"n0000", "n0001"}, {"n0001", "n0002"}, {"n0002", "n0000"}, {"n0002", "n0005"}} {
		if err := cyc.AddEdge(e[0], e[1], tdg.DepMatch, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cyc.TopoSort(); err == nil || err.Error() != "tdg: graph has a cycle (2 of 6 nodes sorted)" {
		t.Fatalf("cycle error = %v", err)
	}
	sameSort(t, "three-cycle", cyc)

	for seed := int64(1); seed <= 10; seed++ {
		progs, err := workload.EvaluationPrograms(30, seed)
		sameSort(t, fmt.Sprintf("EvaluationPrograms(30, %d)", seed), corpusGraph(t, progs, err))
	}
	progs, err := workload.SyntheticSet(200, workload.PaperSyntheticSpec(), 1)
	sameSort(t, "SyntheticSet(200)", corpusGraph(t, progs, err))
}

// TestTopoSortAllocationCeiling: one sort allocates its indegree/heap
// buffer and its result, whatever the graph's size.
func TestTopoSortAllocationCeiling(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{10, 300, 3000} {
		g := rankedDAG(t, rng, n, 3.0/float64(n))
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := g.SortUncached(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Fatalf("n=%d: topological sort made %.0f allocations, ceiling 2", n, allocs)
		}
	}
}

// BenchmarkTopoSort is one cold topological sort of the merged
// 200-program synthetic TDG (2,822 MATs), the order the sharded solver
// cuts into region chunks on every deploy.
func BenchmarkTopoSort(b *testing.B) {
	progs, err := workload.SyntheticSet(200, workload.PaperSyntheticSpec(), 1)
	g := corpusGraph(b, progs, err)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sortSink, err = g.SortUncached(); err != nil {
			b.Fatal(err)
		}
	}
}

var sortSink []int32
