package tdg_test

import (
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	hermes "github.com/hermes-net/hermes"
	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/lint"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
	"github.com/hermes-net/hermes/internal/workload"
)

// TestIndexMatchesNameSort checks the index against a plain sort of the
// node names and the cached topological order, shows it is memoized
// until a mutation, and rebuilt after one.
func TestIndexMatchesNameSort(t *testing.T) {
	progs, err := workload.EvaluationPrograms(30, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := analyzer.Analyze(progs, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix := g.Index()
	names := g.NodeNames()
	sorted := slices.Clone(names)
	sort.Strings(sorted)
	for r, id := range ix.ByName {
		if ix.Names[id] != sorted[r] || ix.Rank[id] != int32(r) {
			t.Fatalf("rank %d: id %d is %q (rank %d), want %q", r, id, ix.Names[id], ix.Rank[id], sorted[r])
		}
	}
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ix.Order, order) {
		t.Fatal("index order differs from TopoSort")
	}
	for p, id := range ix.Topo {
		if ix.Names[id] != order[p] || ix.Pos[id] != int32(p) {
			t.Fatalf("topological position %d: id %d (pos %d), want %q", p, id, ix.Pos[id], order[p])
		}
	}
	if g.Index() != ix {
		t.Fatal("index rebuilt without a mutation")
	}
	m := &program.MAT{Name: "aaa_first", Capacity: 1}
	if err := g.AddNode(m); err != nil {
		t.Fatal(err)
	}
	ix2 := g.Index()
	if ix2 == ix || ix2.Names[ix2.ByName[0]] != "aaa_first" || len(ix.ByName) != len(names) {
		t.Fatal("mutation did not rebuild the index, or touched the old one")
	}
}

// TestInternFieldsMatchesMATs checks the field table against the MATs
// it was built from: names ascending and unique, the first definition
// in list order, and every key and op resolving to its field.
func TestInternFieldsMatchesMATs(t *testing.T) {
	progs, err := workload.SyntheticSet(16, workload.PaperSyntheticSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var mats []*program.MAT
	for _, p := range append(progs, workload.RealPrograms()...) {
		mats = append(mats, p.MATs...)
	}
	ft := tdg.InternFields(mats)
	if !slices.IsSorted(ft.Names) || len(slices.Compact(slices.Clone(ft.Names))) != len(ft.Names) {
		t.Fatal("field names are not sorted and unique")
	}
	first := map[string]fields.Field{}
	note := func(f fields.Field) {
		if _, ok := first[f.Name]; !ok {
			first[f.Name] = f
		}
	}
	resolve := func(id int32, f fields.Field) {
		t.Helper()
		if ft.Names[id] != f.Name {
			t.Fatalf("field id %d is %q, want %q", id, ft.Names[id], f.Name)
		}
	}
	for i, m := range mats {
		keys := ft.Keys(int32(i))
		if len(keys) != len(m.Keys) {
			t.Fatalf("%s: %d key ids, want %d", m.Name, len(keys), len(m.Keys))
		}
		for k, key := range m.Keys {
			note(key.Field)
			resolve(keys[k], key.Field)
		}
		ops, j := ft.Ops(int32(i)), 0
		for a, act := range m.Actions {
			for _, op := range act.Ops {
				fop := ops[j]
				j++
				if fop.Kind != op.Kind || fop.Action != int32(a) || len(fop.Srcs) != len(op.Srcs) {
					t.Fatalf("%s: op %d is %+v, want kind %v in action %d", m.Name, j-1, fop, op.Kind, a)
				}
				note(op.Dst)
				resolve(fop.Dst, op.Dst)
				for s, src := range op.Srcs {
					note(src)
					resolve(fop.Srcs[s], src)
				}
			}
		}
		if j != len(ops) {
			t.Fatalf("%s: %d op entries, want %d", m.Name, len(ops), j)
		}
	}
	if len(first) != len(ft.Names) {
		t.Fatalf("%d fields interned, want %d", len(ft.Names), len(first))
	}
	for id, name := range ft.Names {
		if ft.Defs[id] != first[name] {
			t.Fatalf("%s: definition %+v, want the first %+v", name, ft.Defs[id], first[name])
		}
	}
}

// TestUngatedDeployLeavesFieldTableUnbuilt shows the field table is the
// gates' cost alone: an ungated hermes.Deploy reads the graph's index
// (the solver does) but never builds the table, and the first gate
// does.
func TestUngatedDeployLeavesFieldTableUnbuilt(t *testing.T) {
	topo, err := network.TableIII(1, network.TofinoSpec())
	if err != nil {
		t.Fatal(err)
	}
	progs, err := workload.EvaluationPrograms(30, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := hermes.Deploy(progs, topo, hermes.DeployOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix := res.TDG.Index()
	if ix.FieldsBuilt() {
		t.Fatal("an ungated deploy built the field table")
	}
	if err := lint.LintGraph(res.TDG, lint.Options{}).Err(); err != nil {
		t.Fatal(err)
	}
	if !ix.FieldsBuilt() {
		t.Fatal("LintGraph did not build the field table on the graph's index")
	}
}

// TestFootprintsMatchMATFootprint holds Graph.Footprints to
// MAT.Footprint node by node: on the footprints the analyzer hands its
// graph (with and without merging), on a graph built by hand, which
// derives them on first use, and after a mutation drops them. A second
// call returns the memoized slice.
func TestFootprintsMatchMATFootprint(t *testing.T) {
	check := func(label string, g *tdg.Graph) {
		t.Helper()
		fps := g.Footprints()
		if len(fps) != g.NumNodes() {
			t.Fatalf("%s: %d footprints for %d nodes", label, len(fps), g.NumNodes())
		}
		for id := range fps {
			if want := g.NodeOf(int32(id)).MAT.Footprint(); !reflect.DeepEqual(fps[id], want) {
				t.Fatalf("%s: node %d footprint %+v, MAT.Footprint %+v", label, id, fps[id], want)
			}
		}
		if again := g.Footprints(); len(fps) > 0 && &again[0] != &fps[0] {
			t.Fatalf("%s: footprints rebuilt without a mutation", label)
		}
	}
	progs, err := workload.SyntheticSet(30, workload.PaperSyntheticSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []analyzer.Options{{}, {SkipMerge: true}} {
		g, err := analyzer.Analyze(progs, opts)
		if err != nil {
			t.Fatal(err)
		}
		check("analyzed", g)
	}
	g := tdg.New()
	x := fields.Metadata("meta.x", 16)
	for _, m := range []*program.MAT{
		{Name: "a", Capacity: 1, Actions: []program.Action{{Name: "w", Ops: []program.Op{program.SetOp(x, 1)}}}},
		{Name: "b", Capacity: 1, Keys: []program.MatchKey{{Field: x, Type: program.MatchExact}},
			Actions: []program.Action{{Name: "n", Ops: []program.Op{program.SetOp(fields.Metadata("meta.y", 8), 1)}}}},
	} {
		if err := g.AddNode(m); err != nil {
			t.Fatal(err)
		}
	}
	check("hand-built", g)
	if err := g.AddNode(&program.MAT{Name: "c", Capacity: 1, Actions: []program.Action{{Name: "w", Ops: []program.Op{program.SetOp(x, 2)}}}}); err != nil {
		t.Fatal(err)
	}
	check("after AddNode", g)
}

// TestFootprintsConcurrentFirstUse builds a graph's footprints under
// contention: every reader must get the one memoized slice. Run under
// -race it shows the lazy build race-free.
func TestFootprintsConcurrentFirstUse(t *testing.T) {
	progs, err := workload.SyntheticSet(8, workload.PaperSyntheticSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := analyzer.Analyze(progs, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g = g.Clone() // a graph the analyzer did not hand footprints to
	const readers = 8
	got := make([]*program.Footprint, readers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i] = &g.Footprints()[0]
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("reader %d got a different footprint slice than reader 0", i)
		}
	}
}
