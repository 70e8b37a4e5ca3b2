package merge_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/merge"
	"github.com/hermes-net/hermes/internal/p4lite"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
	"github.com/hermes-net/hermes/internal/workload"
)

// literalAnalyze is Algorithm 1 as the paper lists it, the reference
// the one-pass front half is held to: a TDG per program
// (tdg.FromProgram), the literal pairwise fold (merge.Two) over them,
// then A(a,b) on every edge (analyzer.AnnotateMetadata).
func literalAnalyze(progs []*program.Program) (*tdg.Graph, error) {
	var acc *tdg.Graph
	for _, p := range progs {
		g, err := tdg.FromProgram(p)
		if err != nil {
			return nil, fmt.Errorf("analyzer: converting %q: %w", p.Name, err)
		}
		if acc == nil {
			acc = g.Clone()
			continue
		}
		if acc, err = merge.Two(acc, g); err != nil {
			return nil, fmt.Errorf("analyzer: merging TDGs: %w", err)
		}
	}
	if err := analyzer.AnnotateMetadata(acc); err != nil {
		return nil, err
	}
	return acc, nil
}

// literalUnion is Algorithm 1 without merging (analyzer.Options
// SkipMerge): the programs' TDGs unioned one after another, each
// program's edges in (From, To) order, then A(a,b) on every edge.
func literalUnion(progs []*program.Program) (*tdg.Graph, error) {
	out := tdg.New()
	for _, p := range progs {
		g, err := tdg.FromProgram(p)
		if err != nil {
			return nil, fmt.Errorf("analyzer: converting %q: %w", p.Name, err)
		}
		for _, n := range g.Nodes() {
			if _, ok := out.Node(n.Name()); ok {
				return nil, fmt.Errorf("analyzer: merging TDGs: analyzer: duplicate MAT %q across programs", n.Name())
			}
			if err := out.AddNode(n.MAT, n.Origin...); err != nil {
				return nil, err
			}
		}
		for _, e := range g.Edges() {
			if err := out.AddEdge(e.From, e.To, e.Type, e.MetadataBytes); err != nil {
				return nil, err
			}
		}
	}
	if err := analyzer.AnnotateMetadata(out); err != nil {
		return nil, err
	}
	return out, nil
}

// sameGraph fails unless got lists the nodes of want in the same order
// with the same MATs and origins, and the edges of want in the same
// order with the same endpoints, ids, types and bytes.
func sameGraph(t *testing.T, name string, want, got *tdg.Graph) {
	t.Helper()
	wn, gn := want.Nodes(), got.Nodes()
	if len(wn) != len(gn) {
		t.Fatalf("%s: %d nodes, reference %d", name, len(gn), len(wn))
	}
	for i := range wn {
		if wn[i].MAT != gn[i].MAT {
			t.Fatalf("%s: node %d is %q, reference %q", name, i, gn[i].Name(), wn[i].Name())
		}
		if fmt.Sprint(wn[i].Origin) != fmt.Sprint(gn[i].Origin) {
			t.Fatalf("%s: node %q origins %v, reference %v", name, wn[i].Name(), gn[i].Origin, wn[i].Origin)
		}
	}
	row := func(e *tdg.Edge) string {
		from, to := e.Endpoints()
		return fmt.Sprintf("%s(%d)->%s(%d) %v %dB", e.From, from, e.To, to, e.Type, e.MetadataBytes)
	}
	we, ge := want.EdgeList(), got.EdgeList()
	if len(we) != len(ge) {
		t.Fatalf("%s: %d edges, reference %d", name, len(ge), len(we))
	}
	for i := range we {
		if row(we[i]) != row(ge[i]) {
			t.Fatalf("%s: edge %d is %s, reference %s", name, i, row(ge[i]), row(we[i]))
		}
	}
}

// frontHalfCorpora are the program sets the front half is checked on:
// the Table III mixed corpora, the synthetic sets of the benchmark
// workloads, the real programs and the p4lite examples.
func frontHalfCorpora(t *testing.T) map[string][]*program.Program {
	t.Helper()
	out := map[string][]*program.Program{"real": workload.RealPrograms()}
	for _, n := range []int{10, 20, 30, 40, 50} {
		for seed := int64(1); seed <= 10; seed++ {
			progs, err := workload.EvaluationPrograms(n, seed)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("eval%d/seed%d", n, seed)] = progs
		}
	}
	sizes := []int{16, 200, 500}
	if testing.Short() {
		// The literal fold is quadratic: 500 programs take seconds.
		sizes = sizes[:2]
	}
	for _, n := range sizes {
		progs, err := workload.SyntheticSet(n, workload.PaperSyntheticSpec(), 1)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("synthetic%d", n)] = progs
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "p4src", "*.p4"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("example corpus missing: %v (%d files)", err, len(paths))
	}
	var examples []*program.Program
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if p, _, err := p4lite.ParseSource(string(src)); err == nil {
			examples = append(examples, p)
		}
	}
	if len(examples) < 2 {
		t.Fatalf("only %d p4lite examples parse", len(examples))
	}
	out["p4src"] = examples
	return out
}

// TestFrontHalfMatchesPairwiseFold holds Analyze, which folds programs
// into the merged TDG in one pass, to the literal Algorithm 1 on every
// corpus, merged and (SkipMerge) unioned: the same nodes in the same
// order, the same origins, and the same edge list.
func TestFrontHalfMatchesPairwiseFold(t *testing.T) {
	for name, progs := range frontHalfCorpora(t) {
		for _, opts := range []analyzer.Options{{}, {SkipMerge: true}} {
			reference := literalAnalyze
			if opts.SkipMerge {
				name, reference = name+"/SkipMerge", literalUnion
			}
			want, err := reference(progs)
			if err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}
			got, err := analyzer.Analyze(progs, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sameGraph(t, name, want, got)
		}
	}
}

// TestFrontHalfFixturesMatchPairwiseFold holds Analyze to the literal
// Algorithm 1 where the fold leaves the common path: a unification that
// would close a cycle (the plain-union fallback), a union that is
// cyclic anyway, a same-name conflict, a same-name MAT that a lower-id
// equivalent node claims first, and MATs of one program unified with
// each other. Errors must match the reference's text.
func TestFrontHalfFixturesMatchPairwiseFold(t *testing.T) {
	x, y := fields.Metadata("meta.x", 8), fields.Metadata("meta.y", 16)
	writer := func(name string, capacity int) *program.MAT {
		return &program.MAT{Name: name, Capacity: capacity,
			Actions: []program.Action{{Name: "w", Ops: []program.Op{program.SetOp(x, 1)}}}}
	}
	reader := func(name string) *program.MAT {
		return &program.MAT{Name: name, Capacity: 8,
			Keys:    []program.MatchKey{{Field: x, Type: program.MatchExact}},
			Actions: []program.Action{{Name: "r", Ops: []program.Op{program.SetOp(y, 1)}}}}
	}
	prog := func(name string, mats ...*program.MAT) *program.Program {
		return &program.Program{Name: name, MATs: mats}
	}
	fixtures := map[string][]*program.Program{
		// b orders the equivalent pair against a: unifying closes a cycle.
		"fallback": {
			prog("a", writer("a/w", 4), reader("a/r")),
			prog("b", reader("b/r"), writer("b/w", 4)),
			prog("c", writer("c/w", 4), reader("c/r")),
		},
		// Same names in opposite orders: the plain union is cyclic too.
		"cyclic": {
			prog("a", writer("w", 4), reader("r")),
			prog("b", reader("r"), writer("w", 4)),
		},
		"conflict": {
			prog("a", writer("w", 4)),
			prog("b", writer("w", 5)),
		},
		// b/w's name matches a/w (capacity 5, not equivalent), but the
		// equivalent a/v has the lower id, so the scan unifies b/w there.
		"equivalent-first": {
			prog("a", writer("a/v", 4), writer("a/w", 5)),
			prog("b", writer("a/w", 4)),
		},
		// b/w2 unifies into b/w1, staged by the same fold; their A edge
		// becomes internal.
		"same-program": {
			prog("a", writer("a/w", 4), reader("a/r")),
			prog("b", writer("b/w1", 7), writer("b/w2", 7), reader("b/r")),
		},
	}
	for name, progs := range fixtures {
		for _, opts := range []analyzer.Options{{}, {SkipMerge: true}} {
			reference := literalAnalyze
			if opts.SkipMerge {
				name, reference = name+"/SkipMerge", literalUnion
			}
			want, werr := reference(progs)
			got, gerr := analyzer.Analyze(progs, opts)
			if fmt.Sprint(werr) != fmt.Sprint(gerr) {
				t.Fatalf("%s: error %v, reference %v", name, gerr, werr)
			}
			if werr == nil {
				sameGraph(t, name, want, got)
			}
		}
	}
	if _, err := literalAnalyze(fixtures["cyclic"]); err == nil {
		t.Fatal("the cyclic fixture must fail")
	}
	if _, err := literalAnalyze(fixtures["conflict"]); err == nil {
		t.Fatal("the conflict fixture must fail")
	}
	want, err := literalAnalyze(fixtures["fallback"])
	if err != nil {
		t.Fatal(err)
	}
	if want.NumNodes() != 4 {
		t.Fatalf("fallback fixture merged to %d nodes, want 4: b must fall back, c unify", want.NumNodes())
	}
}
