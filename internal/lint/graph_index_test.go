package lint

import (
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
	"github.com/hermes-net/hermes/internal/workload"
)

// mutated rebuilds g keeping nodes, origins and annotations but, per
// edge and seeded, dropping it with probability drop (a lost
// dependency), bumping its annotated A(a,b) by one byte in one case of
// ten (HL008), or retyping it in one case of twenty (HL007).
func mutated(t *testing.T, g *tdg.Graph, drop float64, seed int64) *tdg.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := tdg.New()
	for _, n := range g.Nodes() {
		if err := out.AddNode(n.MAT, n.Origin...); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range g.Edges() {
		if rng.Float64() < drop {
			continue
		}
		typ, bytes := e.Type, e.MetadataBytes
		switch rng.Intn(20) {
		case 0, 1:
			bytes++
		case 2:
			typ = typ%tdg.DepSuccessor + 1
		}
		if err := out.AddEdge(e.From, e.To, typ, bytes); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// widthConflictGraph gives one metadata name two widths: w16 writes
// meta.w as 16 bits, w8 as 8 bits, and the reader r (first in name
// order) matches it as 8 bits. Its edges are annotated per each MAT's
// own definition, except w8->r, which claims w16's 2 bytes: an engine
// that read one definition per name would flag the wrong edges.
func widthConflictGraph(t *testing.T) *tdg.Graph {
	t.Helper()
	w16, w8 := fields.Metadata("meta.w", 16), fields.Metadata("meta.w", 8)
	set := func(dst fields.Field) []program.Action {
		return []program.Action{{Name: "w", Ops: []program.Op{{Kind: program.OpSet, Dst: dst, Imm: 1}}}}
	}
	g := tdg.New()
	for _, m := range []*program.MAT{
		{Name: "r", Capacity: 1, Keys: []program.MatchKey{{Field: w8, Type: program.MatchExact}},
			Actions: set(fields.Metadata("meta.out", 8))},
		{Name: "w16", Capacity: 1, Actions: set(w16)},
		{Name: "w8", Capacity: 1, Actions: set(w8)},
	} {
		if err := g.AddNode(m, "p"); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []struct {
		from, to string
		typ      tdg.DepType
		bytes    int
	}{
		{"w16", "w8", tdg.DepAction, 1}, // b's definition stands on the shared name
		{"w16", "r", tdg.DepMatch, 2},
		{"w8", "r", tdg.DepMatch, 2}, // wrong: w8's own write is 1 byte
	} {
		if err := g.AddEdge(e.from, e.to, e.typ, e.bytes); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// mixedOriginGraph is a hand-built graph whose nodes all touch one
// metadata field: two origin-less nodes (compared against everything),
// two nodes of program "p", one of program "q", one serving both.
// Readers write a field of their own so only meta.shared couples them.
func mixedOriginGraph(t *testing.T) *tdg.Graph {
	t.Helper()
	f := fields.Metadata("meta.shared", 16)
	writer := func(name string, dst fields.Field) *program.MAT {
		return &program.MAT{Name: name, Capacity: 1,
			Actions: []program.Action{{Name: "w", Ops: []program.Op{{Kind: program.OpSet, Dst: dst, Imm: 1}}}}}
	}
	reader := func(name string, key fields.Field) *program.MAT {
		return &program.MAT{Name: name, Capacity: 1,
			Keys:    []program.MatchKey{{Field: key, Type: program.MatchExact}},
			Actions: []program.Action{{Name: "w", Ops: []program.Op{{Kind: program.OpSet, Dst: fields.Metadata("meta.out_"+name, 8), Imm: 1}}}}}
	}
	g := tdg.New()
	add := func(m *program.MAT, origin ...string) {
		if err := g.AddNode(m, origin...); err != nil {
			t.Fatal(err)
		}
	}
	add(writer("bare_w", f))
	add(reader("bare_r", f))
	add(writer("p_w", f), "p")
	add(reader("p_r", f), "p")
	add(writer("q_w", f), "q")
	add(reader("pq_r", f), "p", "q")
	add(reader("lonely", fields.Metadata("meta.unshared", 8)), "p")
	// One real edge so the edge filters have something to skip.
	if err := g.AddEdge("p_w", "p_r", tdg.DepMatch, 2); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestLintGraphMatchesAllPairsReference is the differential oracle for
// the field-id footprints and the inverted field index: on the merged
// graphs of the benchmark's four corpora and the full synthetic set,
// intact and under seeded mutations (dropped, retyped and re-annotated
// edges), on a graph giving one metadata name two widths, and on a
// hand-built graph mixing origin-less and cross-origin nodes, LintGraph
// must return exactly the findings of the name-keyed all-pairs
// reference, in order.
func TestLintGraphMatchesAllPairsReference(t *testing.T) {
	analyze := func(progs []*program.Program, err error) *tdg.Graph {
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
	synth := 200
	if testing.Short() {
		synth = 40
	}
	spec := workload.PaperSyntheticSpec()
	corpora := []struct {
		name string
		g    *tdg.Graph
	}{
		{"wan30", analyze(workload.EvaluationPrograms(30, 1))},
		{"composite10", analyze(workload.SyntheticSet(30, spec, 1))},
		{"real", analyze(workload.RealPrograms(), nil)},
		{"churn16", analyze(workload.SyntheticSet(16, spec, 1))},
		{"synthetic" + strconv.Itoa(synth), analyze(workload.SyntheticSet(synth, spec, 1))},
	}
	type tc struct {
		name string
		g    *tdg.Graph
		// The floors keep a vacuous pass (both sides finding nothing)
		// from going green on the mutated graphs.
		wantLost, wantRetyped, wantBytes int
	}
	var cases []tc
	for i, c := range corpora {
		seed := int64(2 * i)
		cases = append(cases,
			tc{c.name, c.g, 0, 0, 0},
			tc{c.name + "/drop5%", mutated(t, c.g, 0.05, seed+1), 1, 1, 1},
			tc{c.name + "/drop30%", mutated(t, c.g, 0.30, seed+2), 1, 1, 1})
	}
	cases = append(cases,
		tc{"width-conflict", widthConflictGraph(t), 0, 0, 1},
		tc{"mixed-origin", mixedOriginGraph(t), 1, 0, 0})
	for _, tc := range cases {
		got := LintGraph(tc.g, Options{})
		want := lintGraphAllPairs(tc.g, Options{})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: LintGraph diverges from the all-pairs reference:\n got %d findings\n%s\nwant %d findings\n%s",
				tc.name, len(got), got.Text(), len(want), want.Text())
			continue
		}
		lost, retyped := 0, 0
		for _, f := range byRule(got, "HL007") {
			if strings.Contains(f.Object, "<->") {
				lost++
			} else {
				retyped++
			}
		}
		if bytes := len(byRule(got, "HL008")); lost < tc.wantLost || retyped < tc.wantRetyped || bytes < tc.wantBytes {
			t.Errorf("%s: %d lost-dependency, %d retyped-edge and %d A(a,b) findings, want >= %d, %d and %d",
				tc.name, lost, retyped, bytes, tc.wantLost, tc.wantRetyped, tc.wantBytes)
		}
	}
	// The width-conflict graph flags exactly the mis-annotated edge.
	if fs := byRule(LintGraph(widthConflictGraph(t), Options{}), "HL008"); len(fs) != 1 || fs[0].Object != "w8->r" {
		t.Errorf("width-conflict: HL008 findings %v, want one on w8->r", fs)
	}
}

// TestLintGraphMixedOriginPairs pins which pairs of the hand-built
// graph are lost dependencies: origin-less nodes pair with every node
// sharing the field, same-program nodes pair with each other, and
// nodes of different programs never do.
func TestLintGraphMixedOriginPairs(t *testing.T) {
	var got []string
	for _, f := range byRule(LintGraph(mixedOriginGraph(t), Options{}), "HL007") {
		got = append(got, f.Object)
	}
	want := []string{
		"bare_r<->bare_w", "bare_r<->p_w", "bare_r<->q_w",
		"bare_w<->p_r", "bare_w<->p_w", "bare_w<->pq_r", "bare_w<->q_w",
		"p_w<->pq_r", "pq_r<->q_w",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("lost-dependency pairs:\n got %v\nwant %v", got, want)
	}
}
