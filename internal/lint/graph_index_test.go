package lint

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
	"github.com/hermes-net/hermes/internal/workload"
)

// expectedBytesMaps is the map-materialising A(a,b) recomputation
// LintGraph used before expectedBytes summed in place; the oracle
// below holds the two equal on every edge.
func expectedBytesMaps(a, b rawSets, typ tdg.DepType) int {
	switch typ {
	case tdg.DepMatch:
		return metaBytes(a.writes)
	case tdg.DepAction:
		union := map[string]fields.Field{}
		for name, f := range a.writes {
			union[name] = f
		}
		for name, f := range b.writes {
			union[name] = f
		}
		return metaBytes(union)
	case tdg.DepSuccessor:
		return metaBytes(a.writes)
	default:
		return 0
	}
}

// lintGraphAllPairs is the reference LintGraph: the same rules with
// the lost-dependency pass written as the plain scan over all N² node
// pairs. It exists only as the differential oracle for the
// field-indexed pass; it is too slow to gate real deployments
// (hundreds of ms at 2.8k MATs).
func lintGraphAllPairs(g *tdg.Graph, opts Options) Findings {
	var fs Findings
	nodes := g.Nodes()
	raws := make(map[string]rawSets, len(nodes))
	for _, n := range nodes {
		raws[n.Name()] = rawFootprint(n.MAT)
	}
	for _, e := range g.Edges() {
		ra, rb := raws[e.From], raws[e.To]
		want := classifyPair(ra, rb, e.Type == tdg.DepSuccessor)
		if want != e.Type {
			fs = append(fs, Finding{
				Rule: "HL007", Severity: Error, File: opts.File,
				Object: e.From + "->" + e.To,
				Message: fmt.Sprintf("TDG classifies %s->%s as %s, raw field sets imply %v",
					e.From, e.To, e.Type, want),
			})
			continue
		}
		wantBytes := expectedBytesMaps(ra, rb, e.Type)
		if e.MetadataBytes != wantBytes {
			fs = append(fs, Finding{
				Rule: "HL008", Severity: Error, File: opts.File,
				Object: e.From + "->" + e.To,
				Message: fmt.Sprintf("edge %s->%s (%s) annotated with A(a,b)=%dB, raw field sets imply %dB",
					e.From, e.To, e.Type, e.MetadataBytes, wantBytes),
			})
		}
	}
	names := g.NodeNames()
	sort.Strings(names)
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			u, v := names[i], names[j]
			if _, ok := g.Edge(u, v); ok {
				continue
			}
			if _, ok := g.Edge(v, u); ok {
				continue
			}
			nu, _ := g.Node(u)
			nv, _ := g.Node(v)
			if !sharesOrigin(nu, nv) {
				continue
			}
			ru, rv := raws[u], raws[v]
			if overlaps(ru.writes, rv.reads) || overlaps(ru.writes, rv.writes) || overlaps(ru.reads, rv.writes) {
				fs = append(fs, Finding{
					Rule: "HL007", Severity: Error, File: opts.File,
					Object: u + "<->" + v,
					Message: fmt.Sprintf("MATs %q and %q share modified fields but the TDG connects them in neither direction (lost dependency)",
						u, v),
				})
			}
		}
	}
	fs = append(fs, lintIsolatedNodes(g, opts)...)
	fs.Sort()
	return fs
}

// withoutEdges rebuilds g keeping nodes, origins and annotations but
// dropping each edge with probability drop (seeded), and corrupting
// the annotated bytes of one kept edge in ten so HL008 fires too.
func withoutEdges(t *testing.T, g *tdg.Graph, drop float64, seed int64) *tdg.Graph {
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
		bytes := e.MetadataBytes
		if rng.Intn(10) == 0 {
			bytes++
		}
		if err := out.AddEdge(e.From, e.To, e.Type, bytes); err != nil {
			t.Fatal(err)
		}
	}
	return out
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
// the inverted field index: on merged evaluation and synthetic graphs,
// intact and with seeded edge deletions, and on a hand-built graph
// mixing origin-less and cross-origin nodes, LintGraph must return
// exactly the findings of the all-pairs reference.
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
	eval := analyze(workload.EvaluationPrograms(30, 1))
	syn := analyze(workload.SyntheticSet(synth, workload.PaperSyntheticSpec(), 1))

	cases := []struct {
		name string
		g    *tdg.Graph
		// wantLost bounds the lost-dependency findings from below so a
		// vacuous pass (both sides finding nothing) cannot go green.
		wantLost int
	}{
		{"evaluation30", eval, 0},
		{"synthetic", syn, 0},
		{"evaluation30/drop5%/seed1", withoutEdges(t, eval, 0.05, 1), 1},
		{"evaluation30/drop30%/seed2", withoutEdges(t, eval, 0.30, 2), 1},
		{"synthetic/drop5%/seed3", withoutEdges(t, syn, 0.05, 3), 1},
		{"synthetic/drop30%/seed4", withoutEdges(t, syn, 0.30, 4), 1},
		{"mixed-origin", mixedOriginGraph(t), 1},
	}
	for _, tc := range cases {
		got := LintGraph(tc.g, Options{})
		want := lintGraphAllPairs(tc.g, Options{})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: LintGraph diverges from the all-pairs reference:\n got %d findings\n%s\nwant %d findings\n%s",
				tc.name, len(got), got.Text(), len(want), want.Text())
			continue
		}
		lost := 0
		for _, f := range got.ByRule("HL007") {
			if strings.Contains(f.Object, "<->") {
				lost++
			}
		}
		if lost < tc.wantLost {
			t.Errorf("%s: %d lost-dependency findings, want >= %d", tc.name, lost, tc.wantLost)
		}
	}
}

// TestLintGraphMixedOriginPairs pins which pairs of the hand-built
// graph are lost dependencies: origin-less nodes pair with every node
// sharing the field, same-program nodes pair with each other, and
// nodes of different programs never do.
func TestLintGraphMixedOriginPairs(t *testing.T) {
	var got []string
	for _, f := range LintGraph(mixedOriginGraph(t), Options{}).ByRule("HL007") {
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
