package lint

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/p4lite"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

func TestBadProgramTriggersRuleFamilies(t *testing.T) {
	path := filepath.Join("..", "..", "examples", "p4src", "bad.p4")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p, info, err := p4lite.ParseSource(string(data))
	if err != nil {
		t.Fatal(err)
	}
	fs := LintProgram(p, Options{File: "bad.p4", Source: info})

	want := []string{"HL001", "HL002", "HL003", "HL004", "HL005", "HL009", "HL010", "HL011"}
	got := map[string]bool{}
	for _, r := range fs.Rules() {
		got[r] = true
	}
	for _, r := range want {
		if !got[r] {
			t.Errorf("bad.p4 must trigger %s; rules fired: %v", r, fs.Rules())
		}
	}
	if len(got) < 6 {
		t.Fatalf("bad.p4 must trip at least 6 distinct rules, got %v", fs.Rules())
	}
	// Every finding carries a source position (the lexer threads
	// line/col through the parser into the diagnostics).
	for _, f := range fs {
		if f.Pos.IsZero() {
			t.Errorf("finding %s %q has no source position", f.Rule, f.Object)
		}
		if f.File != "bad.p4" {
			t.Errorf("finding %s missing file attribution: %+v", f.Rule, f)
		}
	}
	if !fs.HasErrors() {
		t.Fatal("bad.p4 overflows the metadata budget; HL005 must be an error")
	}
}

func TestCleanProgramsHaveNoErrors(t *testing.T) {
	for _, name := range []string{"monitor.p4", "router.p4"} {
		path := filepath.Join("..", "..", "examples", "p4src", name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		p, info, err := p4lite.ParseSource(string(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fs := LintProgram(p, Options{File: name, Source: info})
		for _, f := range fs {
			if f.Severity >= Warning {
				t.Errorf("%s should lint without warnings, got %v", name, f)
			}
		}
	}
}

func TestBudgetOptions(t *testing.T) {
	src := `
program tiny;
metadata wide : 128;
metadata wide2 : 128;
table a {
  capacity 1;
  action w { set wide <- 1; set wide2 <- 2; }
  default w;
}
table b {
  key wide : exact;
  key wide2 : exact;
  capacity 2;
  action n { dec ipv4.ttl; }
  default n;
}
`
	p, info, err := p4lite.ParseSource(src)
	if err != nil {
		t.Fatal(err)
	}
	// 32B footprint: under the 64B default, over a 16B budget,
	// ignored with a negative budget.
	if fs := LintProgram(p, Options{Source: info}); len(byRule(fs, "HL005")) != 0 {
		t.Errorf("32B footprint within default budget, got %v", byRule(fs, "HL005"))
	}
	if fs := LintProgram(p, Options{Source: info, MetadataBudgetBytes: 16}); len(byRule(fs, "HL005")) != 1 {
		t.Errorf("want HL005 under 16B budget, got %v", fs.Rules())
	}
	if fs := LintProgram(p, Options{Source: info, MetadataBudgetBytes: -1}); len(byRule(fs, "HL005")) != 0 {
		t.Errorf("negative budget must disable HL005, got %v", fs.Rules())
	}
}

// twoTableSrc has a genuine match dependency: up writes meta "x" that
// down matches on.
const twoTableSrc = `
program duo;
metadata x : 32;
table up {
  capacity 1;
  action w { set x <- 7; }
  default w;
}
table down {
  key x : exact;
  capacity 4;
  action f { set meta.egress_port <- 2; }
  default f;
}
`

func buildAnnotated(t *testing.T) *tdg.Graph {
	t.Helper()
	p, _, err := p4lite.ParseSource(twoTableSrc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := tdg.FromProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := analyzer.AnnotateMetadata(g); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGraphCleanPasses(t *testing.T) {
	g := buildAnnotated(t)
	fs := LintGraph(g, Options{})
	if fs.HasErrors() {
		t.Fatalf("clean graph must lint without errors, got:\n%s", fs.Text())
	}
}

func TestGraphClassificationMismatch(t *testing.T) {
	g := buildAnnotated(t)
	for _, e := range g.Edges() {
		e.Type = tdg.DepReverse // up writes what down matches: must be M
		e.MetadataBytes = 0
	}
	fs := LintGraph(g, Options{})
	if len(byRule(fs, "HL007")) == 0 {
		t.Fatalf("corrupted edge type must trigger HL007, got %v", fs.Rules())
	}
}

func TestGraphMetadataBytesMismatch(t *testing.T) {
	g := buildAnnotated(t)
	for _, e := range g.Edges() {
		e.MetadataBytes += 3 // diverge from Algorithm 1's A(a,b)
	}
	fs := LintGraph(g, Options{})
	if len(byRule(fs, "HL008")) == 0 {
		t.Fatalf("corrupted A(a,b) must trigger HL008, got %v", fs.Rules())
	}
}

func TestGraphLostDependency(t *testing.T) {
	// Rebuild the graph with the same nodes but no edges: the data
	// dependency between up and down is lost, HL007 must notice.
	g := buildAnnotated(t)
	bare := tdg.New()
	for _, n := range g.Nodes() {
		if err := bare.AddNode(n.MAT, n.Origin...); err != nil {
			t.Fatal(err)
		}
	}
	fs := LintGraph(bare, Options{})
	if len(byRule(fs, "HL007")) == 0 {
		t.Fatalf("dropped edge must trigger HL007, got %v", fs.Rules())
	}
}

func TestGraphCycle(t *testing.T) {
	g := buildAnnotated(t)
	// Force a back edge; valid frontends cannot produce one, so the
	// rule only ever fires on hand-built or corrupted graphs.
	if err := g.AddEdge("duo/down", "duo/up", tdg.DepReverse, 0); err != nil {
		t.Fatal(err)
	}
	fs := LintGraph(g, Options{})
	if len(byRule(fs, "HL006")) == 0 {
		t.Fatalf("cyclic TDG must trigger HL006, got %v", fs.Rules())
	}
}

func TestAnalyzedGraphLintsClean(t *testing.T) {
	p, _, err := p4lite.ParseSource(twoTableSrc)
	if err != nil {
		t.Fatal(err)
	}
	g, err := analyzer.Analyze([]*program.Program{p}, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := LintGraph(g, Options{}).Err(); err != nil {
		t.Fatalf("clean program's merged TDG must lint clean: %v", err)
	}
}
