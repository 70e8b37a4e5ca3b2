package workload

import (
	"math/rand"
	"testing"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

func TestRealProgramsAreValid(t *testing.T) {
	progs := RealPrograms()
	if len(progs) != 10 {
		t.Fatalf("RealPrograms = %d entries, want 10 (the paper's count)", len(progs))
	}
	seen := map[string]bool{}
	for _, p := range progs {
		if err := p.Validate(); err != nil {
			t.Errorf("program %q invalid: %v", p.Name, err)
		}
		if seen[p.Name] {
			t.Errorf("duplicate program name %q", p.Name)
		}
		seen[p.Name] = true
	}
}

func TestRealProgramsConvertToDAGs(t *testing.T) {
	for _, p := range RealPrograms() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			g, err := tdg.FromProgram(p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := g.TopoSort(); err != nil {
				t.Error("program TDG is cyclic")
			}
			if g.NumNodes() < 2 {
				t.Errorf("program has only %d MATs", g.NumNodes())
			}
		})
	}
}

func TestRealProgramsHaveMetadataFlows(t *testing.T) {
	// Every real program must exhibit at least one dependency carrying
	// metadata — otherwise it cannot exercise inter-switch
	// coordination.
	for _, p := range RealPrograms() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			g, err := analyzer.Analyze([]*program.Program{p}, analyzer.Options{})
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for _, e := range g.Edges() {
				total += e.MetadataBytes
			}
			if total == 0 {
				t.Errorf("program %q delivers no metadata on any edge", p.Name)
			}
		})
	}
}

func TestINTUsesTableIMetadata(t *testing.T) {
	g, err := tdg.FromProgram(INT())
	if err != nil {
		t.Fatal(err)
	}
	n, ok := g.Node("int/int_source")
	if !ok {
		t.Fatal("int_source missing")
	}
	fp := n.MAT.Footprint()
	if fp.WriteErr != nil {
		t.Fatal(fp.WriteErr)
	}
	// Table I: switch ID 4B + timestamp 12B + queue len 6B = 22 bytes.
	if got := fp.WriteMetaBytes; got != 22 {
		t.Errorf("INT source metadata = %d bytes, want 22 (Table I)", got)
	}
}

func TestSyntheticSpecValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bad := []SyntheticSpec{
		{MinMATs: 0, MaxMATs: 5, DependencyProbability: 0.3, MinResource: 0.1, MaxResource: 0.5, MetadataSizes: []int{4}},
		{MinMATs: 5, MaxMATs: 4, DependencyProbability: 0.3, MinResource: 0.1, MaxResource: 0.5, MetadataSizes: []int{4}},
		{MinMATs: 1, MaxMATs: 2, DependencyProbability: 1.3, MinResource: 0.1, MaxResource: 0.5, MetadataSizes: []int{4}},
		{MinMATs: 1, MaxMATs: 2, DependencyProbability: 0.3, MinResource: 0, MaxResource: 0.5, MetadataSizes: []int{4}},
		{MinMATs: 1, MaxMATs: 2, DependencyProbability: 0.3, MinResource: 0.1, MaxResource: 0.5},
	}
	for i, spec := range bad {
		if _, err := Synthetic("x", spec, rng); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestSyntheticMatchesPaperParameters(t *testing.T) {
	spec := PaperSyntheticSpec()
	progs, err := SyntheticSet(40, spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 40 {
		t.Fatalf("got %d programs", len(progs))
	}
	totalMATs, totalPairs, totalDeps := 0, 0, 0
	for _, p := range progs {
		if err := p.Validate(); err != nil {
			t.Fatalf("synthetic program invalid: %v", err)
		}
		n := len(p.MATs)
		if n < 10 || n > 20 {
			t.Errorf("program %q has %d MATs, want 10-20", p.Name, n)
		}
		totalMATs += n
		totalPairs += n * (n - 1) / 2
		for _, m := range p.MATs {
			if m.FixedRequirement < 0.1 || m.FixedRequirement > 0.5 {
				t.Errorf("MAT %q requirement %g outside 10-50%%", m.Name, m.FixedRequirement)
			}
		}
		g, err := tdg.FromProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		totalDeps += g.NumEdges()
	}
	// Dependency probability ~30%: allow 25-35% over the aggregate.
	frac := float64(totalDeps) / float64(totalPairs)
	if frac < 0.25 || frac > 0.35 {
		t.Errorf("aggregate dependency fraction = %.3f, want ~0.30", frac)
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a, err := SyntheticSet(3, PaperSyntheticSpec(), 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SyntheticSet(3, PaperSyntheticSpec(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if len(a[i].MATs) != len(b[i].MATs) {
			t.Fatalf("program %d differs across equal seeds", i)
		}
		for j := range a[i].MATs {
			if !a[i].MATs[j].Equivalent(b[i].MATs[j]) {
				t.Fatalf("program %d MAT %d differs across equal seeds", i, j)
			}
		}
	}
}

func TestSyntheticAnalyzable(t *testing.T) {
	progs, err := SyntheticSet(5, PaperSyntheticSpec(), 3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := analyzer.Analyze(progs, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.TopoSort(); err != nil {
		t.Error("merged synthetic TDG cyclic")
	}
	// Body MATs use disjoint metadata namespaces, but the five shared
	// preambles unify into one hub MAT.
	want := 0
	for _, p := range progs {
		want += len(p.MATs)
	}
	want -= len(progs) - 1
	if g.NumNodes() != want {
		t.Errorf("merged nodes = %d, want %d (preambles unified)", g.NumNodes(), want)
	}
	hub, ok := g.Node(progs[0].Name + "/shared_hash")
	if !ok {
		t.Fatal("unified preamble missing")
	}
	if len(g.OutEdges(hub.Name())) == 0 {
		t.Error("unified preamble feeds nothing")
	}
}

func TestEvaluationPrograms(t *testing.T) {
	progs, err := EvaluationPrograms(50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 50 {
		t.Fatalf("got %d programs, want 50", len(progs))
	}
	few, err := EvaluationPrograms(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(few) != 4 {
		t.Fatalf("got %d programs, want 4", len(few))
	}
}

func TestSketchSharingEnablesMerging(t *testing.T) {
	sketches, err := SketchSet(10, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(sketches) != 10 {
		t.Fatalf("got %d sketches", len(sketches))
	}
	merged, err := analyzer.Analyze(sketches, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	separate := 0
	for _, s := range sketches {
		separate += len(s.MATs)
	}
	// The ten identical shared_hash MATs unify into one.
	if got := separate - merged.NumNodes(); got != 9 {
		t.Errorf("merging saved %d MATs, want 9", got)
	}
}

func TestSketchValidation(t *testing.T) {
	if _, err := Sketch("s", 0); err == nil {
		t.Error("0-row sketch accepted")
	}
	if _, err := Sketch("s", 4); err == nil {
		t.Error("4-row sketch accepted")
	}
}

func TestSyntheticSetNegativeCount(t *testing.T) {
	if _, err := SyntheticSet(-1, PaperSyntheticSpec(), 1); err == nil {
		t.Error("negative count accepted")
	}
}
