package analyzer

import (
	"testing"

	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
	"github.com/hermes-net/hermes/internal/workload"
)

// pipelineProgram: hash (writes 4B idx + 2B aux) -> count (matches idx,
// writes 4B cnt) -> mark (range-matches cnt, writes 1B heavy).
func pipelineProgram(t *testing.T, name string) *program.Program {
	t.Helper()
	idx := fields.Metadata("meta.idx", 32)    // 4 B
	aux := fields.Metadata("meta.aux", 16)    // 2 B
	cnt := fields.Metadata("meta.cnt", 32)    // 4 B
	heavy := fields.Metadata("meta.heavy", 8) // 1 B
	src := fields.Header("ipv4.srcAddr", 32)

	return program.NewBuilder(name).
		Table("hash", 1).
		ActionDef("h", program.HashOp(idx, src), program.HashOp(aux, src)).
		Table("count", 1024).
		Key(idx, program.MatchExact).
		ActionDef("c", program.CountOp(cnt, idx)).
		Table("mark", 8).
		Key(cnt, program.MatchRange).
		ActionDef("m", program.SetOp(heavy, 1)).
		MustBuild()
}

func TestAnalyzeAnnotatesMatchDependency(t *testing.T) {
	g, err := Analyze([]*program.Program{pipelineProgram(t, "p")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// hash -> count is a match dep; Algorithm 1 sums all metadata in
	// F_hash^a = {idx(4), aux(2)} = 6 bytes.
	e, ok := g.Edge("p/hash", "p/count")
	if !ok {
		t.Fatal("missing hash->count edge")
	}
	if e.MetadataBytes != 6 {
		t.Errorf("A(hash,count) = %d, want 6", e.MetadataBytes)
	}
	// count -> mark: F_count^a = {cnt(4)} -> 4 bytes.
	e, ok = g.Edge("p/count", "p/mark")
	if !ok {
		t.Fatal("missing count->mark edge")
	}
	if e.MetadataBytes != 4 {
		t.Errorf("A(count,mark) = %d, want 4", e.MetadataBytes)
	}
}

func TestHeaderFieldsDoNotCount(t *testing.T) {
	// A table that modifies a header field (TTL) feeding one that
	// matches it: no metadata overhead.
	ttl := fields.Header("ipv4.ttl", 8)
	p := program.NewBuilder("p").
		Table("route", 16).
		Key(fields.Header("ipv4.dstAddr", 32), program.MatchLPM).
		ActionDef("fwd", program.DecOp(ttl, 1)).
		Table("ttlcheck", 4).
		Key(ttl, program.MatchExact).
		ActionDef("drop", program.SetOp(fields.Metadata("meta.drop", 8), 1)).
		MustBuild()
	g, err := Analyze([]*program.Program{p}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, ok := g.Edge("p/route", "p/ttlcheck")
	if !ok {
		t.Fatal("missing route->ttlcheck edge")
	}
	if e.Type != tdg.DepMatch {
		t.Fatalf("type = %v, want M", e.Type)
	}
	if e.MetadataBytes != 0 {
		t.Errorf("A = %d, want 0 (header fields ride in the packet)", e.MetadataBytes)
	}
}

func TestActionDependencyUnionSizes(t *testing.T) {
	s1 := fields.Metadata("meta.s1", 32) // 4 B
	s2 := fields.Metadata("meta.s2", 16) // 2 B
	p := program.NewBuilder("p").
		Table("w1", 1).
		ActionDef("a", program.SetOp(s1, 1)).
		Table("w2", 1).
		ActionDef("b", program.SetOp(s1, 2), program.SetOp(s2, 3)).
		MustBuild()
	g, err := Analyze([]*program.Program{p}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, ok := g.Edge("p/w1", "p/w2")
	if !ok || e.Type != tdg.DepAction {
		t.Fatalf("edge = %+v ok=%v, want action dep", e, ok)
	}
	// F_a^a ∪ F_b^a = {s1, s2} -> 6 bytes.
	if e.MetadataBytes != 6 {
		t.Errorf("A = %d, want 6", e.MetadataBytes)
	}
}

func TestReverseDependencyIsFree(t *testing.T) {
	f := fields.Metadata("meta.f", 32)
	p := program.NewBuilder("p").
		Table("reader", 8).
		Key(f, program.MatchExact).
		ActionDef("r", program.SetOp(fields.Metadata("meta.o", 8), 0)).
		Table("writer", 8).
		ActionDef("w", program.SetOp(f, 1)).
		MustBuild()
	g, err := Analyze([]*program.Program{p}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, ok := g.Edge("p/reader", "p/writer")
	if !ok || e.Type != tdg.DepReverse {
		t.Fatalf("edge = %+v ok=%v, want reverse dep", e, ok)
	}
	if e.MetadataBytes != 0 {
		t.Errorf("A = %d, want 0 for reverse dependency", e.MetadataBytes)
	}
}

func TestSuccessorDependencySize(t *testing.T) {
	flag := fields.Metadata("meta.flag", 8) // 1 B
	p := program.NewBuilder("p").
		Table("gatekeeper", 8).
		Key(fields.Header("tcp.dstPort", 16), program.MatchExact).
		ActionDef("mark", program.SetOp(flag, 1)).
		Table("audit", 8).
		Key(fields.Header("ipv4.srcAddr", 32), program.MatchExact).
		ActionDef("log", program.SetOp(fields.Metadata("meta.log", 8), 1)).
		Gate("gatekeeper", "audit").
		MustBuild()
	g, err := Analyze([]*program.Program{p}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, ok := g.Edge("p/gatekeeper", "p/audit")
	if !ok || e.Type != tdg.DepSuccessor {
		t.Fatalf("edge = %+v ok=%v, want successor dep", e, ok)
	}
	if e.MetadataBytes != 1 {
		t.Errorf("A = %d, want 1 (the gate flag)", e.MetadataBytes)
	}
}

func TestAnalyzeMergesAcrossPrograms(t *testing.T) {
	p1 := pipelineProgram(t, "p1")
	p2 := pipelineProgram(t, "p2")
	merged, err := Analyze([]*program.Program{p1, p2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The two programs are structurally identical; every MAT unifies.
	if merged.NumNodes() != 3 {
		t.Errorf("NumNodes = %d, want 3 (full unification)", merged.NumNodes())
	}

	noMerge, err := Analyze([]*program.Program{p1, p2}, Options{SkipMerge: true})
	if err != nil {
		t.Fatal(err)
	}
	if noMerge.NumNodes() != 6 {
		t.Errorf("SkipMerge NumNodes = %d, want 6", noMerge.NumNodes())
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := Analyze(nil, Options{}); err == nil {
		t.Error("Analyze(nil) succeeded")
	}
	if _, err := Analyze([]*program.Program{nil}, Options{}); err == nil {
		t.Error("Analyze with nil program succeeded")
	}
	p := pipelineProgram(t, "dup")
	if _, err := Analyze([]*program.Program{p, p}, Options{}); err == nil {
		t.Error("Analyze with duplicate program names succeeded")
	}
}

func TestSummarize(t *testing.T) {
	g, err := Analyze([]*program.Program{pipelineProgram(t, "p")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := Summarize(g)
	if r.Nodes != 3 {
		t.Errorf("Nodes = %d, want 3", r.Nodes)
	}
	if r.MaxEdgeBytes != 6 {
		t.Errorf("MaxEdgeBytes = %d, want 6", r.MaxEdgeBytes)
	}
	if r.TotalMetadataBytes < r.MaxEdgeBytes {
		t.Error("TotalMetadataBytes < MaxEdgeBytes")
	}
	if r.TotalRequirement <= 0 {
		t.Error("TotalRequirement not positive")
	}
}

func TestMetadataFieldsForDeployment(t *testing.T) {
	p := pipelineProgram(t, "p")
	g, err := Analyze([]*program.Program{p}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := g.Node("p/hash")
	b, _ := g.Node("p/count")
	fs, err := MetadataFields(a.MAT, b.MAT, tdg.DepMatch)
	if err != nil {
		t.Fatal(err)
	}
	if !fs.Contains("meta.idx") || !fs.Contains("meta.aux") {
		t.Errorf("MetadataFields = %v, want idx and aux", fs)
	}
	fs, err = MetadataFields(a.MAT, b.MAT, tdg.DepReverse)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Len() != 0 {
		t.Errorf("reverse MetadataFields = %v, want empty", fs)
	}
}

// TestAnalyzeAllocationCeiling pins Algorithm 1's allocation budget on
// the paper's 30-program evaluation point. Building a fields.Set per MAT
// and per edge endpoint cost 31,073 allocations here; footprints brought
// it to 8,517, and graphs that carve nodes, edges and adjacency out of
// shared chunks instead of two maps per node to 3,933.
func TestAnalyzeAllocationCeiling(t *testing.T) {
	progs, err := workload.EvaluationPrograms(30, 1)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Analyze(progs, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4200 {
		t.Fatalf("Analyze(EvaluationPrograms(30, 1)) made %.0f allocations, ceiling 4,200", allocs)
	}
}

// BenchmarkAnalyzeWAN30 is Algorithm 1 on the wan30 benchmark workload's
// programs.
func BenchmarkAnalyzeWAN30(b *testing.B) {
	progs, err := workload.EvaluationPrograms(30, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Analyze(progs, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
