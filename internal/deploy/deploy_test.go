package deploy

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/workload"
)

func pipelineProgram(t *testing.T) *program.Program {
	t.Helper()
	idx := fields.Metadata("meta.idx", 32)
	cnt := fields.Metadata("meta.cnt", 32)
	src := fields.Header(fields.IPv4Src, 32)
	return program.NewBuilder("p").
		Table("hash", 1).
		ActionDef("h", program.HashOp(idx, src)).
		Default("h").
		Table("count", 1024).
		Key(idx, program.MatchExact).
		ActionDef("c", program.CountOp(cnt, idx)).
		Default("c").
		MustBuild()
}

func compiled(t *testing.T) (*Deployment, *placement.Plan) {
	t.Helper()
	g, err := analyzer.Analyze([]*program.Program{pipelineProgram(t)}, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tp := network.NewTopology("tb")
	for i := 0; i < 2; i++ {
		tp.AddSwitch(network.Switch{
			Programmable: true, Stages: 1, StageCapacity: 0.5,
			TransitLatency: time.Microsecond,
		})
	}
	if err := tp.AddLink(0, 1, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	plan, err := (placement.Greedy{}).Solve(g, tp, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Compile(plan, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return dep, plan
}

func TestCompileProducesConfigsAndHeaders(t *testing.T) {
	dep, plan := compiled(t)
	if err := dep.Verify(); err != nil {
		t.Fatal(err)
	}
	if len(dep.Configs) != plan.QOcc() {
		t.Errorf("configs = %d, want %d", len(dep.Configs), plan.QOcc())
	}
	// The hash->count match dependency crosses switches, so exactly one
	// header carrying meta.idx (4 B).
	if len(dep.Headers) != 1 {
		t.Fatalf("headers = %d, want 1", len(dep.Headers))
	}
	for _, hdr := range dep.Headers {
		if hdr.Bytes != 4 {
			t.Errorf("header bytes = %d, want 4", hdr.Bytes)
		}
		if len(hdr.Fields) != 1 || hdr.Fields[0].Name != "meta.idx" {
			t.Errorf("header fields = %v, want [meta.idx]", hdr.Fields)
		}
	}
	if dep.MaxHeaderBytes() != 4 {
		t.Errorf("MaxHeaderBytes = %d, want 4", dep.MaxHeaderBytes())
	}
	// Exporter and importer wired up.
	uh, _ := plan.SwitchOf("p/hash")
	uc, _ := plan.SwitchOf("p/count")
	if len(dep.Configs[uh].Exports) != 1 || len(dep.Configs[uc].Imports) != 1 {
		t.Error("export/import maps not wired")
	}
}

func TestCompileSingleSwitchHasNoHeaders(t *testing.T) {
	g, err := analyzer.Analyze([]*program.Program{pipelineProgram(t)}, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tp := network.NewTopology("one")
	tp.AddSwitch(network.Switch{
		Programmable: true, Stages: 12, StageCapacity: 1,
		TransitLatency: time.Microsecond,
	})
	plan, err := (placement.Greedy{}).Solve(g, tp, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Compile(plan, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(dep.Headers) != 0 {
		t.Errorf("single-switch deployment has %d headers", len(dep.Headers))
	}
	if err := dep.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestMATNamesSorted(t *testing.T) {
	dep, _ := compiled(t)
	for _, cfg := range dep.Configs {
		names := cfg.MATNames()
		for i := 1; i < len(names); i++ {
			if names[i-1] >= names[i] {
				t.Errorf("MATNames not sorted: %v", names)
			}
		}
		if len(names) == 0 {
			t.Error("config with no MATs")
		}
	}
}

func TestVerifyCatchesTampering(t *testing.T) {
	t.Run("header exceeds analysis", func(t *testing.T) {
		dep, _ := compiled(t)
		for key := range dep.Headers {
			hdr := dep.Headers[key]
			hdr.Bytes += 100
			dep.Headers[key] = hdr
		}
		if err := dep.Verify(); err == nil {
			t.Error("inflated header accepted")
		}
	})
	t.Run("missing header", func(t *testing.T) {
		dep, _ := compiled(t)
		for key := range dep.Headers {
			delete(dep.Headers, key)
		}
		if err := dep.Verify(); err == nil {
			t.Error("missing header accepted")
		}
	})
	t.Run("missing stage entry", func(t *testing.T) {
		dep, _ := compiled(t)
		for _, cfg := range dep.Configs {
			cfg.Stages = make([][]StageEntry, len(cfg.Stages))
		}
		if err := dep.Verify(); err == nil {
			t.Error("emptied stage program accepted")
		}
	})
	// The host table reads -1 for an unplaced MAT, so a placement on a
	// negative switch ID must not pass as one.
	for _, sw := range []network.SwitchID{-1, -2} {
		t.Run(fmt.Sprintf("MAT on switch %d", sw), func(t *testing.T) {
			dep, plan := compiled(t)
			sp := plan.Assignments["p/count"]
			sp.Switch = sw
			plan.Assignments["p/count"] = sp
			plan.InvalidateCache()
			want := fmt.Sprintf(`deploy: switch %d has no config but hosts MAT "p/count"`, sw)
			if err := dep.Verify(); fmt.Sprint(err) != want {
				t.Errorf("Verify = %v, want %s", err, want)
			}
		})
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile(nil, analyzer.Options{}); err == nil {
		t.Error("Compile(nil) succeeded")
	}
	if _, err := Compile(&placement.Plan{}, analyzer.Options{}); err == nil {
		t.Error("Compile of empty plan succeeded")
	}
	// MATs outside the graph: the smallest name is reported.
	_, plan := compiled(t)
	for _, name := range []string{"zeta", "ghost", "omega"} {
		plan.Assignments[name] = plan.Assignments["p/count"]
	}
	want := `deploy: MAT "ghost" is not in the plan's graph`
	if _, err := Compile(plan, analyzer.Options{}); fmt.Sprint(err) != want {
		t.Errorf("Compile = %v, want %s", err, want)
	}
}

func TestReportIsStableAndComplete(t *testing.T) {
	dep, plan := compiled(t)
	r1 := dep.Report(program.DefaultResourceModel)
	r2 := dep.Report(program.DefaultResourceModel)
	if r1 != r2 {
		t.Error("report not deterministic")
	}
	for name := range plan.Assignments {
		if !strings.Contains(r1, name) {
			t.Errorf("report missing MAT %q", name)
		}
	}
	if !strings.Contains(r1, "header") {
		t.Error("report missing header section")
	}
}

// wan30Plan is the Greedy plan of the wan30 benchmark workload: the
// paper's 30 evaluation programs on Table III WAN 1.
func wan30Plan(tb testing.TB) *placement.Plan {
	tb.Helper()
	progs, err := workload.EvaluationPrograms(30, 1)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := analyzer.Analyze(progs, analyzer.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	topo, err := network.TableIII(1, network.TofinoSpec())
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := (placement.Greedy{}).Solve(g, topo, placement.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return plan
}

// TestCompileAllocationCeiling pins the header compiler's allocation
// budget on the wan30 plan. A fields.Set per cross edge and a union per
// shared pair cost about 5,050 allocations; merging sorted footprint
// slices brings it under 2,000.
func TestCompileAllocationCeiling(t *testing.T) {
	plan := wan30Plan(t)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Compile(plan, analyzer.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2000 {
		t.Fatalf("Compile of the wan30 plan made %.0f allocations, ceiling 2,000", allocs)
	}
}

// BenchmarkCompileWAN30 is Compile plus Verify on the wan30 plan.
func BenchmarkCompileWAN30(b *testing.B) {
	plan := wan30Plan(b)
	b.ReportAllocs()
	for b.Loop() {
		dep, err := Compile(plan, analyzer.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := dep.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}
