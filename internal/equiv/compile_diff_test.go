package equiv_test

import (
	"reflect"
	"testing"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/equiv"
	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
	"github.com/hermes-net/hermes/internal/workload"
)

// sameAsReference holds the index-built checker to the name-keyed
// reference compile on one deployment: the lowered pipeline, the gate's
// error text and the full report (findings in order, per-program
// verdicts, counterexample) must be equal.
func sameAsReference(t *testing.T, ref *tdg.Graph, dep *deploy.Deployment) {
	t.Helper()
	if diff, err := equiv.LoweringDiff(ref, dep); err != nil || diff != "" {
		t.Fatalf("lowering diverges from the name-keyed reference at %s (err %v)", diff, err)
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	if got, want := errText(equiv.CheckDeployment(ref, dep)), errText(equiv.CheckRef(ref, dep)); got != want {
		t.Fatalf("gate verdict diverges from the reference compile:\n got %q\nwant %q", got, want)
	}
	got, err := equiv.Diagnose(ref, dep)
	if err != nil {
		t.Fatal(err)
	}
	want, err := equiv.DiagnoseRef(ref, dep)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("report diverges from the reference compile:\n got %+v\nwant %+v", got, want)
	}
}

// localWritesGraph has actions that read fields they wrote earlier in
// the same action (local, not upstream, reads) beside actions that read
// the same fields from upstream, over every op kind.
func localWritesGraph(t *testing.T) *tdg.Graph {
	t.Helper()
	x, y, i := fields.Metadata("meta.lx", 16), fields.Metadata("meta.ly", 16), fields.Metadata("meta.li", 8)
	src := fields.Header(fields.IPv4Src, 32)
	g := tdg.New()
	for _, m := range []*program.MAT{
		{Name: "a", Capacity: 1, DefaultAction: "w", Actions: []program.Action{
			{Name: "w", Ops: []program.Op{program.SetOp(x, 1), program.CopyOp(y, x), program.AddOp(x, y, 2), program.DecOp(y, 1)}},
			{Name: "r", Ops: []program.Op{program.CopyOp(y, x), program.SetOp(x, 3)}},
		}},
		{Name: "b", Capacity: 1, DefaultAction: "h", Keys: []program.MatchKey{{Field: y, Type: program.MatchExact}},
			Actions: []program.Action{
				{Name: "h", Ops: []program.Op{program.HashOp(i, x, src), program.CountOp(x, i), program.HashOp(y, i, x)}},
			}},
	} {
		if err := g.AddNode(m, "p"); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge("a", "b", tdg.DepMatch, 4); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCompiledMatchesReference compiles the merged graphs of the
// benchmark's four corpora on their tdg.Index and by the name-keyed
// reference compile: every overlay array must be equal, and so must the
// verdict and report on a Greedy plan of each. A hand-built graph of
// same-action local reads covers the external-read refinement.
func TestCompiledMatchesReference(t *testing.T) {
	if diff, err := equiv.CompiledDiff(localWritesGraph(t)); err != nil || diff != "" {
		t.Fatalf("local-writes: compiled overlay diverges from the reference at %q (err %v)", diff, err)
	}
	spec := workload.PaperSyntheticSpec()
	corpus := func(progs []*program.Program, err error) []*program.Program {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return progs
	}
	topo, err := network.TableIII(1, network.TofinoSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		progs []*program.Program
	}{
		{"wan30", corpus(workload.EvaluationPrograms(30, 1))},
		{"composite10", corpus(workload.SyntheticSet(30, spec, 1))},
		{"real", workload.RealPrograms()},
		{"churn16", corpus(workload.SyntheticSet(16, spec, 1))},
	} {
		g := mustAnalyze(t, c.progs, analyzer.Options{})
		if diff, err := equiv.CompiledDiff(g); err != nil || diff != "" {
			t.Fatalf("%s: compiled overlay diverges from the reference at %q (err %v)", c.name, diff, err)
		}
		plan, err := (placement.Greedy{}).Solve(g, topo, placement.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		dep, err := deploy.Compile(plan, analyzer.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sameAsReference(t, g, dep)
	}
}
