package equiv_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/equiv"
	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/racetest"
	"github.com/hermes-net/hermes/internal/tdg"
	"github.com/hermes-net/hermes/internal/workload"
)

// disjointPrograms builds k two-table carry pipelines over pairwise
// disjoint field universes: the one corpus whose merged TDG splits into
// several field-coupled components.
func disjointPrograms(t testing.TB, k int) []*program.Program {
	t.Helper()
	progs := make([]*program.Program, k)
	for i := 0; i < k; i++ {
		src := fields.Header(fmt.Sprintf("hdr%d.src", i), 32)
		x := fields.Metadata(fmt.Sprintf("meta.x%d", i), 32)
		y := fields.Metadata(fmt.Sprintf("meta.y%d", i), 32)
		progs[i] = program.NewBuilder(fmt.Sprintf("p%d", i)).
			Table("gen", 1).
			ActionDef("g", program.AddOp(x, src, 7)).
			Default("g").
			Table("apply", 64).
			Key(x, program.MatchExact).
			ActionDef("u", program.CopyOp(y, x)).
			ActionDef("r", program.SetOp(y, 99)).
			Default("u").
			Rule(program.Rule{
				Matches: map[string]program.Pattern{x.Name: {Value: 7}},
				Action:  "r",
			}).
			MustBuild()
	}
	return progs
}

// clonePlan copies a plan deeply enough to mutate assignments.
func clonePlan(p *placement.Plan) *placement.Plan {
	c := *p
	c.Assignments = make(map[string]placement.StagePlacement, len(p.Assignments))
	for name, sp := range p.Assignments {
		c.Assignments[name] = sp
	}
	c.InvalidateCache()
	return &c
}

// sabotageOrder co-locates a program's consumer before its producer:
// "apply" sorts before "gen", so sharing the producer's stage makes it
// execute first — the plan-level HE003 break.
func sabotageOrder(p *placement.Plan, prog string) *placement.Plan {
	bad := clonePlan(p)
	gen := bad.Assignments[prog+"/gen"]
	bad.Assignments[prog+"/apply"] = placement.StagePlacement{
		Switch: gen.Switch, Start: gen.Start, End: gen.Start, PerStage: []float64{0.1},
	}
	return bad
}

// sameAsGate requires both Rechecker entry points to return exactly
// CheckPlanAgainst's verdict on p, and returns it.
func sameAsGate(t *testing.T, rc *equiv.Rechecker, ref *tdg.Graph, p *placement.Plan, rep *placement.ReplanReport) error {
	t.Helper()
	aopts := analyzer.Options{}
	want := equiv.CheckPlanAgainst(ref, p, aopts)
	if got := rc.Check(p, aopts); verdict(got) != verdict(want) {
		t.Fatalf("Check: %s, CheckPlanAgainst: %s", verdict(got), verdict(want))
	}
	st, got := rc.RecheckReplan(p, rep, aopts)
	if verdict(got) != verdict(want) {
		t.Fatalf("RecheckReplan: %s, CheckPlanAgainst: %s", verdict(got), verdict(want))
	}
	if st != (equiv.RecheckStats{Full: true}) {
		t.Fatalf("RecheckReplan stats %+v, want a full proof", st)
	}
	return want
}

// tableIIIAt is Table III WAN 1 at the given stage capacity.
func tableIIIAt(t testing.TB, capacity float64) *network.Topology {
	t.Helper()
	spec := network.TofinoSpec()
	spec.StageCapacity = capacity
	topo, err := network.TableIII(1, spec)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestRecheckerIsThePooledGate holds the deprecated Rechecker to the
// gate it wraps: the same verdict and error text as CheckPlanAgainst
// on randomized drains of a synthetic and the paper's mixed corpus and
// on broken plans, one sorted component, and no allocation of its own.
func TestRecheckerIsThePooledGate(t *testing.T) {
	t.Run("drains", func(t *testing.T) {
		syn16, err := workload.SyntheticSet(16, workload.PaperSyntheticSpec(), 1)
		if err != nil {
			t.Fatal(err)
		}
		eval30, err := workload.EvaluationPrograms(30, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name  string
			progs []*program.Program
		}{{"synthetic16", syn16}, {"eval30", eval30}} {
			g := mustAnalyze(t, c.progs, analyzer.Options{})
			plan, err := (placement.Greedy{}).Solve(g, tableIIIAt(t, 1.0), placement.Options{})
			if err != nil {
				t.Fatal(err)
			}
			rc, err := equiv.NewRechecker(g)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameAsGate(t, rc, g, plan, nil); err != nil {
				t.Fatalf("%s: standing plan rejected: %v", c.name, err)
			}
			comps := rc.Components()
			want := g.NodeNames()
			slices.Sort(want)
			if len(comps) != 1 || !slices.Equal(comps[0], want) {
				t.Fatalf("%s: %d components, want one sorted component of all %d MATs", c.name, len(comps), len(want))
			}
			rng := rand.New(rand.NewSource(35))
			for round := 0; round < 4; round++ {
				used := plan.UsedSwitches()
				drain := used[rng.Intn(len(used))]
				next, rep, err := placement.ReplanWithOptions(plan, placement.Greedy{}, placement.ReplanOptions{}, drain)
				if err != nil {
					t.Fatalf("%s round %d: replan: %v", c.name, round, err)
				}
				t.Logf("%s round %d: drain %d moved %d: %s", c.name, round, drain, rep.MovedMATs,
					verdict(sameAsGate(t, rc, g, next, rep)))
				plan = next
			}
		}
	})

	t.Run("sabotaged", func(t *testing.T) {
		g := mustAnalyze(t, disjointPrograms(t, 4), analyzer.Options{})
		plan, err := (placement.Greedy{}).Solve(g, lineTopo(t, 6, 2, 1.2), placement.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rc, err := equiv.NewRechecker(g)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			bad := sabotageOrder(plan, fmt.Sprintf("p%d", i))
			if sameAsGate(t, rc, g, bad, nil) == nil {
				t.Fatalf("p%d: sabotaged plan proven", i)
			}
		}
		if sameAsGate(t, rc, g, nil, nil) == nil {
			t.Fatal("nil plan proven")
		}
	})

	t.Run("allocs", func(t *testing.T) {
		g := mustAnalyze(t, workload.RealPrograms(), analyzer.Options{})
		plan, err := (placement.Greedy{}).Solve(g, tableIIIAt(t, 0.1), placement.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rc, err := equiv.NewRechecker(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := rc.Check(plan, analyzer.Options{}); err != nil {
			t.Fatal(err)
		}
		// A real replan's report, naming moved MATs: the rechecker may
		// spend nothing on it beyond the gate.
		next, rep, err := placement.ReplanWithOptions(plan, placement.Greedy{}, placement.ReplanOptions{}, plan.UsedSwitches()[0])
		if err != nil {
			t.Fatal(err)
		}
		plan = next
		aopts := analyzer.Options{}
		v := sameAsGate(t, rc, g, plan, rep) // the warm call
		if racetest.Enabled() {
			t.Skip("allocation counts do not hold under the race detector")
		}
		gate := testing.AllocsPerRun(20, func() { _ = equiv.CheckPlanAgainst(g, plan, aopts) })
		shim := testing.AllocsPerRun(20, func() { _, _ = rc.RecheckReplan(plan, rep, aopts) })
		t.Logf("verdict %s: CheckPlanAgainst %.0f allocs, RecheckReplan %.0f", verdict(v), gate, shim)
		if shim > gate {
			t.Fatalf("RecheckReplan allocates %.0f objects, CheckPlanAgainst %.0f", shim, gate)
		}
	})
}

// TestRecheckerMatchesFullOnReplans drives a randomized drain sequence
// over disjoint programs, the one corpus with several components, and
// requires every recheck to return the full gate's verdict.
func TestRecheckerMatchesFullOnReplans(t *testing.T) {
	rng := rand.New(rand.NewSource(181))
	g := mustAnalyze(t, disjointPrograms(t, 6), analyzer.Options{})
	plan, err := (placement.Greedy{}).Solve(g, lineTopo(t, 10, 1, 0.16), placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := equiv.NewRechecker(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameAsGate(t, rc, g, plan, nil); err != nil {
		t.Fatalf("standing plan rejected: %v", err)
	}
	for round := 0; round < 4; round++ {
		used := plan.UsedSwitches()
		drain := used[rng.Intn(len(used))]
		next, rep, err := placement.ReplanWithOptions(plan, placement.Greedy{}, placement.ReplanOptions{}, drain)
		if err != nil {
			t.Fatalf("round %d: replan: %v", round, err)
		}
		if err := sameAsGate(t, rc, g, next, rep); err != nil {
			t.Fatalf("round %d: replanned plan rejected: %v", round, err)
		}
		plan = next
	}
}

// TestRecheckerRejectsLikeFull rejects a sabotaged plan as the full
// gate does, and keeps no state: the standing plan proves again after.
func TestRecheckerRejectsLikeFull(t *testing.T) {
	g := mustAnalyze(t, disjointPrograms(t, 4), analyzer.Options{})
	plan, err := (placement.Greedy{}).Solve(g, lineTopo(t, 6, 2, 1.2), placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := equiv.NewRechecker(g)
	if err != nil {
		t.Fatal(err)
	}
	if sameAsGate(t, rc, g, sabotageOrder(plan, "p0"), nil) == nil {
		t.Fatal("fixture broken: sabotaged plan passed the full gate")
	}
	if err := sameAsGate(t, rc, g, plan, nil); err != nil {
		t.Fatalf("standing plan rejected after a failure: %v", err)
	}
}

// TestRecheckerForeignGraphProvesAgainstReference hands the rechecker a
// plan over a rebuilt (pointer-distinct) graph: it proves it against
// its own reference, as CheckPlanAgainst with that reference does.
func TestRecheckerForeignGraphProvesAgainstReference(t *testing.T) {
	progs := disjointPrograms(t, 3)
	ref := mustAnalyze(t, progs, analyzer.Options{})
	other := mustAnalyze(t, progs, analyzer.Options{})
	plan, err := (placement.Greedy{}).Solve(other, lineTopo(t, 5, 2, 1.2), placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := equiv.NewRechecker(ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameAsGate(t, rc, ref, plan, nil); err != nil {
		t.Fatalf("rebuilt graph's plan rejected: %v", err)
	}
}

// TestNewRecheckerRejectsBadReference keeps the constructor's errors:
// nil and cyclic graphs fail as NewChecker fails on them.
func TestNewRecheckerRejectsBadReference(t *testing.T) {
	cyc := tdg.New()
	for _, name := range []string{"a", "b"} {
		if err := cyc.AddNode(&program.MAT{Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]string{{"a", "b"}, {"b", "a"}} {
		if err := cyc.AddEdge(e[0], e[1], tdg.DepMatch, 0); err != nil {
			t.Fatal(err)
		}
	}
	for name, g := range map[string]*tdg.Graph{"nil": nil, "cyclic": cyc} {
		_, want := equiv.NewChecker(g)
		_, got := equiv.NewRechecker(g)
		if want == nil || verdict(got) != verdict(want) {
			t.Fatalf("%s: NewRechecker %s, NewChecker %s", name, verdict(got), verdict(want))
		}
	}
}
