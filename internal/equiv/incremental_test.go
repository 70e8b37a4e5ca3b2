package equiv_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/equiv"
	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

// disjointPrograms builds k two-table carry pipelines over pairwise
// disjoint field universes, so the merged TDG decomposes into k
// independent components and the incremental path has something to
// skip.
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

// TestRecheckerComponents checks the partition: disjoint programs land
// in distinct components, each holding its own two MATs.
func TestRecheckerComponents(t *testing.T) {
	g := mustAnalyze(t, disjointPrograms(t, 4), analyzer.Options{})
	r, err := equiv.NewRechecker(g)
	if err != nil {
		t.Fatal(err)
	}
	comps := r.Components()
	if len(comps) != 4 {
		t.Fatalf("got %d components, want 4: %v", len(comps), comps)
	}
	for _, c := range comps {
		if len(c) != 2 {
			t.Fatalf("component %v should hold exactly gen and apply", c)
		}
	}
	// The coupled carry program collapses to one component.
	g2 := mustAnalyze(t, []*program.Program{carryProgram(t, applyClean)}, analyzer.Options{})
	r2, err := equiv.NewRechecker(g2)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r2.Components()); got != 1 {
		t.Fatalf("coupled program split into %d components, want 1", got)
	}
}

// TestRecheckerMatchesFullOnReplans is the regression gate: over a
// randomized drain/replan sequence, the incremental verdict must be
// identical to an independent full check's, and the incremental path
// must actually engage (re-proving strictly fewer MATs than the
// pipeline holds).
func TestRecheckerMatchesFullOnReplans(t *testing.T) {
	rng := rand.New(rand.NewSource(181))
	g := mustAnalyze(t, disjointPrograms(t, 6), analyzer.Options{})
	// One ~0.07-cost MAT pair per switch: tight stage capacity keeps the
	// programs spread out, so a drain moves one or two components, not
	// the whole pipeline.
	tp := lineTopo(t, 10, 1, 0.16)
	aopts := analyzer.Options{}

	plan, err := (placement.Greedy{}).Solve(g, tp, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := equiv.NewRechecker(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(plan, aopts); err != nil {
		t.Fatalf("baseline proof failed: %v", err)
	}

	incremental := 0
	for round := 0; round < 4; round++ {
		used := plan.UsedSwitches()
		drain := used[rng.Intn(len(used))]
		next, rep, err := placement.ReplanWithOptions(plan, placement.Greedy{}, placement.ReplanOptions{}, drain)
		if err != nil {
			t.Fatalf("round %d: replan: %v", round, err)
		}

		st, incErr := r.RecheckReplan(next, rep, aopts)
		fullErr := equiv.CheckPlanAgainst(g, next, aopts)
		if (incErr == nil) != (fullErr == nil) {
			t.Fatalf("round %d: verdicts diverge: incremental %v, full %v", round, incErr, fullErr)
		}
		if incErr != nil {
			t.Fatalf("round %d: replanned plan rejected: %v", round, incErr)
		}
		t.Logf("round %d: moved=%d stats=%+v", round, len(rep.Moved), st)
		if !st.Full {
			incremental++
			if st.DirtyMATs == 0 && len(rep.Moved) > 0 {
				t.Fatalf("round %d: moved MATs %v but nothing dirty", round, rep.Moved)
			}
			if st.DirtyMATs >= st.TotalMATs {
				t.Fatalf("round %d: incremental path re-proved everything (%d/%d)",
					round, st.DirtyMATs, st.TotalMATs)
			}
		}
		plan = next
	}
	if incremental == 0 {
		t.Fatal("incremental path never engaged across the replan sequence")
	}
}

// TestRecheckerRejectsLikeFull seeds an equivalence break inside a
// moved component and requires the incremental and full verdicts to
// agree on rejection.
func TestRecheckerRejectsLikeFull(t *testing.T) {
	g := mustAnalyze(t, disjointPrograms(t, 4), analyzer.Options{})
	tp := lineTopo(t, 6, 2, 1.2)
	aopts := analyzer.Options{}

	plan, err := (placement.Greedy{}).Solve(g, tp, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := equiv.NewRechecker(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(plan, aopts); err != nil {
		t.Fatal(err)
	}

	bad := sabotageOrder(plan, "p0")
	moved, err := placement.MovedNames(plan, bad)
	if err != nil {
		t.Fatal(err)
	}
	st, incErr := r.Recheck(bad, moved)
	fullErr := equiv.CheckPlanAgainst(g, bad, aopts)
	if fullErr == nil {
		t.Fatal("fixture broken: sabotaged plan passed the full gate")
	}
	if incErr == nil {
		t.Fatalf("incremental path accepted a plan the full check rejects (stats %+v)", st)
	}

	// After a rejection the baseline is forgotten: the next Recheck runs
	// full, then incremental resumes.
	st2, err := r.Recheck(plan, nil)
	if err != nil {
		t.Fatalf("clean plan rejected after failure: %v", err)
	}
	if !st2.Full {
		t.Fatal("baseline survived a rejected plan")
	}
	st3, err := r.Recheck(plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Full {
		t.Fatalf("incremental path did not resume after re-proof: %+v", st3)
	}
}

// TestRecheckerUnreportedMoveFallsBack mutates a component that the
// moved list does not mention: the rechecker must notice the baseline
// mismatch and fall back to the full proof rather than carry a stale
// verdict.
func TestRecheckerUnreportedMoveFallsBack(t *testing.T) {
	g := mustAnalyze(t, disjointPrograms(t, 4), analyzer.Options{})
	tp := lineTopo(t, 6, 2, 1.2)
	aopts := analyzer.Options{}

	plan, err := (placement.Greedy{}).Solve(g, tp, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := equiv.NewRechecker(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(plan, aopts); err != nil {
		t.Fatal(err)
	}

	bad := sabotageOrder(plan, "p1")
	st, incErr := r.Recheck(bad, nil) // nothing reported moved
	if !st.Full {
		t.Fatalf("unreported move did not force the full path: %+v", st)
	}
	fullErr := equiv.CheckPlanAgainst(g, bad, aopts)
	if (incErr == nil) != (fullErr == nil) {
		t.Fatalf("verdicts diverge on unreported move: incremental %v, full %v", incErr, fullErr)
	}
	if incErr == nil {
		t.Fatal("sabotaged plan accepted")
	}
}

// TestRecheckerThresholdFallback forces the dirty fraction over a tiny
// threshold and checks the full path runs with an unchanged verdict.
func TestRecheckerThresholdFallback(t *testing.T) {
	g := mustAnalyze(t, disjointPrograms(t, 3), analyzer.Options{})
	tp := lineTopo(t, 5, 2, 1.2)
	aopts := analyzer.Options{}

	plan, err := (placement.Greedy{}).Solve(g, tp, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := equiv.NewRechecker(g)
	if err != nil {
		t.Fatal(err)
	}
	r.Threshold = 0.01
	if err := r.Check(plan, aopts); err != nil {
		t.Fatal(err)
	}
	used := plan.UsedSwitches()
	next, rep, err := placement.ReplanWithOptions(plan, placement.Greedy{}, placement.ReplanOptions{}, used[0])
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.RecheckReplan(next, rep, aopts)
	if err != nil {
		t.Fatalf("over-threshold recheck rejected a clean plan: %v", err)
	}
	if len(rep.Moved) > 0 && !st.Full {
		t.Fatalf("threshold 0.01 did not force the full path: %+v", st)
	}
}

// TestRecheckerForeignGraphFallsBack hands the rechecker a plan over a
// rebuilt (pointer-distinct) graph: carried-field derivation walks the
// plan's own edges, so the incremental path must decline.
func TestRecheckerForeignGraphFallsBack(t *testing.T) {
	progs := disjointPrograms(t, 3)
	ref := mustAnalyze(t, progs, analyzer.Options{})
	other := mustAnalyze(t, progs, analyzer.Options{})
	tp := lineTopo(t, 5, 2, 1.2)
	aopts := analyzer.Options{}

	plan, err := (placement.Greedy{}).Solve(other, tp, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := equiv.NewRechecker(ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Check(plan, aopts); err != nil {
		t.Fatal(err)
	}
	st, err := r.Recheck(plan, []string{"p0/gen"})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Full {
		t.Fatalf("foreign graph did not force the full path: %+v", st)
	}
	if _, err := tdgNode(other, "p0/gen"); err != nil {
		t.Fatal(err)
	}
}

func tdgNode(g *tdg.Graph, name string) (*tdg.Node, error) {
	n, ok := g.Node(name)
	if !ok {
		return nil, fmt.Errorf("missing node %q", name)
	}
	return n, nil
}
