package equiv_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/equiv"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
	"github.com/hermes-net/hermes/internal/workload"
)

// These tests drive the gate the way production does — through the
// package-level CheckPlanAgainst and CheckDeployment with no reference
// graph, which draw a pooled Checker per call — never through a Checker
// the test holds.

// syntheticDeployment solves and compiles n synthetic programs on
// Table III WAN 1: a green, multi-switch plan with real coordination
// headers.
func syntheticDeployment(t testing.TB, n int) (*tdg.Graph, *deploy.Deployment) {
	t.Helper()
	progs, err := workload.SyntheticSet(n, workload.PaperSyntheticSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	g := mustAnalyze(t, progs, analyzer.Options{})
	topo, err := network.TableIII(1, network.TofinoSpec())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := (placement.Greedy{}).Solve(g, topo, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.UsedSwitches()) < 2 {
		t.Fatalf("fixture expects a split placement, got %d switch(es)", len(plan.UsedSwitches()))
	}
	dep, err := deploy.Compile(plan, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g, dep
}

// TestGateHooksAllocationFree pins the deployment gate at zero
// allocations per proof once the graph's pool holds a warm Checker.
// CheckPlanAgainst is not held to it: it pays one deploy.Compile.
func TestGateHooksAllocationFree(t *testing.T) {
	_, dep := syntheticDeployment(t, 24)
	if err := equiv.CheckDeployment(nil, dep); err != nil { // the one warm call
		t.Fatalf("CheckDeployment rejects a green deployment: %v", err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := equiv.CheckDeployment(nil, dep); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Errorf("CheckDeployment allocates %.1f objects/op after one warm call, want 0", allocs)
	}
}

// pastLastStage returns a copy of p whose MAT that starts last (ties
// broken by name) sits one stage past its switch's pipeline: a plan
// no switch can run.
func pastLastStage(t testing.TB, p *placement.Plan) (*placement.Plan, string) {
	t.Helper()
	bad := clonePlan(p)
	last := ""
	for name, sp := range bad.Assignments {
		if l := bad.Assignments[last]; last == "" || sp.Start > l.Start || sp.Start == l.Start && name > last {
			last = name
		}
	}
	sp := bad.Assignments[last]
	sw, err := bad.Topo.Switch(sp.Switch)
	if err != nil {
		t.Fatal(err)
	}
	shift := sw.Stages + 1 - sp.Start
	sp.Start += shift
	sp.End += shift
	bad.Assignments[last] = sp
	return bad, last
}

// TestCheckPlanAgainstRejectsUncompilablePlan moves the MAT that
// starts last one stage past its switch's pipeline: the plan gate
// proves what would ship, so it must return deploy.Compile's error
// rather than prove a plan no switch can run.
func TestCheckPlanAgainstRejectsUncompilablePlan(t *testing.T) {
	_, dep := syntheticDeployment(t, 8)
	bad, last := pastLastStage(t, dep.Plan)
	err := equiv.CheckPlanAgainst(nil, bad, analyzer.Options{})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("%s moved to stage %d: CheckPlanAgainst = %v, want deploy.Compile's out-of-range error",
			last, bad.Assignments[last].Start, err)
	}
}

// TestCheckPlanAgainstProvesTheCompiledDeployment holds the plan gate
// to the artifact that ships on every Table III WAN: for Greedy plans
// of the real programs and the paper's mixed corpus (seed 2 crosses
// ROADMAP item 1's same-named metadata seam, so both verdicts occur),
// CheckPlanAgainst gives the deployment proof's verdict and error
// text, the same verdict against a freshly analyzed reference graph,
// and deploy.Compile's own error for a plan compiled past the
// pipeline.
func TestCheckPlanAgainstProvesTheCompiledDeployment(t *testing.T) {
	type corpus struct {
		name  string
		progs func() ([]*program.Program, error)
	}
	corpora := []corpus{
		{"real", func() ([]*program.Program, error) { return workload.RealPrograms(), nil }},
		{"mixed:30/seed1", func() ([]*program.Program, error) { return workload.EvaluationPrograms(30, 1) }},
		{"mixed:30/seed2", func() ([]*program.Program, error) { return workload.EvaluationPrograms(30, 2) }},
	}
	var mu sync.Mutex
	verdicts := map[bool]int{}
	t.Run("table3", func(t *testing.T) {
		for idx := 1; idx <= network.NumTableIII(); idx++ {
			idx := idx
			t.Run(fmt.Sprint(idx), func(t *testing.T) {
				t.Parallel()
				topo, err := network.TableIII(idx, network.TofinoSpec())
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range corpora {
					progs, err := c.progs()
					if err != nil {
						t.Fatal(err)
					}
					g := mustAnalyze(t, progs, analyzer.Options{})
					plan, err := placement.Greedy{}.Solve(g, topo, placement.Options{})
					if err != nil {
						t.Fatalf("%s: %v", c.name, err)
					}
					got := verdict(equiv.CheckPlanAgainst(nil, plan, analyzer.Options{}))
					if want := verdict(equiv.CheckDeployment(nil, compile(t, plan))); got != want {
						t.Errorf("%s: CheckPlanAgainst %q, deployment proof %q", c.name, got, want)
					}
					ref := mustAnalyze(t, progs, analyzer.Options{})
					if foreign := verdict(equiv.CheckPlanAgainst(ref, plan, analyzer.Options{})); (foreign == "proven") != (got == "proven") {
						t.Errorf("%s: own graph %q, fresh reference %q", c.name, got, foreign)
					}
					mu.Lock()
					verdicts[got == "proven"]++
					mu.Unlock()

					bad, last := pastLastStage(t, plan)
					_, cerr := deploy.Compile(bad, analyzer.Options{})
					if cerr == nil {
						t.Fatalf("%s: %s moved past its pipeline still compiles", c.name, last)
					}
					if err := equiv.CheckPlanAgainst(nil, bad, analyzer.Options{}); verdict(err) != cerr.Error() {
						t.Errorf("%s: %s moved past its pipeline: CheckPlanAgainst %q, deploy.Compile %q",
							c.name, last, verdict(err), cerr)
					}
				}
			})
		}
	})
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("%d plans proven, %d rejected: the sweep must exercise both verdicts", verdicts[true], verdicts[false])
	}
}

// gateCase is one artifact pushed through a gate, with the verdict a
// single-threaded run produced.
type gateCase struct {
	name string
	run  func() error
	want string
}

func verdict(err error) string {
	if err == nil {
		return "proven"
	}
	return err.Error()
}

// TestGateHooksConcurrent runs 8 goroutines through both gates on one
// reference graph — green plans, drained replans and broken artifacts
// interleaved — and requires every call to return the verdict the
// single-threaded run gave. Run under -race it also proves pooled
// Checkers are never shared.
func TestGateHooksConcurrent(t *testing.T) {
	g, dep := syntheticDeployment(t, 24)

	var cases []gateCase
	addPlan := func(name string, p *placement.Plan) {
		cases = append(cases, gateCase{name: "plan/" + name,
			run: func() error { return equiv.CheckPlanAgainst(nil, p, analyzer.Options{}) }})
	}
	addDep := func(name string, d *deploy.Deployment) {
		cases = append(cases, gateCase{name: "dep/" + name,
			run: func() error { return equiv.CheckDeployment(nil, d) }})
	}
	addPlan("cold", dep.Plan)
	addDep("cold", dep)
	for i, sw := range dep.Plan.UsedSwitches() {
		if i == 3 {
			break
		}
		next, _, err := placement.ReplanWithOptions(dep.Plan, placement.Greedy{}, placement.ReplanOptions{}, sw)
		if err != nil {
			t.Fatalf("drain %d: %v", int(sw), err)
		}
		addPlan(fmt.Sprintf("drain%d", int(sw)), next)
		nd, err := deploy.Compile(next, analyzer.Options{})
		if err != nil {
			t.Fatal(err)
		}
		addDep(fmt.Sprintf("drain%d", int(sw)), nd)
	}
	// Broken artifacts: a consumer scheduled on its producer's switch
	// ahead of it, and a deployment with a carried field stripped.
	addPlan("reordered", reorderedPlan(t, g, dep.Plan))
	broken := compile(t, dep.Plan)
	stripSomeField(broken, rand.New(rand.NewSource(5)))
	addDep("stripped", broken)

	rejected := 0
	for i := range cases {
		cases[i].want = verdict(cases[i].run())
		if cases[i].want != "proven" {
			rejected++
		}
	}
	if rejected != 2 {
		t.Fatalf("single-threaded run rejected %d artifacts, want exactly the 2 broken ones", rejected)
	}

	const goroutines, rounds = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < rounds*len(cases); i++ {
				c := cases[rng.Intn(len(cases))]
				if got := verdict(c.run()); got != c.want {
					t.Errorf("goroutine %d: %s: verdict %q, single-threaded %q", w, c.name, got, c.want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func compile(t testing.TB, p *placement.Plan) *deploy.Deployment {
	t.Helper()
	dep, err := deploy.Compile(p, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

// reorderedPlan co-locates the consumer of some match dependency in
// its producer's stage, picking a consumer whose name sorts first so
// the engine executes it before the producer: the plan-level HE003
// break.
func reorderedPlan(t testing.TB, g *tdg.Graph, p *placement.Plan) *placement.Plan {
	t.Helper()
	for _, e := range g.Edges() {
		if e.Type != tdg.DepMatch || e.To > e.From {
			continue // need the consumer to sort (and so execute) first
		}
		bad := clonePlan(p)
		from := bad.Assignments[e.From]
		bad.Assignments[e.To] = placement.StagePlacement{
			Switch: from.Switch, Start: from.Start, End: from.Start, PerStage: []float64{0.1},
		}
		if equiv.CheckPlanAgainst(g, bad, analyzer.Options{}) != nil {
			return bad
		}
	}
	t.Fatal("no match dependency whose consumer sorts before its producer")
	return nil
}

// carryingPairs lists the switch pairs with a non-empty coordination
// header, ordered by (From, To) so seeded picks are reproducible.
func carryingPairs(dep *deploy.Deployment) []placement.RouteKey {
	var keys []placement.RouteKey
	for k, h := range dep.Headers {
		if len(h.Fields) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].From != keys[j].From {
			return keys[i].From < keys[j].From
		}
		return keys[i].To < keys[j].To
	})
	return keys
}

// stripSomeField removes one carried field from one coordination
// header, chosen by rng; false when nothing is carried.
func stripSomeField(dep *deploy.Deployment, rng *rand.Rand) bool {
	keys := carryingPairs(dep)
	if len(keys) == 0 {
		return false
	}
	key := keys[rng.Intn(len(keys))]
	fs := dep.Headers[key].Fields
	stripField(dep, key, fs[rng.Intn(len(fs))].Name)
	return true
}

// TestGateVerdictMatchesDiagnose is the differential property test for
// the sparse walk: over randomized drains of a synthetic deployment,
// each then hit with a seeded defect (a stripped carry, a dropped
// import, a relayed stale field, a MAT moved across switches, or
// nothing), the pooled gate must accept exactly when the dense
// diagnostic pass — which keeps explicit per-switch writer sequences
// and shares no visible-state code with the walk — reports OK, and
// every synthesized counterexample must diverge on replay.
func TestGateVerdictMatchesDiagnose(t *testing.T) {
	g, base := syntheticDeployment(t, 24)
	rng := rand.New(rand.NewSource(97))
	trials := 40
	if testing.Short() {
		trials = 10
	}
	accepted, rejected := 0, 0
	for trial := 0; trial < trials; trial++ {
		plan := base.Plan
		if trial%4 != 0 { // three in four trials start from a drained replan
			used := plan.UsedSwitches()
			next, _, err := placement.ReplanWithOptions(plan, placement.Greedy{}, placement.ReplanOptions{}, used[rng.Intn(len(used))])
			if err != nil {
				t.Fatalf("trial %d: replan: %v", trial, err)
			}
			plan = next
		}
		dep := compile(t, plan)
		defect := "none"
		switch rng.Intn(5) {
		case 0:
			if stripSomeField(dep, rng) {
				defect = "strip"
			}
		case 1:
			if keys := carryingPairs(dep); len(keys) > 0 {
				key := keys[rng.Intn(len(keys))]
				delete(dep.Configs[key.To].Imports, key.From)
				defect = "drop-import"
			}
		case 2:
			// Relay a field carried on one pair through another pair's
			// header, whose exporter may hold a stale history of it.
			if keys := carryingPairs(dep); len(keys) >= 2 {
				src, dst := keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))]
				f := dep.Headers[src].Fields[0]
				present := false
				for _, have := range dep.Headers[dst].Fields {
					present = present || have.Name == f.Name
				}
				if !present {
					injectField(dep, dst, f)
					defect = "relay"
				}
			}
		case 3:
			used := plan.UsedSwitches()
			names := make([]string, 0, len(plan.Assignments))
			for name := range plan.Assignments {
				names = append(names, name)
			}
			sort.Strings(names)
			name := names[rng.Intn(len(names))]
			from := plan.Assignments[name].Switch
			to := used[rng.Intn(len(used))]
			if to != from {
				moveMAT(dep, name, from, to)
				defect = "move"
			}
		}

		gate := equiv.CheckDeployment(g, dep)
		pooled := equiv.CheckDeployment(nil, dep)
		rep, err := equiv.Diagnose(g, dep)
		if err != nil {
			t.Fatalf("trial %d (%s): diagnose: %v", trial, defect, err)
		}
		if (gate == nil) != rep.OK() {
			t.Fatalf("trial %d (%s): gate verdict %v, Diagnose OK=%v:\n%s", trial, defect, gate, rep.OK(), rep.Findings.Text())
		}
		if verdict(gate) != verdict(pooled) {
			t.Fatalf("trial %d (%s): CheckDeployment(g) says %q, CheckDeployment(nil) says %q", trial, defect, verdict(gate), verdict(pooled))
		}
		if gate == nil {
			accepted++
			shuffled := false
			for _, f := range rep.Findings {
				shuffled = shuffled || f.Rule == equiv.RuleBenignShuffle
			}
			if defect == "none" && !shuffled {
				// A clean artifact must also have stayed on the
				// allocation-free path, i.e. the walk itself accepted it.
				if allocs := testing.AllocsPerRun(1, func() { _ = equiv.CheckDeployment(nil, dep) }); allocs != 0 {
					t.Fatalf("trial %d: clean deployment fell off the fast path (%.0f allocs)", trial, allocs)
				}
			}
			continue
		}
		rejected++
		if rep.Counterexample == nil {
			// Synthesis tries a fixed candidate set; it separates every
			// carry defect here, but not every moved-MAT reorder.
			if defect != "move" {
				t.Fatalf("trial %d (%s): rejection has no replay-confirmed counterexample:\n%s", trial, defect, rep.Findings.Text())
			}
			continue
		}
		if !equiv.Diverges(g, dep, rep.Counterexample) {
			t.Fatalf("trial %d (%s): counterexample does not diverge on replay", trial, defect)
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("degenerate sweep: %d accepted, %d rejected", accepted, rejected)
	}
	t.Logf("%d accepted, %d rejected", accepted, rejected)
}
