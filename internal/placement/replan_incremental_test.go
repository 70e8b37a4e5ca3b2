package placement

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/workload"
)

// TestDiffSameCountDifferentNames pins the identity fix: two plans with
// equally many MATs but different MAT sets must be rejected, not
// silently diffed (the old check compared only NumNodes).
func TestDiffSameCountDifferentNames(t *testing.T) {
	p := solvedChainPlan(t, 3)
	other, err := Greedy{}.Solve(
		chainTDG(t, []string{"x", "y", "z"}, []int{1, 4}, 0.5), twoMATSwitchTopo(t, 3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Graph.NumNodes() != other.Graph.NumNodes() {
		t.Fatal("fixture must have equal node counts")
	}
	if _, err := Diff(p, other); err == nil {
		t.Error("diff across same-sized but differently-named TDGs must be rejected")
	}
}

func TestParseReplanMode(t *testing.T) {
	for spec, want := range map[string]ReplanMode{
		"": ReplanAuto, "auto": ReplanAuto,
		"incremental": ReplanIncremental, "inc": ReplanIncremental, "delta": ReplanIncremental,
		"full": ReplanFull, "cold": ReplanFull,
	} {
		got, err := ParseReplanMode(spec)
		if err != nil || got != want {
			t.Errorf("ParseReplanMode(%q) = %v, %v; want %v", spec, got, err, want)
		}
	}
	if _, err := ParseReplanMode("bogus"); err == nil {
		t.Error("unknown mode must be rejected")
	}
	if ReplanAuto.String() != "auto" || ReplanIncremental.String() != "incremental" || ReplanFull.String() != "full" {
		t.Error("mode strings must match the CLI spellings")
	}
}

// TestReplanIncrementalRepairsChain checks the delta path end to end on
// the chain fixture: the repair must produce a valid plan off the
// drained switch whose quality matches the cold solve (the polish can
// reunite b and c on a fresh switch, recovering A_max = 1).
func TestReplanIncrementalRepairsChain(t *testing.T) {
	old := solvedChainPlan(t, 3)
	drained := old.UsedSwitches()[0]
	plan, rep, err := ReplanWithOptions(old, nil, ReplanOptions{Mode: ReplanIncremental}, drained)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.UsedRepair {
		t.Error("incremental mode must report UsedRepair")
	}
	if rep.FallbackReason != "" {
		t.Errorf("successful repair must not record a fallback reason, got %q", rep.FallbackReason)
	}
	if rep.DirtyMATs == 0 || rep.MovedMATs == 0 {
		t.Errorf("draining an occupied switch must dirty and move MATs, got dirty=%d moved=%d",
			rep.DirtyMATs, rep.MovedMATs)
	}
	for name, sp := range plan.Assignments {
		if sp.Switch == drained {
			t.Errorf("MAT %q still hosted on drained switch %d", name, drained)
		}
	}
	if err := plan.Validate(program.DefaultResourceModel, 0, 0); err != nil {
		t.Fatalf("repaired plan must validate: %v", err)
	}
	cold, err := Replan(old, nil, Options{}, drained)
	if err != nil {
		t.Fatal(err)
	}
	if plan.AMax() > cold.AMax() {
		t.Errorf("repair A_max %dB worse than cold solve %dB on the chain fixture", plan.AMax(), cold.AMax())
	}
	if want := old.SolverName + "+repair"; plan.SolverName != want {
		t.Errorf("repaired plan solver name = %q, want %q", plan.SolverName, want)
	}
}

// TestReplanQualityRatioFallback forces the quality gate: with an
// unsatisfiable ratio the auto mode must fall back to the full solver
// (and record why), while the pinned incremental mode must fail.
func TestReplanQualityRatioFallback(t *testing.T) {
	old := solvedChainPlan(t, 3)
	drained := old.UsedSwitches()[0]
	ropts := ReplanOptions{Mode: ReplanAuto, QualityRatio: 1e-9}

	plan, rep, err := ReplanWithOptions(old, nil, ropts, drained)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UsedRepair {
		t.Error("auto replan must abandon a repair that exceeds the quality ratio")
	}
	if rep.FallbackReason == "" {
		t.Error("fallback must record its reason")
	}
	if err := plan.Validate(program.DefaultResourceModel, 0, 0); err != nil {
		t.Fatalf("fallback plan must validate: %v", err)
	}

	ropts.Mode = ReplanIncremental
	if _, _, err := ReplanWithOptions(old, nil, ropts, drained); err == nil {
		t.Error("pinned incremental mode must fail instead of silently solving cold")
	}
}

// TestReplanInfeasibleReasonWording pins the text of an unpartitioned
// repair that cannot place a MAT: the supervisor stores it in
// DegradationEvent.Reason and `hermes -replan` prints it as
// FallbackReason, so it must name the MAT with no region prefix.
func TestReplanInfeasibleReasonWording(t *testing.T) {
	old := solvedChainPlan(t, 2) // three MATs over two 2-MAT switches
	drained := old.UsedSwitches()[0]
	_, rep, err := ReplanWithOptions(old, nil, ReplanOptions{Mode: ReplanIncremental}, drained)
	if err == nil {
		t.Fatal("one 2-MAT switch cannot host the 3-MAT chain")
	}
	const prefix = `no feasible switch for displaced MAT "`
	if !strings.HasPrefix(rep.FallbackReason, prefix) {
		t.Errorf("FallbackReason = %q, want it to start with %q", rep.FallbackReason, prefix)
	}
	if want := "placement: incremental replan: " + rep.FallbackReason; err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
}

func TestReplanFullSkipsRepair(t *testing.T) {
	old := solvedChainPlan(t, 3)
	drained := old.UsedSwitches()[0]
	plan, rep, err := ReplanWithOptions(old, nil, ReplanOptions{Mode: ReplanFull}, drained)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UsedRepair || rep.DirtyMATs != 0 || rep.RepairTime != 0 {
		t.Errorf("full mode must not attempt a repair: %+v", rep)
	}
	if plan.SolverName == old.SolverName+"+repair" {
		t.Error("full mode must not stamp the repair provenance")
	}
}

// TestWarmGreedyReusesSeed checks the warm-start fast path: re-solving
// with the previous plan as the seed must reproduce it (the seed is
// already a local optimum of the polish) without re-running
// segmentation.
func TestWarmGreedyReusesSeed(t *testing.T) {
	old := solvedChainPlan(t, 3)
	warm, err := Greedy{}.Solve(old.Graph, old.Topo, Options{Warm: old})
	if err != nil {
		t.Fatal(err)
	}
	moved, err := Diff(old, warm)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 0 {
		t.Errorf("warm re-solve of a converged plan moved %d MATs", moved)
	}
}

// TestWarmSeedRejectsInfeasible: a warm plan referencing a drained
// switch must be discarded, and the solver must still succeed cold.
func TestWarmSeedRejectsInfeasible(t *testing.T) {
	old := solvedChainPlan(t, 3)
	drained := old.UsedSwitches()[0]
	topo := old.Topo.Clone()
	sw, err := topo.Switch(drained)
	if err != nil {
		t.Fatal(err)
	}
	sw.Programmable = false
	sw.Stages = 0
	sw.StageCapacity = 0
	if _, ok := warmSeed(old.Graph, topo, Options{Warm: old}); ok {
		t.Fatal("a warm plan using a drained switch must be rejected")
	}
	plan, err := Greedy{}.Solve(old.Graph, topo, Options{Warm: old})
	if err != nil {
		t.Fatal(err)
	}
	for name, sp := range plan.Assignments {
		if sp.Switch == drained {
			t.Errorf("MAT %q landed on the drained switch", name)
		}
	}
}

// tableIIIInstance analyzes an evaluation workload on a Table III WAN.
func tableIIIInstance(t *testing.T, topoIdx, programs int) (*Plan, *network.Topology) {
	t.Helper()
	topo, err := network.TableIII(topoIdx, network.TofinoSpec())
	if err != nil {
		t.Fatal(err)
	}
	progs, err := workload.EvaluationPrograms(programs, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := analyzer.Analyze(progs, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Greedy{}.Solve(g, topo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return plan, topo
}

// TestWarmExactNeverWorseThanSeed pins the incumbent-seeding guarantee
// on a Table III instance: a deadline-capped Exact solve warm-started
// from the greedy plan can never report a worse A_max than its seed —
// the seed IS its initial incumbent.
func TestWarmExactNeverWorseThanSeed(t *testing.T) {
	seedPlan, topo := tableIIIInstance(t, 1, 6)
	opts := Options{Warm: seedPlan, Deadline: time.Now().Add(300 * time.Millisecond)}
	exact, err := (Exact{}).Solve(seedPlan.Graph, topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	if exact.AMax() > seedPlan.AMax() {
		t.Errorf("warm-started Exact reported A_max %dB, worse than its %dB seed",
			exact.AMax(), seedPlan.AMax())
	}
}

// TestReplanIncrementalAcceptance is the reason to repair at all: a
// single-switch drain at 50 evaluation programs on Table III topology 1
// must be repaired without fallback, moving no MAT outside the dirty
// set and fewer MATs than a from-scratch solve, with A_max within 10%
// of the cold solve — and still faster than it. The timing compares the
// best of three runs per side: both are tens of ms (DESIGN.md §8), so a
// one-shot ratio floor would measure scheduler noise.
func TestReplanIncrementalAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("50-program replan sweep in -short mode")
	}
	cold, _ := tableIIIInstance(t, 1, 50)
	drained := busiestAcceptanceSwitch(cold)

	var full, inc *Plan
	var fullRep, incRep *ReplanReport
	bestFull, bestInc := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for attempt := 0; attempt < 3; attempt++ {
		var err error
		full, fullRep, err = ReplanWithOptions(cold, nil, ReplanOptions{Mode: ReplanFull}, drained)
		if err != nil {
			t.Fatal(err)
		}
		inc, incRep, err = ReplanWithOptions(cold, nil, ReplanOptions{Mode: ReplanAuto}, drained)
		if err != nil {
			t.Fatal(err)
		}
		if !incRep.UsedRepair {
			t.Fatalf("auto replan fell back at 50 programs: %s", incRep.FallbackReason)
		}
		bestFull = min(bestFull, fullRep.TotalTime)
		bestInc = min(bestInc, incRep.TotalTime)
	}
	t.Logf("best of 3: cold %v (moved %d MATs), incremental %v (moved %d of %d dirty)",
		bestFull, fullRep.MovedMATs, bestInc, incRep.MovedMATs, incRep.DirtyMATs)
	if bestInc >= bestFull {
		t.Errorf("incremental replan took %v (best of 3), cold solve %v: want incremental < cold", bestInc, bestFull)
	}
	if incRep.MovedMATs > incRep.DirtyMATs {
		t.Errorf("repair moved %d MATs with only %d dirty", incRep.MovedMATs, incRep.DirtyMATs)
	}
	if incRep.MovedMATs >= fullRep.MovedMATs {
		t.Errorf("repair moved %d MATs, cold solve %d: want fewer", incRep.MovedMATs, fullRep.MovedMATs)
	}
	if fa, ia := full.AMax(), inc.AMax(); float64(ia) > 1.1*float64(fa) {
		t.Errorf("incremental A_max %dB exceeds 110%% of the cold solve's %dB", ia, fa)
	}
	if err := inc.Validate(program.DefaultResourceModel, 0, 0); err != nil {
		t.Fatalf("incremental plan must validate: %v", err)
	}
}

// busiestAcceptanceSwitch mirrors the Exp#7 drain choice.
func busiestAcceptanceSwitch(p *Plan) network.SwitchID {
	load := map[network.SwitchID]int{}
	for _, sp := range p.Assignments {
		load[sp.Switch]++
	}
	var best network.SwitchID
	bestN := -1
	for u, n := range load {
		if n > bestN || (n == bestN && u < best) {
			best, bestN = u, n
		}
	}
	return best
}
