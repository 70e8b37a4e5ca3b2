package lint

import (
	"math/rand"
	"testing"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/workload"
)

// TestReplanOutputSatisfiesOracle is the incremental-replan property
// test: over randomized single- and double-switch drains of a real
// evaluation instance, every plan the delta repair emits must pass
// Plan.Validate AND the differential lint oracle — the repair path
// reuses the solver's invariants, so a divergence here means the
// repair broke a constraint the full solver enforces.
func TestReplanOutputSatisfiesOracle(t *testing.T) {
	topo, err := network.TableIII(1, network.TofinoSpec())
	if err != nil {
		t.Fatal(err)
	}
	progs, err := workload.EvaluationPrograms(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := analyzer.Analyze(progs, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := placement.Greedy{}.Solve(g, topo, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		used := cold.UsedSwitches()
		drained := []network.SwitchID{used[rng.Intn(len(used))]}
		if trial%2 == 1 && len(used) > 1 {
			for {
				second := used[rng.Intn(len(used))]
				if second != drained[0] {
					drained = append(drained, second)
					break
				}
			}
		}
		plan, rep, err := placement.ReplanWithOptions(cold, nil,
			placement.ReplanOptions{Mode: placement.ReplanAuto}, drained...)
		if err != nil {
			t.Fatalf("trial %d (drain %v): %v", trial, drained, err)
		}
		for name, sp := range plan.Assignments {
			for _, d := range drained {
				if sp.Switch == d {
					t.Errorf("trial %d: MAT %q still on drained switch %d", trial, name, d)
				}
			}
		}
		if err := plan.Validate(rm(), 0, 0); err != nil {
			t.Errorf("trial %d (drain %v, repair=%v): Validate: %v", trial, drained, rep.UsedRepair, err)
		}
		if err := CheckPlanOracle(plan, rm(), 0, 0); err != nil {
			t.Errorf("trial %d (drain %v, repair=%v): oracle: %v", trial, drained, rep.UsedRepair, err)
		}
	}
}
