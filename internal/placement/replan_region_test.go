package placement

import (
	"sort"
	"testing"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/workload"
)

// regionalFixture solves a composite-WAN instance large enough to
// partition meaningfully and returns the plan plus its partition.
func regionalFixture(t *testing.T, regions int) (*Plan, *network.Partition) {
	t.Helper()
	topo, err := network.CompositeWAN(4, network.TofinoSpec(), 11)
	if err != nil {
		t.Fatal(err)
	}
	progs, err := workload.SyntheticSet(16, workload.PaperSyntheticSpec(), 7)
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
	part, err := network.PartitionRegions(topo, regions, 42)
	if err != nil {
		t.Fatal(err)
	}
	return plan, part
}

// busiest returns the used switch hosting the most MATs (ties to the
// smaller ID) — the drain target that maximizes displaced work.
func busiest(p *Plan) network.SwitchID {
	counts := map[network.SwitchID]int{}
	for _, sp := range p.Assignments {
		counts[sp.Switch]++
	}
	best, bestN := network.SwitchID(-1), -1
	for id, n := range counts {
		if n > bestN || (n == bestN && id < best) {
			best, bestN = id, n
		}
	}
	return best
}

// TestRegionalReplanHealsLocally: with a partition on the options the
// repair takes the region-local path, displaces everything off the
// drained switch, touches only dirty MATs, and passes the same gate
// stack as the whole-topology repair.
func TestRegionalReplanHealsLocally(t *testing.T) {
	old, part := regionalFixture(t, 4)
	drain := busiest(old)

	fresh, rep, err := ReplanWithOptions(old, Greedy{}, ReplanOptions{Partition: part}, drain)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.UsedRepair || !rep.UsedRegional {
		t.Fatalf("expected the regional repair path, got %+v", rep)
	}
	if len(rep.RegionsTouched) == 0 {
		t.Fatal("regional repair reported no touched regions")
	}
	want := part.RegionOf(drain)
	found := false
	for _, r := range rep.RegionsTouched {
		if r == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("drained switch's region %d not in touched set %v", want, rep.RegionsTouched)
	}
	if err := fresh.Validate(program.DefaultResourceModel, 0, 0); err != nil {
		t.Fatalf("regional repair produced invalid plan: %v", err)
	}
	for name, sp := range fresh.Assignments {
		if sp.Switch == drain {
			t.Errorf("MAT %q still hosted on drained switch %d", name, drain)
		}
	}
	// Only dirty MATs may move, and everything on the drained switch must.
	if rep.MovedMATs == 0 || rep.MovedMATs > rep.DirtyMATs {
		t.Fatalf("moved %d MATs with %d dirty", rep.MovedMATs, rep.DirtyMATs)
	}
	for name, sp := range old.Assignments {
		if sp.Switch == drain && fresh.Assignments[name].Switch == drain {
			t.Fatalf("displaced MAT %q not re-placed", name)
		}
	}
	if rep.Phases.Regions <= 0 || rep.Phases.Gates <= 0 {
		t.Fatalf("phase breakdown missing regional phases: %+v", rep.Phases)
	}
}

// TestRegionalReplanDeterministic: the regional path is deterministic
// across worker counts (regions repair concurrently, but each region's
// repair is serial and the merges are disjoint).
func TestRegionalReplanDeterministic(t *testing.T) {
	old, part := regionalFixture(t, 4)
	drain := busiest(old)
	var base map[string]network.SwitchID
	for _, w := range []int{1, 4} {
		p, rep, err := ReplanWithOptions(old, Greedy{},
			ReplanOptions{Options: Options{Workers: w}, Partition: part}, drain)
		if err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
		if !rep.UsedRegional {
			t.Fatalf("Workers=%d: regional path not taken", w)
		}
		got := assignmentOf(p)
		if base == nil {
			base = got
			continue
		}
		if len(got) != len(base) {
			t.Fatalf("Workers=%d: assignment size diverged", w)
		}
		for name, u := range base {
			if got[name] != u {
				t.Fatalf("Workers=%d: MAT %q placed on %d, want %d", w, name, got[name], u)
			}
		}
	}
}

// TestRegionalReplanWeighted: the regional path honors a traffic
// matrix (weighted candidate scoring and polish) and still validates.
func TestRegionalReplanWeighted(t *testing.T) {
	old, part := regionalFixture(t, 3)
	tm, err := network.GenerateTraffic(old.Topo, network.TrafficModels()[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	drain := busiest(old)
	fresh, rep, err := ReplanWithOptions(old, Greedy{},
		ReplanOptions{Options: Options{Traffic: tm}, Partition: part}, drain)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.UsedRegional {
		t.Fatal("regional path not taken under traffic")
	}
	if err := fresh.Validate(program.DefaultResourceModel, 0, 0); err != nil {
		t.Fatal(err)
	}
}

// TestRegionalReplanPartitionMismatch: a partition over a different
// switch ID space is rejected up front, not silently misapplied.
func TestRegionalReplanPartitionMismatch(t *testing.T) {
	old, _ := regionalFixture(t, 3)
	other, err := network.TableIII(1, network.TofinoSpec())
	if err != nil {
		t.Fatal(err)
	}
	part, err := network.PartitionRegions(other, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	drain := busiest(old)
	if _, _, err := ReplanWithOptions(old, Greedy{}, ReplanOptions{Partition: part}, drain); err == nil {
		t.Fatal("mismatched partition accepted")
	}
}

// TestOneRegionPartitionRepairsLikeNoPartition: a partition changes
// only how a repair instance's candidates and halo are drawn, so a
// one-region partition (every switch a candidate, empty halo) must heal
// exactly like no partition — same assignment, or both infeasible —
// under every objective the climb descends.
func TestOneRegionPartitionRepairsLikeNoPartition(t *testing.T) {
	feasible := 0
	for topoIdx := 1; topoIdx <= 3; topoIdx++ {
		for _, programs := range []int{10, 30, 50} {
			if testing.Short() && programs > 10 {
				continue
			}
			cold, topo := tableIIIInstance(t, topoIdx, programs)
			part, err := network.PartitionRegions(topo, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			tm, err := network.GenerateTraffic(topo, network.TrafficHotspot, 1)
			if err != nil {
				t.Fatal(err)
			}
			load := map[network.SwitchID]int{}
			for _, sp := range cold.Assignments {
				load[sp.Switch]++
			}
			drains := cold.UsedSwitches()
			sort.Slice(drains, func(i, j int) bool {
				if load[drains[i]] != load[drains[j]] {
					return load[drains[i]] > load[drains[j]]
				}
				return drains[i] < drains[j]
			})
			if len(drains) > 5 {
				drains = drains[:5]
			}
			for _, c := range []struct {
				name string
				opts Options
			}{
				{"structural", Options{}},
				{"weighted-sum", Options{Traffic: tm, TrafficObjective: TrafficWeightedSum}},
				{"weighted-max", Options{Traffic: tm, TrafficObjective: TrafficWeightedMax}},
				{"eps1", Options{Epsilon1: cold.TE2E() * 11 / 10}},
			} {
				for _, drain := range drains {
					ropts := ReplanOptions{Options: c.opts, Mode: ReplanIncremental}
					whole, _, wholeErr := ReplanWithOptions(cold, nil, ropts, drain)
					ropts.Partition = part
					one, _, oneErr := ReplanWithOptions(cold, nil, ropts, drain)
					if (wholeErr == nil) != (oneErr == nil) {
						t.Fatalf("topo %d / %d programs / %s / drain %d: no partition err=%v, one region err=%v",
							topoIdx, programs, c.name, drain, wholeErr, oneErr)
					}
					if wholeErr != nil {
						continue
					}
					feasible++
					for name, sp := range whole.Assignments {
						if got := one.Assignments[name].Switch; got != sp.Switch {
							t.Fatalf("topo %d / %d programs / %s / drain %d: MAT %q on switch %d with one region, %d with no partition",
								topoIdx, programs, c.name, drain, name, got, sp.Switch)
						}
					}
				}
			}
		}
	}
	if feasible == 0 {
		t.Fatal("no drain was repairable; the property was never exercised")
	}
}
