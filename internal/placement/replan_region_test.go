package placement

import (
	"fmt"
	"slices"
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

// TestReplanReportsMovedMATs pins MovedMATs to the migration cost on
// every path a replan can take: MovedMATs = Diff(old, new) =
// len(movedNames(old, new)).
func TestReplanReportsMovedMATs(t *testing.T) {
	old, part := regionalFixture(t, 4)
	drain := busiest(old)
	for _, c := range []struct {
		name                       string
		ropts                      ReplanOptions
		repair, regional, fellBack bool
	}{
		{"repair", ReplanOptions{}, true, false, false},
		{"regional", ReplanOptions{Partition: part}, true, true, false},
		{"full", ReplanOptions{Mode: ReplanFull}, false, false, false},
		{"fallback", ReplanOptions{QualityRatio: 1e-9}, false, false, true},
	} {
		plan, rep, err := ReplanWithOptions(old, Greedy{}, c.ropts, drain)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if rep.UsedRepair != c.repair || rep.UsedRegional != c.regional || (rep.FallbackReason != "") != c.fellBack {
			t.Fatalf("%s: took repair=%v regional=%v fallback %q", c.name, rep.UsedRepair, rep.UsedRegional, rep.FallbackReason)
		}
		diff, err := Diff(old, plan)
		if err != nil {
			t.Fatal(err)
		}
		names, err := movedNames(old, plan)
		if err != nil {
			t.Fatal(err)
		}
		if rep.MovedMATs != diff || diff != len(names) || diff == 0 {
			t.Fatalf("%s: MovedMATs %d, Diff %d, movedNames %d", c.name, rep.MovedMATs, diff, len(names))
		}
	}
}

// TestReplanPackStepsWorkerInvariant: ReplanReport.PackSteps is a
// property of the replan, not of the host: the sharded cold re-solve and
// the regional repair count the same steps at every worker count, the
// repair counts some, and it counts fewer than the cold re-solve.
func TestReplanPackStepsWorkerInvariant(t *testing.T) {
	old, part := regionalFixture(t, 4)
	drain := busiest(old)
	var cold, regional []int
	for _, w := range []int{1, 2, 8} {
		opts := Options{Workers: w, Shards: 4}
		_, rep, err := ReplanWithOptions(old, ShardedGreedy{Partition: part},
			ReplanOptions{Options: opts, Mode: ReplanFull}, drain)
		if err != nil {
			t.Fatal(err)
		}
		cold = append(cold, rep.PackSteps)
		_, rep, err = ReplanWithOptions(old, ShardedGreedy{Partition: part},
			ReplanOptions{Options: opts, Partition: part}, drain)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.UsedRegional {
			t.Fatalf("workers=%d: the repair did not take the regional path (%s)", w, rep.FallbackReason)
		}
		regional = append(regional, rep.PackSteps)
	}
	for i := range cold {
		if cold[i] != cold[0] || regional[i] != regional[0] {
			t.Fatalf("pack steps depend on the worker count: cold %v, regional %v", cold, regional)
		}
	}
	if regional[0] == 0 || regional[0] >= cold[0] {
		t.Fatalf("regional repair counted %d pack steps, cold re-solve %d", regional[0], cold[0])
	}
}

// movedNames lists the MATs that changed hosting switch between two
// plans over the same TDG, sorted — Diff with identities.
func movedNames(a, b *Plan) ([]string, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("placement: diff of nil plan")
	}
	if !sameMATSet(a.Graph, b.Graph) {
		return nil, fmt.Errorf("placement: diff across different TDGs")
	}
	var moved []string
	for name := range a.Assignments {
		sb, ok := b.Assignments[name]
		if !ok {
			return nil, fmt.Errorf("placement: plan B misses MAT %q", name)
		}
		if a.Assignments[name].Switch != sb.Switch {
			moved = append(moved, name)
		}
	}
	sort.Strings(moved)
	return moved, nil
}

// TestHealInstanceHaloMatchesNameKeyed holds every regional heal
// instance's membership to a name-keyed reference. On composite:30
// (8 regions) and composite:60 (16 regions), draining each of the ten
// busiest switches, each region's instance (and its widened retry) has
// as hosts its candidates plus exactly the switches, found by name,
// that host its dirty MATs' TDG peers outside the candidates — the
// halo — and as MATs every MAT left on those hosts plus its displaced
// MATs, in name order. The drains must reach instances with a
// non-empty halo: dirty MATs talking across a region cut.
func TestHealInstanceHaloMatchesNameKeyed(t *testing.T) {
	rm := program.DefaultResourceModel
	halos, instances := 0, 0
	for _, c := range []struct{ regions, programs, shards int }{{30, 100, 8}, {60, 200, 16}} {
		topo, err := network.CompositeWAN(c.regions, network.TofinoSpec(), 1)
		if err != nil {
			t.Fatal(err)
		}
		progs, err := workload.SyntheticSet(c.programs, workload.PaperSyntheticSpec(), 1)
		if err != nil {
			t.Fatal(err)
		}
		g, err := analyzer.Analyze(progs, analyzer.Options{})
		if err != nil {
			t.Fatal(err)
		}
		part, err := network.PartitionRegions(topo, c.shards, 1)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := ShardedGreedy{Partition: part}.Solve(g, topo, Options{Shards: c.shards, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		gi := indexOf(g, rm)
		nbr := regionAdjacency(part)
		for _, drain := range topHosts(plan, 10) {
			label := fmt.Sprintf("composite:%d drain=%d", c.regions, drain)
			drained := plan.Topo.Clone()
			sw, _ := drained.Switch(drain)
			sw.Programmable, sw.Stages, sw.StageCapacity = false, 0, 0
			displacedIDs, dirty := dirtySets(plan, drained, map[network.SwitchID]bool{drain: true})
			// The repair's fan-out, rebuilt by name: the survivors by
			// node id, the switches they use, and each region's dirty
			// share in name order.
			displaced := map[string]bool{}
			for _, id := range displacedIDs {
				displaced[g.NodeOf(id).Name()] = true
			}
			surv := map[string]network.SwitchID{}
			survID := make([]network.SwitchID, g.NumNodes())
			for id := range survID {
				survID[id] = -1
			}
			used := make([]bool, drained.NumSwitches())
			for name, sp := range plan.Assignments {
				if !displaced[name] {
					surv[name] = sp.Switch
					id, _ := g.ID(name)
					survID[id], used[sp.Switch] = sp.Switch, true
				}
			}
			shares := map[int][]string{}
			for _, id := range dirty {
				name := g.NodeOf(id).Name()
				r := part.RegionOf(plan.Assignments[name].Switch)
				shares[r] = append(shares[r], name)
			}
			for r, names := range shares {
				sort.Strings(names)
				share := map[string]bool{}
				shareIDs := make([]int32, len(names))
				for k, name := range names {
					share[name] = true
					shareIDs[k], _ = g.ID(name)
				}
				for _, candRegions := range [][]int{{r}, append([]int{r}, nbr[r]...)} {
					cands, err := candidateHosts(drained, part, used, candRegions)
					if err != nil {
						t.Fatal(err)
					}
					isCand := func(u network.SwitchID) bool {
						_, ok := slices.BinarySearch(cands, u)
						return ok
					}
					hosts, ids, at, _, _, err := instanceMATs(g, gi, survID, shareIDs, cands, isCand)
					if err != nil {
						t.Fatalf("%s region %d: %v", label, r, err)
					}
					want := slices.Clone(cands)
					for name := range share {
						for _, e := range g.OutEdgeList(name) {
							if u, ok := surv[e.To]; ok && !slices.Contains(cands, u) {
								want = append(want, u)
							}
						}
						for _, e := range g.InEdgeList(name) {
							if u, ok := surv[e.From]; ok && !slices.Contains(cands, u) {
								want = append(want, u)
							}
						}
					}
					slices.Sort(want)
					want = slices.Compact(want)
					if !slices.Equal(hosts, want) {
						t.Fatalf("%s region %d: instance hosts %v, name-keyed %v", label, r, hosts, want)
					}
					var wantMATs []string
					for name, u := range surv {
						if slices.Contains(want, u) {
							wantMATs = append(wantMATs, name)
						}
					}
					for name := range share {
						if displaced[name] {
							wantMATs = append(wantMATs, name)
						}
					}
					sort.Strings(wantMATs)
					gotMATs := make([]string, len(ids))
					for x, id := range ids {
						gotMATs[x] = gi.Names[id]
						if u, ok := surv[gotMATs[x]]; ok && at[x] != u || !ok && at[x] != -1 {
							t.Fatalf("%s region %d: MAT %q at %d", label, r, gotMATs[x], at[x])
						}
					}
					if !slices.Equal(gotMATs, wantMATs) {
						t.Fatalf("%s region %d: instance holds %d MATs, name-keyed %d", label, r, len(gotMATs), len(wantMATs))
					}
					instances++
					if len(hosts) > len(cands) {
						halos++
					}
				}
			}
		}
	}
	t.Logf("%d instances, %d with a halo", instances, halos)
	if halos == 0 {
		t.Fatal("no drain reached an instance with a non-empty halo")
	}
}
