package rollout

import (
	"sync"
	"testing"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/racetest"
	"github.com/hermes-net/hermes/internal/workload"
)

var (
	healOnce          sync.Once
	healOld, healNext *deploy.Deployment
	healErr           error
)

// compositeHeal is a heal of the benchmark's composite60 program set on
// its smoke-size topology: SyntheticSet(200) sharded four ways over
// CompositeWAN(10) (2,822 MATs), drained on its busiest switch.
func compositeHeal(tb testing.TB) (old, next *deploy.Deployment) {
	tb.Helper()
	healOnce.Do(func() {
		healErr = func() error {
			progs, err := workload.SyntheticSet(200, workload.PaperSyntheticSpec(), 1)
			if err != nil {
				return err
			}
			topo, err := network.CompositeWAN(10, network.TofinoSpec(), 1)
			if err != nil {
				return err
			}
			part, err := network.PartitionRegions(topo, 4, 1)
			if err != nil {
				return err
			}
			g, err := analyzer.Analyze(progs, analyzer.Options{})
			if err != nil {
				return err
			}
			solver := placement.ShardedGreedy{Partition: part}
			opts := placement.Options{Shards: 4}
			plan, err := solver.Solve(g, topo, opts)
			if err != nil {
				return err
			}
			if healOld, err = deploy.Compile(plan, analyzer.Options{}); err != nil {
				return err
			}
			load := map[network.SwitchID]int{}
			busiest := network.SwitchID(-1)
			for _, sp := range plan.Assignments {
				load[sp.Switch]++
			}
			for _, sw := range plan.UsedSwitches() {
				if busiest < 0 || load[sw] > load[busiest] {
					busiest = sw
				}
			}
			healNext, _, err = deploy.Redeploy(healOld, solver,
				placement.ReplanOptions{Options: opts, Partition: part}, busiest)
			return err
		}()
	})
	if healErr != nil {
		tb.Fatal(healErr)
	}
	return healOld, healNext
}

// TestNewAllocationCeiling pins rollout.New's allocations on a
// composite heal (fabric supplied): the fingerprint hashes the plans'
// by-id stores into one reused buffer in the graph index's name order,
// the unchanged-switch count is two slices by switch ID, and the group
// bookkeeping runs on the program index memoized on the graph; what is
// left is mostly the 200 commit groups. The ceiling is the measured 47
// plus 3 % (182 while the unchanged count was a map and the union-find
// ran on program names, 196 while UsedSwitches grew its result by
// appending, 205 while the group bookkeeping copied the graph's node
// list per call, 206 while the fingerprint sorted the names);
// string-formatting fingerprints and per-switch map-of-maps cost
// 15,577.
func TestNewAllocationCeiling(t *testing.T) {
	old, next := compositeHeal(t)
	fab := NewMemFabric(next.Plan.Topo)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := New(old, next, Options{Topo: next.Plan.Topo, Fabric: fab}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("New: %.0f allocs", allocs)
	const ceiling = 49
	if allocs > ceiling {
		t.Fatalf("New allocates %.0f times on the composite heal, ceiling %d", allocs, ceiling)
	}
}

// TestCompileAllocationCeiling pins deploy.Compile's allocations on
// the composite heal's new plan (2,822 MATs): it reads the plan's host
// table and the graph's kept footprints, carves stage entries and
// header fields from arenas and presizes every map, so what is left is
// mostly each used switch's two header maps. The ceiling is the
// measured 413 plus 3 %; the name-keyed compile took 8,292.
func TestCompileAllocationCeiling(t *testing.T) {
	if racetest.Enabled() {
		t.Skip("allocation ceilings do not hold under the race detector")
	}
	_, next := compositeHeal(t)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := deploy.Compile(next.Plan, analyzer.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Compile: %.0f allocs", allocs)
	const ceiling = 426
	if allocs > ceiling {
		t.Fatalf("Compile allocates %.0f times on the composite heal, ceiling %d", allocs, ceiling)
	}
}

func BenchmarkRolloutNew(b *testing.B) {
	old, next := compositeHeal(b)
	fab := NewMemFabric(next.Plan.Topo)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(old, next, Options{Topo: next.Plan.Topo, Fabric: fab}); err != nil {
			b.Fatal(err)
		}
	}
}
