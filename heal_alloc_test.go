package hermes_test

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"testing"

	hermes "github.com/hermes-net/hermes"
	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/placement/shard"
	"github.com/hermes-net/hermes/internal/racetest"
	"github.com/hermes-net/hermes/internal/workload"
)

// compositeHeal is the benchmark's composite60 heal: 200 synthetic
// programs sharded 16 ways over CompositeWAN(60), standing as a gated
// deployment, healed by a gated Redeploy that drains one of its five
// busiest switches.
type compositeHeal struct {
	st     *hermes.Deployment
	solver placement.Solver
	ropts  placement.ReplanOptions
	drains []network.SwitchID
}

var (
	healOnce    sync.Once
	healFixture *compositeHeal
	healErr     error
)

func compositeHealFixture(tb testing.TB) *compositeHeal {
	tb.Helper()
	healOnce.Do(func() {
		topo, err := network.CompositeWAN(60, network.TofinoSpec(), 1)
		if err != nil {
			healErr = err
			return
		}
		progs, err := workload.SyntheticSet(200, workload.PaperSyntheticSpec(), 1)
		if err != nil {
			healErr = err
			return
		}
		part, err := network.PartitionRegions(topo, 16, 1)
		if err != nil {
			healErr = err
			return
		}
		res, err := hermes.Deploy(progs, topo, hermes.DeployOptions{
			Workers: 1, Shards: 16, Partition: part, Lint: true, Equiv: true})
		if err != nil {
			healErr = err
			return
		}
		opts := placement.Options{Workers: 1, Shards: 16, Lint: true, Equiv: true}
		healFixture = &compositeHeal{
			st:     res.Deployment,
			solver: shard.ShardedGreedy{Partition: part},
			ropts:  placement.ReplanOptions{Options: opts, Partition: part},
			drains: busiestHosts(res.Plan, 5),
		}
	})
	if healErr != nil {
		tb.Fatal(healErr)
	}
	return healFixture
}

// busiestHosts returns the k switches hosting the most MATs, ties by
// id: the benchmark's drain targets.
func busiestHosts(p *placement.Plan, k int) []network.SwitchID {
	load := make([]int, p.Topo.NumSwitches())
	var ids []network.SwitchID
	for _, u := range p.Hosts() {
		if u >= 0 {
			if load[u] == 0 {
				ids = append(ids, u)
			}
			load[u]++
		}
	}
	slices.SortFunc(ids, func(a, b network.SwitchID) int {
		if c := cmp.Compare(load[b], load[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return ids[:min(k, len(ids))]
}

func (h *compositeHeal) redeploy(tb testing.TB, drain network.SwitchID) *hermes.Deployment {
	next, _, err := hermes.Redeploy(h.st, h.solver, h.ropts, analyzer.Options{}, drain)
	if err != nil {
		tb.Fatal(err)
	}
	return next
}

// TestHealAllocationCeiling pins what one warm gated heal allocates on
// composite60 (2,822 MATs over 4,218 switches): the replan, its gates
// (Validate, lint, the equivalence proof), the compile and Verify, as
// hermes.Redeploy runs them, draining the busiest switch. With
// Validate, lint, Verify and the repair's acyclicity proof on node ids
// and dense switch ids, a drain that shares the topology's links, and
// the compile, Verify and lint reading the plan's by-id store, it
// measures 1,337 allocations and ~2.20 MB (1,343 and ~2.26 MB while
// they read the name-keyed map, 1,658 and ~3.26 MB with the name-keyed
// checks and a deep-copied topology). The ceilings are the measured
// counts plus 3 %.
// Allocation counts mean nothing under the race detector.
func TestHealAllocationCeiling(t *testing.T) {
	if racetest.Enabled() {
		t.Skip("allocation ceilings do not hold under the race detector")
	}
	if testing.Short() {
		t.Skip("solves composite60")
	}
	h := compositeHealFixture(t)
	drain := h.drains[0]
	heal := func() { h.redeploy(t, drain) }
	heal() // warm: region topologies, oracles, scratch, the graph index
	allocs := testing.AllocsPerRun(3, heal)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 3
	for i := 0; i < runs; i++ {
		heal()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("warm composite60 heal: %.0f allocs, %.0f bytes", allocs, bytes)
	const allocCeiling, byteCeiling = 1_377, 2_268_000
	if allocs > allocCeiling {
		t.Fatalf("warm composite60 heal allocates %.0f times, ceiling %d", allocs, allocCeiling)
	}
	if bytes > byteCeiling {
		t.Fatalf("warm composite60 heal allocates %.0f bytes, ceiling %d", bytes, byteCeiling)
	}
}

// BenchmarkCompositeHeal is the benchmark's composite60 heal op: a
// gated Redeploy round-robin over the five busiest switches, then the
// transactional rollout with the equivalence gate.
func BenchmarkCompositeHeal(b *testing.B) {
	h := compositeHealFixture(b)
	topo := h.st.Plan.Topo
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next := h.redeploy(b, h.drains[i%len(h.drains)])
		fab := hermes.NewRolloutFabric(topo)
		fab.Bootstrap(h.st, 1)
		ro, err := hermes.NewRollout(h.st, next, hermes.RolloutOptions{Topo: topo, Equiv: true, Fabric: fab})
		if err != nil {
			b.Fatal(err)
		}
		if rep, err := ro.Execute(); err != nil || rep.Outcome != hermes.RolloutCommitted {
			b.Fatal(err, rep.Outcome)
		}
	}
}
