package hermes_test

import (
	"testing"

	hermes "github.com/hermes-net/hermes"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/racetest"
	"github.com/hermes-net/hermes/internal/workload"
)

// TestWarmShardedDeployAllocationCeiling pins what a warm sharded
// deploy allocates against a standing partition: the region
// sub-topologies (with their path oracles and latency tables) are
// memoized on the partition, and the repair instances' dense kernel
// scratch comes from a free list, and each region runs Alg. 2 on its
// range of the global topological order without building a subgraph or
// a region plan. CompositeWAN(30), 100 programs, 8 regions: 13,012
// allocations since every region polish, the reconcile and each repair
// build their instance on the graph's node ids, carving each MAT's edge
// lists from one backing array (27,389 with a name-keyed instance build
// whose edge lists grew per append), 42,546 with a graph per program and
// a name-keyed merge, 45,247 building a subgraph and a plan per region
// and 66,773 rebuilding every region and its scratch per deploy. With
// materialization and Alg. 2's anchor check packing on node ids (no
// per-switch name map, memo key or PerStage slice per MAT) it was 7,879
// (13,013 before), with the compile on the plan's host table and the
// analyzer's kept footprints 3,909, and with every region polish on the
// hosts its anchor placement used (no S²-sized switch list, capacity
// table or candidate list per region) 3,766. The ceiling is the
// measured count plus 3 %.
// Allocation counts mean nothing under the race detector.
func TestWarmShardedDeployAllocationCeiling(t *testing.T) {
	if racetest.Enabled() {
		t.Skip("allocation ceilings do not hold under the race detector")
	}
	topo, err := network.CompositeWAN(30, network.TofinoSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	progs, err := workload.SyntheticSet(100, workload.PaperSyntheticSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	part, err := network.PartitionRegions(topo, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := hermes.DeployOptions{Shards: 8, Partition: part, Workers: 1}
	deploy := func() {
		if _, err := hermes.Deploy(progs, topo, opts); err != nil {
			t.Fatal(err)
		}
	}
	deploy() // warm: region topologies, oracles, scratch
	allocs := testing.AllocsPerRun(3, deploy)
	t.Logf("warm sharded deploy on composite:30: %.0f allocs", allocs)
	const ceiling = 3_879
	if allocs > ceiling {
		t.Fatalf("warm sharded deploy on composite:30 allocates %.0f times, ceiling %d", allocs, ceiling)
	}
}

// TestWarmGreedyDeployAllocationCeiling pins a warm whole-graph Greedy
// deploy of the paper's evaluation point: 30 programs on Table III
// WAN 1, one worker so the anchor waves run serially. The plan is
// materialized on node ids and the anchor check packs by position, and
// the compile reads the plan's host table and the analyzer's kept
// footprints: 813 allocations (1,660 with the name-keyed compile, 2,761
// packing through the name-keyed memo), 807 since the polish runs on
// the hosts the anchor placement used. The ceiling is the measured
// count plus 3 %.
func TestWarmGreedyDeployAllocationCeiling(t *testing.T) {
	if racetest.Enabled() {
		t.Skip("allocation ceilings do not hold under the race detector")
	}
	topo, err := network.TableIII(1, network.TofinoSpec())
	if err != nil {
		t.Fatal(err)
	}
	progs, err := workload.EvaluationPrograms(30, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := hermes.DeployOptions{Workers: 1}
	deploy := func() {
		if _, err := hermes.Deploy(progs, topo, opts); err != nil {
			t.Fatal(err)
		}
	}
	deploy() // warm: path oracle, graph index, scratch
	allocs := testing.AllocsPerRun(3, deploy)
	t.Logf("warm Greedy deploy on Table III WAN 1: %.0f allocs", allocs)
	const ceiling = 831
	if allocs > ceiling {
		t.Fatalf("warm Greedy deploy on Table III WAN 1 allocates %.0f times, ceiling %d", allocs, ceiling)
	}
}
