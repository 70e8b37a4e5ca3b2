package placement

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
	"github.com/hermes-net/hermes/internal/workload"
)

// shardInstance builds a merged TDG from the paper's synthetic
// workload.
func shardInstance(t *testing.T, programs int, seed int64) *tdg.Graph {
	t.Helper()
	progs, err := workload.SyntheticSet(programs, workload.PaperSyntheticSpec(), seed)
	if err != nil {
		t.Fatalf("SyntheticSet: %v", err)
	}
	g, err := analyzer.Analyze(progs, analyzer.Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return g
}

// roundRobinSeed scatters small contiguous topo-order blocks over every
// programmable switch: contiguity keeps the contracted switch graph
// acyclic (all inter-block edges point forward, and the reconcile
// refuses moves on a cyclic seed), while the tiny block size splits
// most TDG edges across switches and regions — heavy cross-boundary
// traffic with every switch far under capacity, so migrations are
// feasible.
func roundRobinSeed(t *testing.T, g *tdg.Graph, topo *network.Topology) map[string]network.SwitchID {
	t.Helper()
	anchors := topo.ProgrammableSwitches()
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	blockSize := (len(order) + len(anchors) - 1) / len(anchors)
	assign := make(map[string]network.SwitchID, len(order))
	for i, name := range order {
		assign[name] = anchors[i/blockSize]
	}
	return assign
}

// assignObjective scores an assignment on the lexicographic objective
// the reconcile descends: Eq. 1's A_max and the total cross bytes.
func assignObjective(g *tdg.Graph, assign map[string]network.SwitchID) (amax, cross int) {
	cells := map[[2]network.SwitchID]int{}
	for _, e := range g.EdgeList() {
		u, v := assign[e.From], assign[e.To]
		if u == v {
			continue
		}
		cells[[2]network.SwitchID{u, v}] += e.MetadataBytes
		cross += e.MetadataBytes
	}
	for _, b := range cells {
		amax = max(amax, b)
	}
	return amax, cross
}

// TestReconcileImprovesSeededCut: on a deliberately bad merged
// assignment (round-robin across switches) the reconcile strictly
// descends (A_max, cross bytes), accepts moves, and leaves every MAT
// assigned to a known switch.
func TestReconcileImprovesSeededCut(t *testing.T) {
	topo, err := network.CompositeWAN(3, network.TofinoSpec(), 5)
	if err != nil {
		t.Fatal(err)
	}
	g := shardInstance(t, 10, 3)
	part, err := network.PartitionRegions(topo, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	assign := roundRobinSeed(t, g, topo)
	a0, c0 := assignObjective(g, assign)
	var st ShardStats
	byID, err := assignIDs(g, assign)
	if err != nil {
		t.Fatal(err)
	}
	if err := reconcile(g, topo, part, byID, Options{Workers: 2}, program.DefaultResourceModel, &st); err != nil {
		t.Fatal(err)
	}
	for id, name := range g.NodeNames() {
		assign[name] = byID[id]
	}
	a1, c1 := assignObjective(g, assign)
	if a1 > a0 || (a1 == a0 && c1 >= c0) {
		t.Fatalf("reconcile did not strictly descend (A_max, cross): (%d, %d) -> (%d, %d)", a0, c0, a1, c1)
	}
	if st.AMaxBefore != a0 || st.AMaxAfter != a1 {
		t.Fatalf("stats bracket A_max %d -> %d, assignment scores %d -> %d", st.AMaxBefore, st.AMaxAfter, a0, a1)
	}
	if st.Moves == 0 {
		t.Fatal("reconcile accepted no moves on a round-robin seed")
	}
	if len(assign) != g.NumNodes() {
		t.Fatalf("reconcile changed assignment size: %d vs %d", len(assign), g.NumNodes())
	}
	for name, id := range assign {
		if _, err := topo.Switch(id); err != nil {
			t.Fatalf("MAT %s assigned to unknown switch %d", name, id)
		}
	}
}

// TestReconcileNoWorseThanExchange holds the sharded solve at seed 1 to
// the (A_max, cross bytes) the staged boundary exchange it replaced
// reached on the two Exp#10 comparison rows.
func TestReconcileNoWorseThanExchange(t *testing.T) {
	cases := []struct {
		regions, programs, shards int
		amax, cross               int
	}{
		{regions: 10, programs: 30, shards: 4, amax: 152, cross: 1826},
		{regions: 30, programs: 50, shards: 8, amax: 212, cross: 2896},
	}
	for _, c := range cases {
		topo, err := network.CompositeWAN(c.regions, network.TofinoSpec(), 1)
		if err != nil {
			t.Fatal(err)
		}
		g := shardInstance(t, c.programs, 1)
		plan, st, err := ShardedGreedy{Seed: 1}.SolveStats(g, topo, Options{Shards: c.shards})
		if err != nil {
			t.Fatal(err)
		}
		if st.FellBack {
			t.Fatalf("composite:%d fell back to whole-graph Greedy", c.regions)
		}
		cross := 0
		for _, b := range plan.PairBytes() {
			cross += b
		}
		if a := plan.AMax(); a > c.amax || cross > c.cross {
			t.Errorf("composite:%d: (A_max, cross) = (%d, %d), exchange reached (%d, %d)", c.regions, a, cross, c.amax, c.cross)
		}
	}
}

// TestShardedWeightedSolve runs the sharded solve under a gravity
// matrix with both weighted objectives: the plan is the same for every
// worker count, validates, and keeps the structural A_max within
// AMaxSlack of the merged regional solves'.
func TestShardedWeightedSolve(t *testing.T) {
	topo, err := network.CompositeWAN(10, network.TofinoSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	g := shardInstance(t, 30, 1)
	tm, err := network.GenerateTraffic(topo, network.TrafficGravity, 1)
	if err != nil {
		t.Fatal(err)
	}
	rm := program.DefaultResourceModel
	for _, obj := range []TrafficObjective{TrafficWeightedSum, TrafficWeightedMax} {
		var want []byte
		for _, w := range []int{1, 2, 8} {
			opts := Options{Shards: 4, Workers: w, Traffic: tm, TrafficObjective: obj}
			plan, st, err := ShardedGreedy{Seed: 1}.SolveStats(g, topo, opts)
			if err != nil {
				t.Fatal(err)
			}
			if st.FellBack {
				t.Fatalf("objective %v workers=%d fell back to whole-graph Greedy", obj, w)
			}
			if err := plan.Validate(rm, 0, 0); err != nil {
				t.Fatalf("objective %v workers=%d: %v", obj, w, err)
			}
			if limit := opts.amaxCap(st.AMaxBefore); plan.AMax() > limit {
				t.Fatalf("objective %v workers=%d: A_max %d past AMaxSlack cap %d (reconcile start %d)", obj, w, plan.AMax(), limit, st.AMaxBefore)
			}
			plan.SolveTime = 0 // the one wall-clock field in the encoding
			got, err := plan.EncodeJSON()
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			} else if string(got) != string(want) {
				t.Fatalf("objective %v: workers=%d plan differs from workers=1", obj, w)
			}
		}
	}
}

// TestChunkTDGCover: chunks exactly cover the TDG in topological order
// with sizes tracking region capacity.
func TestChunkTDGCover(t *testing.T) {
	topo, err := network.CompositeWAN(4, network.TofinoSpec(), 11)
	if err != nil {
		t.Fatal(err)
	}
	g := shardInstance(t, 12, 5)
	part, err := network.PartitionRegions(topo, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	cuts, err := chunkTDG(g, part, program.DefaultResourceModel)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 5 {
		t.Fatalf("got %d chunks, want 4", len(cuts)-1)
	}
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	var all []string
	for r := range 4 {
		all = append(all, order[cuts[r]:cuts[r+1]]...)
	}
	if len(all) != g.NumNodes() {
		t.Fatalf("chunks cover %d of %d nodes", len(all), g.NumNodes())
	}
	seen := map[string]bool{}
	for _, n := range all {
		if seen[n] {
			t.Fatalf("node %s in two chunks", n)
		}
		seen[n] = true
	}
	// Contiguity in topo order: the concatenation must equal a valid
	// topological order (it is the order chunkTDG cut).
	pos := make(map[string]int, len(all))
	for i, n := range all {
		pos[n] = i
	}
	for _, e := range g.EdgeList() {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("chunk concatenation violates edge %s->%s", e.From, e.To)
		}
	}
}

// TestRegionalRepairEscalatesToExchange: a partitioned repair past its
// quality gate runs the reconcile escalation in this package's
// own test binary — the escalation does not depend on which packages
// the binary links.
func TestRegionalRepairEscalatesToExchange(t *testing.T) {
	old, part := regionalFixture(t, 4)
	// Half the seed's A_max is a gate no repair can pass.
	_, rep, err := ReplanWithOptions(old, Greedy{}, ReplanOptions{Partition: part, QualityRatio: 0.5}, busiest(old))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Phases.Exchange <= 0 {
		t.Fatalf("a partitioned repair past its quality gate skipped the reconcile: %+v", rep.Phases)
	}
	if rep.UsedRepair || rep.FallbackReason == "" {
		t.Fatalf("a repair past its gate was kept (fallback reason %q)", rep.FallbackReason)
	}
}

// TestRegionAssignMatchesSubgraphSolve: Alg. 2 on a chunk's range of the
// global topological order (what solveRegions runs) assigns every MAT
// exactly where whole-graph Greedy on the chunk's induced subgraph does
// (what it ran before), error text included — for every region of
// composite:10 and composite:30, plain, ε1-bounded, and weighted through
// the region-restricted traffic matrix.
func TestRegionAssignMatchesSubgraphSolve(t *testing.T) {
	rm := program.DefaultResourceModel
	for _, c := range []struct{ regions, programs, shards int }{{10, 30, 4}, {30, 50, 8}} {
		topo, err := network.CompositeWAN(c.regions, network.TofinoSpec(), 1)
		if err != nil {
			t.Fatal(err)
		}
		g := shardInstance(t, c.programs, 1)
		part, err := network.PartitionRegions(topo, c.shards, 1)
		if err != nil {
			t.Fatal(err)
		}
		cuts, err := chunkTDG(g, part, rm)
		if err != nil {
			t.Fatal(err)
		}
		order, err := g.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		tm, err := network.GenerateTraffic(topo, network.TrafficGravity, 1)
		if err != nil {
			t.Fatal(err)
		}
		solved, regions := map[string]int{}, 0
		for r := range len(cuts) - 1 {
			chunk := order[cuts[r]:cuts[r+1]]
			if len(chunk) == 0 {
				continue
			}
			regions++
			topoR, members, err := part.SubTopology(r)
			if err != nil {
				t.Fatal(err)
			}
			sub, err := g.Subgraph(chunk)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := Greedy{}.Solve(sub, topoR, Options{Workers: 1})
			if err != nil {
				t.Fatalf("composite:%d region %d: %v", c.regions, r, err)
			}
			restricted, err := tm.Restrict(topo, members)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []struct {
				name string
				opts Options
			}{
				{"plain", Options{Workers: 1}},
				{"eps1", Options{Workers: 1, Epsilon1: plain.TE2E()}},
				{"weighted", Options{Workers: 1, Traffic: restricted, TrafficObjective: TrafficWeightedMax}},
			} {
				where := fmt.Sprintf("composite:%d region %d %s", c.regions, r, v.name)
				got, gerr := greedyAssign(g, cuts[r], cuts[r+1], topoR, v.opts, rm)
				want, werr := Greedy{}.Solve(sub, topoR, v.opts)
				if (gerr == nil) != (werr == nil) || (werr != nil && gerr.Error() != werr.Error()) {
					t.Fatalf("%s: error %v, subgraph solve %v", where, gerr, werr)
				}
				if werr != nil {
					continue
				}
				named := make(map[string]network.SwitchID, len(got))
				for p, u := range got {
					named[chunk[p]] = u
				}
				if !reflect.DeepEqual(named, assignmentOf(want)) {
					t.Fatalf("%s: assignment differs from the subgraph solve", where)
				}
				solved[v.name]++
			}
		}
		for _, name := range []string{"plain", "eps1", "weighted"} {
			if solved[name] != regions {
				t.Fatalf("composite:%d: %d of %d regions solved %s", c.regions, solved[name], regions, name)
			}
		}
	}
}

// TestReconcileFoldWork pins the fold work of the composite:60 sharded
// reconcile (200 programs, 16 regions, seed 1). A visit gathers the MAT's
// incident edges once and overlays each target from its peer hosts, so
// the cells folded stay under a quarter of the 349,367 incident-edge
// visits the per-target edge fold made on this instance. It is a count,
// not a clock, so it holds on any host and under -race.
func TestReconcileFoldWork(t *testing.T) {
	topo, err := network.CompositeWAN(60, network.TofinoSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	part, err := network.PartitionRegions(topo, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := shardInstance(t, 200, 1)
	rm := program.DefaultResourceModel
	cuts, err := chunkTDG(g, part, rm)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Shards: 16, Workers: 1}
	assign, err := ShardedGreedy{Partition: part}.solveRegions(g, topo, part, cuts, opts)
	if err != nil {
		t.Fatal(err)
	}
	var work climbWork
	opts.climbWork = &work
	var st ShardStats
	if err := reconcile(g, topo, part, assign, opts, rm, &st); err != nil {
		t.Fatal(err)
	}
	scored, folded := work.scored.Load(), work.folded.Load()
	t.Logf("reconcile: %d candidates scored, %d cells folded, %d passes, %d moves", scored, folded, st.Rounds, st.Moves)
	const perTargetVisits = 349_367
	if scored == 0 || folded > perTargetVisits/4 {
		t.Fatalf("reconcile folded %d cells over %d candidates, bound %d (a quarter of the per-target fold's %d)",
			folded, scored, perTargetVisits/4, perTargetVisits)
	}
}
