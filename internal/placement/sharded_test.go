package placement

import (
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
// acyclic (all inter-block edges point forward, and the exchange
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

// TestExchangeImprovesSeededCut: construct a deliberately bad merged
// assignment (round-robin across switches) and verify the exchange
// phase strictly improves the lexicographic objective on it.
func TestExchangeImprovesSeededCut(t *testing.T) {
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
	var st ShardStats
	if err := exchangeAssign(g, topo, part, assign, Options{Workers: 2}, program.DefaultResourceModel, shardRounds, 1, &st); err != nil {
		t.Fatal(err)
	}
	if st.AMaxAfter > st.AMaxBefore {
		t.Fatalf("exchange worsened A_max: %d -> %d", st.AMaxBefore, st.AMaxAfter)
	}
	if st.Moves == 0 {
		t.Fatal("exchange accepted no moves on a round-robin seed")
	}
	// The mutated assignment must still be consistent: every MAT
	// assigned, only to known switches.
	if len(assign) != g.NumNodes() {
		t.Fatalf("exchange changed assignment size: %d vs %d", len(assign), g.NumNodes())
	}
	for name, id := range assign {
		if _, err := topo.Switch(id); err != nil {
			t.Fatalf("MAT %s assigned to unknown switch %d", name, id)
		}
	}
}

// TestExchangeOverlap: the overlapping exchange on a deliberately bad
// merged assignment still strictly improves the objective, accepts
// moves, and leaves a consistent assignment — same contract as the
// classic schedule, with the wider target sets.
func TestExchangeOverlap(t *testing.T) {
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
	var st ShardStats
	if err := exchangeAssign(g, topo, part, assign, Options{Workers: 2},
		program.DefaultResourceModel, shardRounds, 2, &st); err != nil {
		t.Fatal(err)
	}
	if st.AMaxAfter > st.AMaxBefore {
		t.Fatalf("overlapping exchange worsened A_max: %d -> %d", st.AMaxBefore, st.AMaxAfter)
	}
	if st.Moves == 0 {
		t.Fatal("overlapping exchange accepted no moves on a round-robin seed")
	}
	if len(assign) != g.NumNodes() {
		t.Fatalf("exchange changed assignment size: %d vs %d", len(assign), g.NumNodes())
	}
}

// TestAllowedRegions pins the overlapping-neighborhood mask on a
// 0–1–2–3 region chain.
func TestAllowedRegions(t *testing.T) {
	nbr := [][]int{{1}, {0, 2}, {1, 3}, {2}}
	cases := []struct {
		overlap int
		want    []bool
	}{
		{1, []bool{true, true, false, false}},
		{2, []bool{true, true, true, false}},
		{3, []bool{true, true, true, true}},
	}
	for _, c := range cases {
		got := allowedRegions([2]int32{0, 1}, nbr, c.overlap, 4)
		for r := range c.want {
			if got[r] != c.want[r] {
				t.Fatalf("overlap=%d: region %d allowed=%v, want %v", c.overlap, r, got[r], c.want[r])
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
	chunks, err := chunkTDG(g, part, program.DefaultResourceModel)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 4 {
		t.Fatalf("got %d chunks, want 4", len(chunks))
	}
	var all []string
	for _, c := range chunks {
		all = append(all, c...)
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

// TestShardedSolveKeepsCompileMemo: the sharded solve and an escalating
// partitioned repair compile their host instances without the memo, so
// the graph's whole-topology CompiledInstance survives both.
func TestShardedSolveKeepsCompileMemo(t *testing.T) {
	topo, err := network.CompositeWAN(4, network.TofinoSpec(), 11)
	if err != nil {
		t.Fatal(err)
	}
	g := shardInstance(t, 16, 7)
	rm := program.DefaultResourceModel
	ci := Compile(g, topo, rm)
	part, err := network.PartitionRegions(topo, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	plan, st, err := ShardedGreedy{Partition: part}.SolveStats(g, topo, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.FellBack || st.Hosts == 0 {
		t.Fatalf("the solve did not run the exchange: %+v", st)
	}
	if Compile(g, topo, rm) != ci {
		t.Fatal("the sharded solve replaced the graph's memoized compiled instance")
	}
	_, rep, err := ReplanWithOptions(plan, nil, ReplanOptions{Mode: ReplanIncremental, Partition: part, QualityRatio: 0.5}, busiest(plan))
	if rep == nil || rep.Phases.Exchange == 0 {
		t.Fatalf("the repair did not escalate to the exchange: %v", err)
	}
	if Compile(g, topo, rm) != ci {
		t.Fatal("the escalation exchange replaced the graph's memoized compiled instance")
	}
}

// TestRegionalRepairEscalatesToExchange: a partitioned repair past its
// quality gate runs the overlapping-region exchange in this package's
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
		t.Fatalf("a partitioned repair past its quality gate skipped the exchange: %+v", rep.Phases)
	}
	if rep.UsedRepair || rep.FallbackReason == "" {
		t.Fatalf("a repair past its gate was kept (fallback reason %q)", rep.FallbackReason)
	}
}
