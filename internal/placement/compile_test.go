package placement

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/racetest"
	"github.com/hermes-net/hermes/internal/tdg"
)

// randomFullAssign places every MAT on a random switch.
func randomFullAssign(rng *rand.Rand, ci *CompiledInstance) map[string]network.SwitchID {
	out := make(map[string]network.SwitchID, len(ci.Names))
	for _, name := range ci.Names {
		out[name] = network.SwitchID(rng.Intn(int(ci.S)))
	}
	return out
}

// assignmentLatency sums shortest-path latency over the distinct
// communicating switch pairs of an assignment: the map-based reference
// twin of CompiledInstance.AssignmentLatency (Eq. 2 evaluated without a
// materialized plan).
func assignmentLatency(g *tdg.Graph, topo *network.Topology, assign map[string]network.SwitchID) (time.Duration, error) {
	seen := map[RouteKey]bool{}
	var total time.Duration
	for _, e := range g.EdgeList() {
		ua, oka := assign[e.From]
		ub, okb := assign[e.To]
		if !oka || !okb || ua == ub {
			continue
		}
		key := RouteKey{From: ua, To: ub}
		if seen[key] {
			continue
		}
		seen[key] = true
		p, err := topo.ShortestPath(ua, ub)
		if err != nil {
			return 0, err
		}
		total += p.Latency
	}
	return total, nil
}

// namedIDs resolves a sorted, duplicate-free list of MAT names to node
// ids, for tests that draw their subsets by name.
func namedIDs(g *tdg.Graph, names []string) []int32 {
	ids := make([]int32, len(names))
	for i, name := range names {
		ids[i], _ = g.ID(name)
	}
	return ids
}

// compileNames is compileSubset over a sorted, duplicate-free list of
// MAT names on s switches.
func compileNames(g *tdg.Graph, names []string, s int32, rm program.ResourceModel) *CompiledInstance {
	return compileSubset(g, indexOf(g, rm), namedIDs(g, names), s)
}

// checkKernelsAgainstRefs asserts every compiled kernel against its
// map-based reference twin on one assignment.
func checkKernelsAgainstRefs(t *testing.T, rng *rand.Rand, ci *CompiledInstance, assign map[string]network.SwitchID, eps1 bool) {
	t.Helper()
	g := ci.Graph
	dense := denseOf(t, ci, assign)
	pt := ci.NewPairTable()
	ms := ci.NewMoveScratch()
	cyc := newCycleScratch(ci.S)

	// Pair table and totals.
	refPair, refTotal := PairBytesRef(g, assign)
	total := ci.FillPairTable(dense, pt)
	if total != refTotal {
		t.Fatalf("total cross bytes: compiled %d, ref %d", total, refTotal)
	}
	seen := 0
	for _, cell := range pt.Keys() {
		key := RouteKey{From: network.SwitchID(cell / pt.S), To: network.SwitchID(cell % pt.S)}
		if got, want := int(pt.Cells[cell]), refPair[key]; got != want {
			t.Fatalf("pair %v: compiled %d, ref %d", key, got, want)
		}
		if pt.Cells[cell] != 0 {
			seen++
		}
	}
	nonzero := 0
	for _, b := range refPair {
		if b != 0 {
			nonzero++
		}
	}
	if seen != nonzero {
		t.Fatalf("compiled table has %d nonzero cells, ref map %d", seen, nonzero)
	}

	// A_max.
	if got, want := ci.AssignmentAMax(dense, pt), AssignmentAMaxRef(g, assign); got != want {
		t.Fatalf("A_max: compiled %d, ref %d", got, want)
	}

	// Acyclicity: Kahn on dense ids and the contracted-graph check.
	want := assignmentAcyclic(g, assign)
	if got := kahnAcyclic(ci, dense); got != want {
		t.Fatalf("acyclicity: dense Kahn %v, ref %v", got, want)
	}
	cyc.fill(ci, dense)
	if got := cyc.acyclic(); got != want {
		t.Fatalf("acyclicity: contracted graph %v, ref %v", got, want)
	}

	// ε1 latency sum.
	if eps1 {
		lat, ok := ci.AssignmentLatency(ci.Topo.LatencyTable(), dense, ms)
		refLat, refErr := assignmentLatency(g, ci.Topo, assign)
		if ok != (refErr == nil) {
			t.Fatalf("latency feasibility: compiled %v, ref err %v", ok, refErr)
		}
		if ok && lat != refLat {
			t.Fatalf("latency: compiled %v, ref %v", lat, refLat)
		}
	}

	// Move scores for a handful of random (MAT, candidate) pairs.
	ci.FillPairTable(dense, pt)
	delta := map[RouteKey]int{}
	for k := 0; k < 6; k++ {
		x := rng.Intn(len(ci.Names))
		c := network.SwitchID(rng.Intn(int(ci.S)))
		a, cross := ci.MoveScore(dense, pt, ms, int32(x), int32(c), total)
		refA, refCross := MoveScoreRef(g, assign, refPair, delta, refTotal, ci.Names[x], c)
		if a != refA || cross != refCross {
			t.Fatalf("move %s→%d: compiled (%d,%d), ref (%d,%d)", ci.Names[x], c, a, cross, refA, refCross)
		}
	}

	// Place scores over a partial assignment: unassign a random subset
	// and score each unassigned MAT on every switch.
	partial := make(map[string]network.SwitchID, len(assign))
	for name, u := range assign {
		if rng.Float64() < 0.7 {
			partial[name] = u
		}
	}
	pdense := denseOf(t, ci, partial)
	ppair, _ := PairBytesRef(g, partial)
	ci.FillPairTable(pdense, pt)
	for _, name := range ci.Names {
		if _, ok := partial[name]; ok {
			continue
		}
		x := ci.Index[name]
		for u := int32(0); u < ci.S; u++ {
			got := ci.PlaceScore(pdense, pt, ms, x, u)
			want := PlaceScoreRef(g, partial, ppair, delta, name, network.SwitchID(u))
			if got != want {
				t.Fatalf("place %s→%d: compiled %d, ref %d", name, u, got, want)
			}
		}
	}
}

// TestCompiledKernelsMatchMapReferences is the tentpole's differential
// oracle: on randomized instances and assignments, every compiled
// scoring kernel agrees with the retained map-based implementation
// bit-for-bit.
func TestCompiledKernelsMatchMapReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 80; trial++ {
		g := randomDAG(rng, 3+rng.Intn(9))
		tp := randomTopo(rng, 2+rng.Intn(5))
		ci := Compile(g, tp, program.DefaultResourceModel)
		assign := randomFullAssign(rng, ci)
		checkKernelsAgainstRefs(t, rng, ci, assign, true)
	}
}

// TestCompiledKernelsOnSolvedPlans runs the same differential oracle
// on real solver output (the plans the property tests generate), plus
// the Plan-level pair cache against its uncached reference.
func TestCompiledKernelsOnSolvedPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	solved := 0
	for trial := 0; trial < 40 && solved < 20; trial++ {
		g := randomDAG(rng, 3+rng.Intn(8))
		tp := randomTopo(rng, 2+rng.Intn(4))
		plan, err := (Greedy{}).Solve(g, tp, Options{})
		if err != nil {
			continue
		}
		solved++
		ci := Compile(g, tp, program.DefaultResourceModel)
		checkKernelsAgainstRefs(t, rng, ci, assignmentOf(plan), true)

		cached := plan.PairBytes()
		uncached := plan.PairBytesUncached()
		if len(cached) != len(uncached) {
			t.Fatalf("cached pair map has %d keys, uncached %d", len(cached), len(uncached))
		}
		for k, v := range uncached {
			if cached[k] != v {
				t.Fatalf("pair %v: cached %d, uncached %d", k, cached[k], v)
			}
		}
	}
	if solved == 0 {
		t.Fatal("no instance solved")
	}
}

// TestCompiledKernelsAfterRandomizedDrain drives the PR 3 randomized
// drain path and checks the kernels on the repaired plans — the
// repair's compiled scoring must leave plans whose pair structure the
// references reproduce exactly.
func TestCompiledKernelsAfterRandomizedDrain(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	repaired := 0
	for trial := 0; trial < 40 && repaired < 12; trial++ {
		g := randomDAG(rng, 4+rng.Intn(7))
		tp := randomTopo(rng, 3+rng.Intn(3))
		plan, err := (Greedy{}).Solve(g, tp, Options{})
		if err != nil {
			continue
		}
		used := plan.UsedSwitches()
		drain := used[rng.Intn(len(used))]
		next, _, err := ReplanWithOptions(plan, Greedy{}, ReplanOptions{}, drain)
		if err != nil {
			continue // drain may make the instance infeasible
		}
		repaired++
		ci := Compile(next.Graph, next.Topo, program.DefaultResourceModel)
		checkKernelsAgainstRefs(t, rng, ci, assignmentOf(next), true)
		if got, want := next.AMax(), AssignmentAMaxRef(next.Graph, assignmentOf(next)); got != want {
			t.Fatalf("repaired plan A_max %d != ref %d", got, want)
		}
	}
	if repaired == 0 {
		t.Fatal("no drain repaired")
	}
}

// TestPackScratchMatchesFitsSwitch: the dense contiguous-range fit
// kernel used by the capacity-split DP must agree with the name-keyed
// FitsSwitch on every range of the topological order.
func TestPackScratchMatchesFitsSwitch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rm := program.DefaultResourceModel
	for trial := 0; trial < 60; trial++ {
		g := randomDAG(rng, 3+rng.Intn(9))
		tp := randomTopo(rng, 2+rng.Intn(4))
		order, err := g.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		sw, err := tp.Switch(network.SwitchID(rng.Intn(tp.NumSwitches())))
		if err != nil {
			t.Fatal(err)
		}
		ps := newSplitScratch(g, 0, len(order), sw, rm)
		n := len(order)
		for i := 1; i <= n; i++ {
			for j := 0; j < i; j++ {
				got := ps.fits(j, i)
				want := FitsSwitch(g, order[j:i], sw, rm)
				if got != want {
					t.Fatalf("trial %d: range [%d:%d) on switch %d: dense %v, FitsSwitch %v",
						trial, j, i, sw.ID, got, want)
				}
			}
		}
	}
}

// TestPairBytesCacheInvalidation: the memoized pair map must never
// survive a mutation that Validate or InvalidateCache sees.
func TestPairBytesCacheInvalidation(t *testing.T) {
	g := chainTDG(t, []string{"a", "b", "c"}, []int{8, 8}, 0.4)
	tp, err := network.Linear(3, network.SwitchSpec{
		Stages: 4, StageCapacity: 1.0, ProgrammableFraction: 1.0,
		LinkLatencyMin: time.Millisecond, LinkLatencyMax: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := (Greedy{}).Solve(g, tp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first := plan.PairBytes()
	if again := plan.PairBytes(); &again == &first {
		_ = again // maps compare by header; the point is the cache path ran
	}
	before := plan.AMax()

	// Tamper in place, as the lint mutation tests do.
	var victim string
	for name := range plan.Assignments {
		victim = name
		break
	}
	sp := plan.Assignments[victim]
	sp.Switch = (sp.Switch + 1) % network.SwitchID(tp.NumSwitches())
	plan.Assignments[victim] = sp

	plan.InvalidateCache()
	after := plan.AMax()
	want := AssignmentAMaxRef(g, assignmentOf(plan))
	if after != want {
		t.Fatalf("post-mutation AMax %d, want %d (stale cache?)", after, want)
	}
	_ = before
}

// TestKernelScratchRecycledClean drives the free list from several
// goroutines at once (run it under -race): every take hands out
// all-zero scratch sized to the asking instance, whatever a previous
// holder left in it, the list stays bounded, and scratch above the
// cell bound is dropped.
func TestKernelScratchRecycledClean(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 40; i++ {
				s := int32(2 + rng.Intn(60))
				n := int(s) * int(s)
				ks := takeScratch(s)
				if ks.pt.S != s || len(ks.pt.Cells) != n || len(ks.ms.delta) != n || len(ks.ms.outB) != int(s) ||
					ks.cyc.s != s || len(ks.cyc.mult) != n || len(ks.cyc.succ) != int(s) || len(ks.cyc.seen) != int(s) {
					t.Errorf("scratch for S=%d has the wrong shape", s)
					return
				}
				for c := 0; c < n; c++ {
					if ks.pt.Cells[c] != 0 || ks.pt.inKeys[c] || ks.ms.delta[c] != 0 || ks.ms.inKeys[c] || ks.cyc.mult[c] != 0 {
						t.Errorf("recycled scratch for S=%d is dirty at cell %d", s, c)
						return
					}
				}
				if ks.pt.Max() != 0 || len(ks.ms.hosts) != 0 || slices.ContainsFunc(ks.cyc.succ, func(vs []int32) bool { return len(vs) > 0 }) {
					t.Errorf("recycled scratch for S=%d keeps a histogram value, a peer fold or a contracted edge", s)
					return
				}
				for h := int32(0); h < s; h++ {
					if ks.ms.outB[h] != 0 || ks.ms.inB[h] != 0 || ks.ms.outN[h] != 0 || ks.ms.inN[h] != 0 {
						t.Errorf("recycled scratch for S=%d has a dirty peer fold at switch %d", s, h)
						return
					}
				}
				for j := 0; j < 5; j++ {
					c := int32(rng.Intn(n))
					ks.pt.Add(c, 3)
					ks.ms.add(c, 2)
					h := int32(rng.Intn(int(s)))
					if ks.ms.outN[h] == 0 && ks.ms.inN[h] == 0 {
						ks.ms.hosts = append(ks.ms.hosts, h)
					}
					ks.ms.outB[h]++
					ks.ms.outN[h]++
					if u, v := c/s, c%s; u != v {
						ks.cyc.inc(u, v, 1)
					}
				}
				putScratch(ks)
			}
		}()
	}
	wg.Wait()
	big := int32(1 << 10)
	putScratch(kernelScratch{pt: newPairTable(big), ms: newMoveScratch(big), cyc: newCycleScratch(big)})
	scratchFree.Lock()
	defer scratchFree.Unlock()
	if len(scratchFree.list) > scratchFreeEntries {
		t.Fatalf("free list holds %d entries, bound %d", len(scratchFree.list), scratchFreeEntries)
	}
	for _, ks := range scratchFree.list {
		if ks.cells() > scratchFreeMaxCells {
			t.Fatalf("free list kept %d-cell scratch, bound %d", ks.cells(), scratchFreeMaxCells)
		}
	}
}

// instanceArrays are the MAT-side arrays of a compiled instance.
type instanceArrays struct {
	edgeFrom, edgeTo, edgeBytes []int32
	in, incident                [][]int32
	req                         []float64
	topoPos                     []int32
}

func arraysOf(ci *CompiledInstance) instanceArrays {
	return instanceArrays{ci.EdgeFrom, ci.EdgeTo, ci.EdgeBytes, ci.In, ci.Incident, ci.Req, ci.TopoPos}
}

// compileSubsetRef is how compileSubset built an instance before it
// worked on node ids: the sorted names interned into a map, R(a) and
// the topological position looked up per name, and the edges gathered
// through name lookups. It is the differential twin of the id-based
// gather, edge order included.
func compileSubsetRef(g *tdg.Graph, names []string, rm program.ResourceModel) instanceArrays {
	idx := make(map[string]int32, len(names))
	for i, n := range names {
		idx[n] = int32(i)
	}
	a := instanceArrays{
		in: make([][]int32, len(names)), incident: make([][]int32, len(names)),
		req: make([]float64, len(names)),
	}
	for i, name := range names {
		node, _ := g.Node(name)
		a.req[i] = rm.Requirement(node.MAT)
	}
	if order, err := g.TopoSort(); err == nil {
		pos := make(map[string]int32, len(order))
		for p, name := range order {
			pos[name] = int32(p)
		}
		a.topoPos = make([]int32, len(names))
		for i, name := range names {
			a.topoPos[i] = pos[name]
		}
	}
	// The instance's edge order: each member's out-edges inside the
	// subset in insertion order, members in name order; g's EdgeList
	// order when the subset holds every edge.
	var edges []*tdg.Edge
	for _, name := range names {
		for _, e := range g.OutEdgeList(name) {
			if _, ok := idx[e.To]; ok {
				edges = append(edges, e)
			}
		}
	}
	if len(edges) == g.NumEdges() {
		edges = g.EdgeList()
	}
	for _, e := range edges {
		f, t := idx[e.From], idx[e.To]
		ei := int32(len(a.edgeFrom))
		a.edgeFrom = append(a.edgeFrom, f)
		a.edgeTo = append(a.edgeTo, t)
		a.edgeBytes = append(a.edgeBytes, int32(e.MetadataBytes))
		a.incident[f] = append(a.incident[f], ei)
		a.incident[t] = append(a.incident[t], ei)
		a.in[t] = append(a.in[t], ei)
	}
	return a
}

// arraysDiffer names the first array in which got and want differ,
// order included, or returns "".
func arraysDiffer(got, want instanceArrays) string {
	lists := func(a, b [][]int32) bool { return slices.EqualFunc(a, b, slices.Equal[[]int32]) }
	switch {
	case !slices.Equal(got.edgeFrom, want.edgeFrom):
		return "EdgeFrom"
	case !slices.Equal(got.edgeTo, want.edgeTo):
		return "EdgeTo"
	case !slices.Equal(got.edgeBytes, want.edgeBytes):
		return "EdgeBytes"
	case !lists(got.in, want.in):
		return "In"
	case !lists(got.incident, want.incident):
		return "Incident"
	case !slices.Equal(got.req, want.req):
		return "Req"
	case !slices.Equal(got.topoPos, want.topoPos) || (got.topoPos == nil) != (want.topoPos == nil):
		return "TopoPos"
	}
	return ""
}

// TestCompileSubsetMatchesNameKeyedTwin: the id-based compileSubset
// builds exactly the arrays the name-keyed loop built, order included,
// on every region polish of composite:10/30/60, on the reconcile's host
// instance over the sharded solve's hosts, on Compile over the Table III
// WANs, and on repair-shaped instances (the MATs of random host sets
// plus those of a drained switch) of Table III and composite plans.
func TestCompileSubsetMatchesNameKeyedTwin(t *testing.T) {
	rm := program.DefaultResourceModel
	compared := 0
	check := func(where string, ci *CompiledInstance) {
		t.Helper()
		names := make([]string, len(ci.ids))
		for x := range names {
			names[x] = ci.name(int32(x))
		}
		if !slices.IsSorted(names) {
			t.Fatalf("%s: instance MATs are not in name order", where)
		}
		if d := arraysDiffer(arraysOf(ci), compileSubsetRef(ci.Graph, names, rm)); d != "" {
			t.Fatalf("%s: %s differs from the name-keyed build", where, d)
		}
		compared++
	}

	for _, c := range []struct{ regions, programs, shards int }{{10, 30, 4}, {30, 50, 8}, {60, 200, 16}} {
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
		gi := indexOf(g, rm)
		for r := range c.shards {
			topoR, _, err := part.SubTopology(r)
			if err != nil {
				t.Fatal(err)
			}
			ids := slices.Clone(gi.Topo[cuts[r]:cuts[r+1]])
			slices.SortFunc(ids, gi.byRank)
			check(fmt.Sprintf("composite:%d region %d", c.regions, r), compileSubset(g, gi, ids, int32(topoR.NumSwitches())))
		}
		plan, _, err := ShardedGreedy{Partition: part}.SolveStats(g, topo, Options{Shards: c.shards})
		if err != nil {
			t.Fatal(err)
		}
		hosts := plan.UsedSwitches()
		at := make([]network.SwitchID, len(gi.ByName))
		for x, id := range gi.ByName {
			at[x] = plan.Hosts()[id]
		}
		in, err := newRepairInstance(g, gi, topo, hosts, gi.ByName, at, func(*network.Switch) bool { return true }, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("composite:%d reconcile", c.regions), in.ci)
		in.release()
		drainInstances(t, check, fmt.Sprintf("composite:%d", c.regions), plan, topo, 4)
	}

	for idx := 1; idx <= 10; idx++ {
		plan, topo := tableIIIInstance(t, idx, 30)
		check(fmt.Sprintf("Table III %d", idx), Compile(plan.Graph, topo, rm))
		drainInstances(t, check, fmt.Sprintf("Table III %d", idx), plan, topo, 3)
	}
	regional, part := regionalFixture(t, 4)
	drainInstances(t, check, "regional fixture", regional, part.Topology(), 8)
	t.Logf("%d instances compared", compared)
}

// drainInstances checks n repair-shaped instances of plan: a random
// used switch is drained, and the instance holds its MATs plus those
// resident on a random subset of the other used hosts — the MAT set
// healInstance compiles against its candidates and halo.
func drainInstances(t *testing.T, check func(string, *CompiledInstance), label string, plan *Plan, topo *network.Topology, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(len(label) * n)))
	used := plan.UsedSwitches()
	for i := 0; i < n; i++ {
		drained := used[rng.Intn(len(used))]
		hosts := map[network.SwitchID]bool{drained: true}
		for _, u := range used {
			hosts[u] = hosts[u] || rng.Intn(3) == 0
		}
		var names []string
		for name, sp := range plan.Assignments {
			if hosts[sp.Switch] {
				names = append(names, name)
			}
		}
		slices.Sort(names)
		check(fmt.Sprintf("%s drain %d of switch %d", label, i, drained),
			compileNames(plan.Graph, names, int32(topo.NumSwitches()), program.DefaultResourceModel))
	}
}

// TestCompileSubsetAllocationsIgnoreOutsideEdges: compiling one region
// of composite:60 makes as many allocations whether or not thousands of
// extra edges join the MATs outside it — the instance gathers its own
// members' edges and never walks the rest of the graph — and a fixed
// handful of them: 19 measured on the 145-MAT region, where the
// name-keyed build grew each MAT's edge lists per append (687).
func TestCompileSubsetAllocationsIgnoreOutsideEdges(t *testing.T) {
	if racetest.Enabled() {
		t.Skip("allocation counts do not hold under the race detector")
	}
	rm := program.DefaultResourceModel
	topo, err := network.CompositeWAN(60, network.TofinoSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	g := shardInstance(t, 200, 1)
	part, err := network.PartitionRegions(topo, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	cuts, err := chunkTDG(g, part, rm)
	if err != nil {
		t.Fatal(err)
	}
	const r = 7
	topoR, _, err := part.SubTopology(r)
	if err != nil {
		t.Fatal(err)
	}

	// dense: the same graph with a forward edge between every third pair
	// of MATs outside the region, in topological order.
	dense := g.Clone()
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	outside := slices.Concat(order[:cuts[r]], order[cuts[r+1]:])
	for i := 0; i+3 < len(outside); i++ {
		if err := dense.AddEdge(outside[i], outside[i+3], tdg.DepSuccessor, 4); err != nil {
			t.Fatal(err)
		}
	}
	if dense.NumEdges() < g.NumEdges()+1000 {
		t.Fatalf("the dense graph adds only %d edges", dense.NumEdges()-g.NumEdges())
	}

	allocs := func(g *tdg.Graph) float64 {
		gi := indexOf(g, rm)
		ids := make([]int32, 0, cuts[r+1]-cuts[r])
		for _, name := range order[cuts[r]:cuts[r+1]] {
			id, _ := g.ID(name)
			ids = append(ids, id)
		}
		slices.SortFunc(ids, gi.byRank)
		s := int32(topoR.NumSwitches())
		compileSubset(g, gi, ids, s) // warm the membership pool
		return testing.AllocsPerRun(20, func() { compileSubset(g, gi, ids, s) })
	}
	sparse, full := allocs(g), allocs(dense)
	t.Logf("region %d of composite:60 (%d of %d MATs): %.0f allocations on %d edges, %.0f on %d",
		r, cuts[r+1]-cuts[r], g.NumNodes(), sparse, g.NumEdges(), full, dense.NumEdges())
	if sparse > 20 {
		t.Fatalf("compileSubset allocates %.0f times on a %d-MAT region, ceiling 20", sparse, cuts[r+1]-cuts[r])
	}
	if sparse != full {
		t.Fatalf("compileSubset allocates %.0f times on %d edges but %.0f on %d: it depends on edges outside the subset",
			sparse, g.NumEdges(), full, dense.NumEdges())
	}
}
