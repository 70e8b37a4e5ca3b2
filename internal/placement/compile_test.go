package placement

import (
	"math/rand"
	"testing"
	"time"

	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
)

// randomFullAssign places every MAT on a random switch.
func randomFullAssign(rng *rand.Rand, ci *CompiledInstance) map[string]network.SwitchID {
	out := make(map[string]network.SwitchID, len(ci.Names))
	for _, name := range ci.Names {
		out[name] = network.SwitchID(rng.Intn(int(ci.S)))
	}
	return out
}

// checkKernelsAgainstRefs asserts every compiled kernel against its
// map-based reference twin on one assignment.
func checkKernelsAgainstRefs(t *testing.T, rng *rand.Rand, ci *CompiledInstance, assign map[string]network.SwitchID, eps1 bool) {
	t.Helper()
	g := ci.Graph
	dense := ci.DenseAssign(assign)
	pt := ci.NewPairTable()
	ms := ci.NewMoveScratch()
	cyc := ci.NewCycleScratch()

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

	// Acyclicity.
	if got, want := ci.AssignmentAcyclic(dense, cyc), assignmentAcyclic(g, assign); got != want {
		t.Fatalf("acyclicity: compiled %v, ref %v", got, want)
	}

	// ε1 latency sum.
	if eps1 {
		lat, ok := ci.AssignmentLatency(dense, ms)
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
	pdense := ci.DenseAssign(partial)
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
		ci := Compile(g, tp, Options{}.resourceModel())
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
		plan, err := (Greedy{ImproveBudget: 50 * time.Millisecond}).Solve(g, tp, Options{})
		if err != nil {
			continue
		}
		solved++
		ci := Compile(g, tp, Options{}.resourceModel())
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
		plan, err := (Greedy{ImproveBudget: 50 * time.Millisecond}).Solve(g, tp, Options{})
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
		ci := Compile(next.Graph, next.Topo, Options{}.resourceModel())
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
	rm := Options{}.resourceModel()
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
		ps := newSplitScratch(g, order, sw, rm)
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

// TestCompileMemoRevalidates: the memoized instance must be reused
// verbatim while the topology is untouched, and dropped when switch
// traits mutate in place (the replan drain path).
func TestCompileMemoRevalidates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomDAG(rng, 6)
	tp := randomTopo(rng, 4)
	rm := Options{}.resourceModel()
	a := Compile(g, tp, rm)
	if b := Compile(g, tp, rm); a != b {
		t.Fatal("unchanged instance was recompiled")
	}
	sw, err := tp.Switch(0)
	if err != nil {
		t.Fatal(err)
	}
	sw.Programmable = false
	sw.Stages = 0
	sw.StageCapacity = 0
	c := Compile(g, tp, rm)
	if c == a {
		t.Fatal("drained switch did not invalidate the compiled instance")
	}
	if c.Programmable[0] {
		t.Fatal("recompiled instance still sees switch 0 as programmable")
	}
	other := program.ResourceModel{SRAMBytesPerStage: 1, TCAMFactor: 1, ALUWeight: 1, MinCost: 0.5}
	if d := Compile(g, tp, other); d == c {
		t.Fatal("resource-model change did not invalidate the compiled instance")
	}
}
