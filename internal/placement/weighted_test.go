package placement

import (
	"math/rand"
	"testing"
	"time"

	"github.com/hermes-net/hermes/internal/network"
)

// randomTraffic draws one of the seeded traffic models for a topology.
func randomTraffic(t *testing.T, rng *rand.Rand, tp *network.Topology) *network.TrafficMatrix {
	t.Helper()
	models := network.TrafficModels()
	tm, err := network.GenerateTraffic(tp, models[rng.Intn(len(models))], rng.Int63())
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

// checkWeightedKernels asserts the compiled weighted kernels against
// their map twins on one full assignment, plus PlaceScoreWeighted on a
// random partial assignment.
func checkWeightedKernels(t *testing.T, rng *rand.Rand, ci *CompiledInstance, assign map[string]network.SwitchID, tm *network.TrafficMatrix) {
	t.Helper()
	g := ci.Graph
	wt, err := ci.CompileWeights(tm)
	if err != nil {
		t.Fatal(err)
	}
	weights := wt.WeightMap()
	dense := ci.DenseAssign(assign)
	pt := ci.NewPairTable()
	ms := ci.NewMoveScratch()
	ci.FillPairTable(dense, pt)

	// Full-assignment score.
	sum, max := wt.Score(pt)
	refSum, refMax := AssignmentWeightedRef(g, assign, weights)
	if sum != refSum || max != refMax {
		t.Fatalf("weighted score: compiled (%d,%d), ref (%d,%d)", sum, max, refSum, refMax)
	}
	if s2, m2 := ci.AssignmentWeighted(dense, pt, wt); s2 != refSum || m2 != refMax {
		t.Fatalf("AssignmentWeighted: compiled (%d,%d), ref (%d,%d)", s2, m2, refSum, refMax)
	}

	// Weighted move scores on random (MAT, candidate) pairs.
	refPair, _ := PairBytesRef(g, assign)
	delta := map[RouteKey]int{}
	for k := 0; k < 8; k++ {
		x := rng.Intn(len(ci.Names))
		c := network.SwitchID(rng.Intn(int(ci.S)))
		ws, wm := ci.MoveScoreWeighted(dense, pt, ms, wt, int32(x), int32(c), sum)
		rws, rwm := MoveScoreWeightedRef(g, assign, refPair, delta, weights, ci.Names[x], c)
		if ws != rws || wm != rwm {
			t.Fatalf("weighted move %s→%d: compiled (%d,%d), ref (%d,%d)",
				ci.Names[x], c, ws, wm, rws, rwm)
		}
	}

	// Weighted place scores over a partial assignment.
	partial := make(map[string]network.SwitchID, len(assign))
	for name, u := range assign {
		if rng.Float64() < 0.7 {
			partial[name] = u
		}
	}
	pdense := ci.DenseAssign(partial)
	ppair, _ := PairBytesRef(g, partial)
	ci.FillPairTable(pdense, pt)
	psum, _ := wt.Score(pt)
	for _, name := range ci.Names {
		if _, ok := partial[name]; ok {
			continue
		}
		x := ci.Index[name]
		for u := int32(0); u < ci.S; u++ {
			ws, wm := ci.PlaceScoreWeighted(pdense, pt, ms, wt, x, u, psum)
			rws, rwm := PlaceScoreWeightedRef(g, partial, ppair, delta, weights, name, network.SwitchID(u))
			if ws != rws || wm != rwm {
				t.Fatalf("weighted place %s→%d: compiled (%d,%d), ref (%d,%d)",
					name, u, ws, wm, rws, rwm)
			}
		}
	}
}

// TestWeightedKernelsMatchMapReferences is the weighted analog of
// TestCompiledKernelsMatchMapReferences: on randomized instances,
// assignments, and traffic models, every weighted compiled kernel
// agrees with its map twin bit-for-bit.
func TestWeightedKernelsMatchMapReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	for trial := 0; trial < 60; trial++ {
		g := randomDAG(rng, 3+rng.Intn(9))
		tp := randomTopo(rng, 2+rng.Intn(5))
		ci := Compile(g, tp, Options{}.resourceModel())
		tm := randomTraffic(t, rng, tp)
		assign := randomFullAssign(rng, ci)
		checkWeightedKernels(t, rng, ci, assign, tm)
	}
}

// TestWeightedKernelsOnSolvedPlans runs the weighted differential
// oracle on real weighted solver output, and on the plans left behind
// by randomized drains repaired under traffic.
func TestWeightedKernelsOnSolvedPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(172))
	solved, repaired := 0, 0
	for trial := 0; trial < 50 && (solved < 12 || repaired < 6); trial++ {
		g := randomDAG(rng, 3+rng.Intn(8))
		tp := randomTopo(rng, 2+rng.Intn(4))
		tm := randomTraffic(t, rng, tp)
		obj := TrafficObjective(rng.Intn(2))
		opts := Options{Traffic: tm, TrafficObjective: obj}
		plan, err := (Greedy{}).Solve(g, tp, opts)
		if err != nil {
			continue
		}
		solved++
		ci := Compile(g, tp, Options{}.resourceModel())
		checkWeightedKernels(t, rng, ci, assignmentOf(plan), tm)

		used := plan.UsedSwitches()
		drain := used[rng.Intn(len(used))]
		next, _, err := ReplanWithOptions(plan, Greedy{}, ReplanOptions{Options: Options{Traffic: tm, TrafficObjective: obj}}, drain)
		if err != nil {
			continue
		}
		repaired++
		ci2 := Compile(next.Graph, next.Topo, Options{}.resourceModel())
		checkWeightedKernels(t, rng, ci2, assignmentOf(next), tm)
	}
	if solved == 0 {
		t.Fatal("no weighted instance solved")
	}
	if repaired == 0 {
		t.Fatal("no weighted drain repaired")
	}
}

// TestWeightedSolveRespectsAMaxSlack: a weighted Greedy solve must
// never inflate the structural A_max beyond AMaxSlack × the structural
// optimum the same solve reaches without traffic.
func TestWeightedSolveRespectsAMaxSlack(t *testing.T) {
	rng := rand.New(rand.NewSource(173))
	checked := 0
	for trial := 0; trial < 40 && checked < 12; trial++ {
		g := randomDAG(rng, 4+rng.Intn(8))
		tp := randomTopo(rng, 2+rng.Intn(4))
		tm := randomTraffic(t, rng, tp)
		base, err := (Greedy{}).Solve(g, tp, Options{})
		if err != nil {
			continue
		}
		weighted, err := (Greedy{}).Solve(g, tp, Options{Traffic: tm})
		if err != nil {
			t.Fatalf("weighted solve failed where structural succeeded: %v", err)
		}
		checked++
		acap := Options{}.amaxCap(base.AMax())
		if weighted.AMax() > acap {
			t.Fatalf("weighted A_max %d exceeds %d (structural %d × slack 1.2)",
				weighted.AMax(), acap, base.AMax())
		}
		// The weighted plan must not be worse than the structural plan
		// under the weighted objective (both are feasible points).
		ci := Compile(g, tp, Options{}.resourceModel())
		wt, err := ci.CompileWeights(tm)
		if err != nil {
			t.Fatal(err)
		}
		pt := ci.NewPairTable()
		ws, _ := ci.AssignmentWeighted(ci.DenseAssign(assignmentOf(weighted)), pt, wt)
		bs, _ := ci.AssignmentWeighted(ci.DenseAssign(assignmentOf(base)), pt, wt)
		if ws > bs {
			t.Fatalf("weighted solve ended with W_sum %d > structural plan's %d", ws, bs)
		}
	}
	if checked == 0 {
		t.Fatal("no instance checked")
	}
}

// TestWeightedSolverDeterministicAcrossWorkers: weighted solves must
// produce byte-identical plans for every worker count, like the
// structural path.
func TestWeightedSolverDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(174))
	checked := 0
	for trial := 0; trial < 30 && checked < 8; trial++ {
		g := randomDAG(rng, 4+rng.Intn(8))
		tp := randomTopo(rng, 2+rng.Intn(4))
		tm := randomTraffic(t, rng, tp)
		obj := TrafficObjective(rng.Intn(2))
		var plans []*Plan
		failed := false
		for _, w := range []int{1, 2, 7} {
			p, err := (Greedy{}).Solve(g, tp, Options{
				Traffic: tm, TrafficObjective: obj, Workers: w,
			})
			if err != nil {
				failed = true
				break
			}
			plans = append(plans, p)
		}
		if failed {
			continue
		}
		checked++
		for i := 1; i < len(plans); i++ {
			for name, sp := range plans[0].Assignments {
				if plans[i].Assignments[name].Switch != sp.Switch {
					t.Fatalf("worker count changed weighted plan: MAT %q on %d vs %d",
						name, sp.Switch, plans[i].Assignments[name].Switch)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no instance checked")
	}
}

// TestExactWeightedNotWorseThanGreedy: on small instances the weighted
// branch-and-bound must end at a weighted objective no worse than the
// weighted Greedy's, while honoring the same structural cap.
func TestExactWeightedNotWorseThanGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(175))
	checked := 0
	for trial := 0; trial < 30 && checked < 6; trial++ {
		g := randomDAG(rng, 3+rng.Intn(4))
		tp := randomTopo(rng, 2)
		tm := randomTraffic(t, rng, tp)
		opts := Options{Traffic: tm, Deadline: time.Now().Add(2 * time.Second)}
		gp, err := (Greedy{}).Solve(g, tp, opts)
		if err != nil {
			continue
		}
		ep, err := (Exact{}).Solve(g, tp, opts)
		if err != nil {
			t.Fatalf("weighted exact failed where greedy succeeded: %v", err)
		}
		checked++
		ci := Compile(g, tp, Options{}.resourceModel())
		wt, err := ci.CompileWeights(tm)
		if err != nil {
			t.Fatal(err)
		}
		pt := ci.NewPairTable()
		es, _ := ci.AssignmentWeighted(ci.DenseAssign(assignmentOf(ep)), pt, wt)
		gs, _ := ci.AssignmentWeighted(ci.DenseAssign(assignmentOf(gp)), pt, wt)
		if es > gs {
			t.Fatalf("exact weighted W_sum %d worse than greedy %d", es, gs)
		}
	}
	if checked == 0 {
		t.Fatal("no instance checked")
	}
}

// TestTrafficObjectiveParse round-trips the CLI spellings.
func TestTrafficObjectiveParse(t *testing.T) {
	for _, o := range []TrafficObjective{TrafficWeightedSum, TrafficWeightedMax} {
		got, err := ParseTrafficObjective(o.String())
		if err != nil || got != o {
			t.Fatalf("round-trip %v: got %v, err %v", o, got, err)
		}
	}
	if _, err := ParseTrafficObjective("bogus"); err == nil {
		t.Fatal("bogus objective accepted")
	}
	if o, err := ParseTrafficObjective(""); err != nil || o != TrafficWeightedSum {
		t.Fatal("empty objective should default to sum")
	}
}
