package placement

import (
	"math/rand"
	"testing"
	"time"

	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

// randomDAG builds a random annotated TDG with n MATs.
func randomDAG(rng *rand.Rand, n int) *tdg.Graph {
	g := tdg.New()
	names := make([]string, n)
	for i := range names {
		names[i] = "m" + string(rune('A'+i))
		if err := g.AddNode(fixedMAT(names[i], 0.1+0.3*rng.Float64())); err != nil {
			panic(err)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.35 {
				if err := g.AddEdge(names[i], names[j], tdg.DepMatch, rng.Intn(13)); err != nil {
					panic(err)
				}
			}
		}
	}
	return g
}

// randomTopo builds a random connected topology with p programmable
// switches.
func randomTopo(rng *rand.Rand, p int) *network.Topology {
	spec := network.SwitchSpec{
		Stages:               4 + rng.Intn(4),
		StageCapacity:        0.3 + 0.3*rng.Float64(),
		TransitLatency:       time.Microsecond,
		LinkLatencyMin:       time.Millisecond,
		LinkLatencyMax:       5 * time.Millisecond,
		ProgrammableFraction: 1.0,
	}
	nodes := p + rng.Intn(3)
	edges := nodes - 1 + rng.Intn(3)
	max := nodes * (nodes - 1) / 2
	if edges > max {
		edges = max
	}
	tp, err := network.RandomWAN("prop", nodes, edges, spec, rng.Int63())
	if err != nil {
		panic(err)
	}
	return tp
}

// TestGreedyPlansAlwaysValid: whatever random instance the greedy
// solves, the result satisfies every constraint of P#1.
func TestGreedyPlansAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	solved := 0
	for trial := 0; trial < 60; trial++ {
		g := randomDAG(rng, 3+rng.Intn(8))
		tp := randomTopo(rng, 2+rng.Intn(4))
		plan, err := (Greedy{ImproveBudget: 50 * time.Millisecond}).Solve(g, tp, Options{})
		if err != nil {
			continue // instance may be genuinely infeasible
		}
		solved++
		if err := plan.Validate(program.DefaultResourceModel, 0, 0); err != nil {
			t.Fatalf("trial %d: greedy plan invalid: %v\n%s", trial, err, g.DOT())
		}
		// The wire view never loses bytes relative to the pair view.
		if plan.MaxWireBytes() < plan.AMax() && plan.AMax() > 0 && len(plan.Routes) > 0 {
			t.Fatalf("trial %d: wire max %d below pair max %d", trial, plan.MaxWireBytes(), plan.AMax())
		}
	}
	if solved < 30 {
		t.Fatalf("only %d of 60 random instances solved; generator too harsh", solved)
	}
}

// TestSplitTDGPartitionInvariants: segments partition the node set and
// all edges flow forward across segments.
func TestSplitTDGPartitionInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		g := randomDAG(rng, 4+rng.Intn(10))
		sw := &network.Switch{
			Programmable: true, Stages: 4,
			StageCapacity: 0.3 + 0.2*rng.Float64(),
		}
		segs, err := SplitTDG(g, sw, program.DefaultResourceModel)
		if err != nil {
			continue
		}
		segOf := map[string]int{}
		total := 0
		for i, seg := range segs {
			for _, name := range seg.NodeNames() {
				if prev, dup := segOf[name]; dup {
					t.Fatalf("trial %d: MAT %q in segments %d and %d", trial, name, prev, i)
				}
				segOf[name] = i
				total++
			}
			// Every segment must satisfy the capacity test.
			if !CapacityFits(seg, program.DefaultResourceModel, sw) {
				t.Fatalf("trial %d: segment %d exceeds capacity", trial, i)
			}
		}
		if total != g.NumNodes() {
			t.Fatalf("trial %d: segments cover %d of %d MATs", trial, total, g.NumNodes())
		}
		for _, e := range g.Edges() {
			if segOf[e.From] > segOf[e.To] {
				t.Fatalf("trial %d: edge %s->%s goes backward (%d -> %d)",
					trial, e.From, e.To, segOf[e.From], segOf[e.To])
			}
		}
	}
}

// TestCapacitySplitMinimality: the DP split never uses more segments
// than the greedy first-fill bound, and matches brute force on small
// instances.
func TestCapacitySplitMinimality(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(6)
		g := randomDAG(rng, n)
		sw := &network.Switch{Programmable: true, Stages: 6, StageCapacity: 0.4}
		order, err := g.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		segs, err := newSplitScratch(g, order, sw, program.DefaultResourceModel).capacitySplit()
		if err != nil {
			continue
		}
		// Brute force minimal contiguous group count over the same topo
		// order, capacity-sum feasibility only (a lower bound on the
		// pack-feasible optimum, so dp must be >= it; and dp must be <=
		// first-fill).
		reqs := make([]float64, len(order))
		for i, name := range order {
			node, _ := g.Node(name)
			reqs[i] = program.DefaultResourceModel.Requirement(node.MAT)
		}
		lower := bruteMinGroups(reqs, sw.Capacity())
		if len(segs) < lower {
			t.Fatalf("trial %d: dp used %d segments, below brute-force lower bound %d", trial, len(segs), lower)
		}
		// First-fill upper bound with pack feasibility.
		ff := 1
		var cur []string
		for _, name := range order {
			cand := append(append([]string(nil), cur...), name)
			if FitsSwitch(g, cand, sw, program.DefaultResourceModel) {
				cur = cand
				continue
			}
			ff++
			cur = []string{name}
		}
		if len(segs) > ff {
			t.Fatalf("trial %d: dp used %d segments, first-fill needs only %d", trial, len(segs), ff)
		}
	}
}

// bruteMinGroups finds the minimal number of contiguous groups with sum
// <= cap by DP over weights only.
func bruteMinGroups(reqs []float64, cap float64) int {
	n := len(reqs)
	const inf = 1 << 30
	dp := make([]int, n+1)
	for i := 1; i <= n; i++ {
		dp[i] = inf
		sum := 0.0
		for j := i - 1; j >= 0; j-- {
			sum += reqs[j]
			if sum > cap+1e-9 {
				break
			}
			if dp[j]+1 < dp[i] {
				dp[i] = dp[j] + 1
			}
		}
	}
	return dp[n]
}

// TestExactMatchesGreedyOrBetterRandomized: on feasible random
// instances the proven-exact solver never reports a worse A_max.
func TestExactMatchesGreedyOrBetterRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		g := randomDAG(rng, 3+rng.Intn(4))
		tp := randomTopo(rng, 2+rng.Intn(2))
		gp, gerr := (Greedy{ImproveBudget: 50 * time.Millisecond}).Solve(g, tp, Options{})
		ep, eerr := (Exact{MaxNodes: 200000}).Solve(g, tp, Options{})
		if gerr != nil || eerr != nil {
			continue
		}
		if ep.Proven && ep.AMax() > gp.AMax() {
			t.Fatalf("trial %d: proven exact A_max %d worse than greedy %d", trial, ep.AMax(), gp.AMax())
		}
	}
}
