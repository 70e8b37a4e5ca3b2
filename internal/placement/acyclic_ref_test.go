package placement

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
	"github.com/hermes-net/hermes/internal/workload"
)

// assignmentAcyclic reports whether the contracted switch graph of a
// (possibly partial) assignment is a DAG; unassigned MATs contribute no
// edges.
func assignmentAcyclic(g *tdg.Graph, assign map[string]network.SwitchID) bool {
	adj := map[network.SwitchID]map[network.SwitchID]bool{}
	indeg := map[network.SwitchID]int{}
	nodes := map[network.SwitchID]bool{}
	for _, u := range assign {
		nodes[u] = true
	}
	for _, e := range g.EdgeList() {
		ua, oka := assign[e.From]
		ub, okb := assign[e.To]
		if !oka || !okb || ua == ub {
			continue
		}
		if adj[ua] == nil {
			adj[ua] = map[network.SwitchID]bool{}
		}
		if !adj[ua][ub] {
			adj[ua][ub] = true
			indeg[ub]++
		}
	}
	var ready []network.SwitchID
	for u := range nodes {
		if indeg[u] == 0 {
			ready = append(ready, u)
		}
	}
	count := 0
	for len(ready) > 0 {
		u := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		count++
		for v := range adj[u] {
			indeg[v]--
			if indeg[v] == 0 {
				ready = append(ready, v)
			}
		}
	}
	return count == len(nodes)
}

// benchCorpus is one of the benchmark's four workloads, solved: its
// programs on its topology under the benchmark's solver and options.
type benchCorpus struct {
	name  string
	plan  *Plan
	ropts ReplanOptions
	solve Solver
}

// benchCorpora solves the benchmark's four workloads: wan30 (30
// evaluation programs on Table III WAN 1), composite60 (200 synthetic
// programs sharded 16 ways over CompositeWAN(60)), real_hotspot (the
// real programs at 0.1 stage capacity under the traffic-weighted max
// objective) and churn16 (16 synthetic programs at 0.3 stage capacity).
func benchCorpora(t *testing.T) []benchCorpus {
	t.Helper()
	graph := func(progs []*program.Program, err error) *tdg.Graph {
		if err != nil {
			t.Fatal(err)
		}
		g, err := analyzer.Analyze(progs, analyzer.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	wan := func(capacity float64) *network.Topology {
		spec := network.TofinoSpec()
		spec.StageCapacity = capacity
		topo, err := network.TableIII(1, spec)
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	topo60, err := network.CompositeWAN(60, network.TofinoSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	part, err := network.PartitionRegions(topo60, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	hot := wan(0.1)
	tm, err := network.GenerateTraffic(hot, network.TrafficHotspot, 1)
	if err != nil {
		t.Fatal(err)
	}
	var out []benchCorpus
	for _, c := range []struct {
		name  string
		g     *tdg.Graph
		topo  *network.Topology
		solve Solver
		ropts ReplanOptions
	}{
		{"wan30", graph(workload.EvaluationPrograms(30, 1)), wan(1), Greedy{}, ReplanOptions{}},
		{"composite60", graph(workload.SyntheticSet(200, workload.PaperSyntheticSpec(), 1)), topo60,
			ShardedGreedy{Partition: part}, ReplanOptions{Options: Options{Shards: 16, Workers: 1}, Partition: part}},
		{"real_hotspot", graph(workload.RealPrograms(), nil), hot, Greedy{},
			ReplanOptions{Options: Options{Traffic: tm, TrafficObjective: TrafficWeightedMax, AMaxSlack: 1.2}}},
		{"churn16", graph(workload.SyntheticSet(16, workload.PaperSyntheticSpec(), 1)), wan(0.3), Greedy{}, ReplanOptions{}},
	} {
		plan, err := c.solve.Solve(c.g, c.topo, c.ropts.Options)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		out = append(out, benchCorpus{c.name, plan, c.ropts, c.solve})
	}
	return out
}

// topHosts returns the k switches hosting the most MATs, ties by ID:
// the benchmark's drain targets.
func topHosts(p *Plan, k int) []network.SwitchID {
	load := map[network.SwitchID]int{}
	for _, u := range p.Hosts() {
		if u >= 0 {
			load[u]++
		}
	}
	ids := make([]network.SwitchID, 0, len(load))
	for u := range load {
		ids = append(ids, u)
	}
	slices.SortFunc(ids, func(a, b network.SwitchID) int {
		if load[a] != load[b] {
			return load[b] - load[a]
		}
		return int(a - b)
	})
	return ids[:min(k, len(ids))]
}

// nameAssign is a by-id assignment as the name map assignmentAcyclic
// reads.
func nameAssign(g *tdg.Graph, byID []network.SwitchID) map[string]network.SwitchID {
	out := make(map[string]network.SwitchID, len(byID))
	for id, u := range byID {
		if u >= 0 {
			out[g.NodeOf(int32(id)).Name()] = u
		}
	}
	return out
}

// TestHostsAcyclicMatchesReference holds the repair's acyclicity proof
// on dense switch ids to the name-keyed assignmentAcyclic it replaced:
// the same verdict on the benchmark's four corpora as solved and after
// draining each of their five busiest switches, on a Greedy plan per
// Table III WAN 1–10, and on seeded tamperings of each — partial
// assignments, and MATs moved onto random used switches, which close
// cycles in the contraction.
func TestHostsAcyclicMatchesReference(t *testing.T) {
	var plans []*Plan
	var labels []string
	add := func(label string, p *Plan) {
		plans = append(plans, p)
		labels = append(labels, label)
	}
	for _, c := range benchCorpora(t) {
		add(c.name, c.plan)
		for _, sw := range topHosts(c.plan, 5) {
			next, _, err := ReplanWithOptions(c.plan, c.solve, c.ropts, sw)
			if err != nil {
				t.Fatalf("%s: drain %d: %v", c.name, sw, err)
			}
			add(fmt.Sprintf("%s/drain=%d", c.name, sw), next)
		}
	}
	for i := 1; i <= 10; i++ {
		plan, _ := tableIIIInstance(t, i, 30)
		add(fmt.Sprintf("table3:%d", i), plan)
	}
	rng := rand.New(rand.NewSource(1))
	verdicts := map[bool]int{}
	check := func(label string, g *tdg.Graph, byID []network.SwitchID, s int) {
		t.Helper()
		got, want := hostsAcyclic(g, byID, s), assignmentAcyclic(g, nameAssign(g, byID))
		if got != want {
			t.Fatalf("%s: hostsAcyclic = %v, assignmentAcyclic = %v", label, got, want)
		}
		verdicts[got]++
	}
	for i, p := range plans {
		s := p.Topo.NumSwitches()
		check(labels[i], p.Graph, p.Hosts(), s)
		used := p.UsedSwitches()
		for trial := 0; trial < 4; trial++ {
			byID := slices.Clone(p.Hosts())
			for id := range byID {
				switch r := rng.Intn(40); {
				case r == 0:
					byID[id] = -1
				case r == 1 && trial > 0:
					byID[id] = used[rng.Intn(len(used))]
				}
			}
			check(fmt.Sprintf("%s/tamper=%d", labels[i], trial), p.Graph, byID, s)
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("the corpus must reach both verdicts, got %v", verdicts)
	}
}
