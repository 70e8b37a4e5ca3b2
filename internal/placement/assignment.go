package placement

import (
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/tdg"
)

// sameMATSet reports whether two TDGs describe the same MAT set by
// name. Diff needs real identity, not just equal node counts.
func sameMATSet(a, b *tdg.Graph) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.NumNodes() != b.NumNodes() {
		return false
	}
	for _, name := range a.NodeNames() {
		if _, ok := b.Node(name); !ok {
			return false
		}
	}
	return true
}

// assignmentAMax computes Eq. 1 for a switch-level assignment without
// materializing a plan: the maximum per-ordered-pair cross bytes. MATs
// missing from the assignment are ignored (partial assignments appear
// mid-repair).
func assignmentAMax(g *tdg.Graph, assign map[string]network.SwitchID) int {
	pair := map[RouteKey]int{}
	max := 0
	for _, e := range g.EdgeList() {
		ua, oka := assign[e.From]
		ub, okb := assign[e.To]
		if !oka || !okb || ua == ub {
			continue
		}
		k := RouteKey{From: ua, To: ub}
		pair[k] += e.MetadataBytes
		if pair[k] > max {
			max = pair[k]
		}
	}
	return max
}

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
