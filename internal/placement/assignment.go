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
	ia, ib := a.Index(), b.Index()
	for k, id := range ia.ByName {
		if ia.Names[id] != ib.Names[ib.ByName[k]] {
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
