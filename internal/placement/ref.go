// Map-based reference scorers. These are the pre-compilation
// implementations of the scoring hot paths, retained verbatim as
// differential oracles: the property tests assert that every compiled
// kernel in compile.go agrees with its reference twin bit-for-bit, and
// cmd/hermes-bench measures both sides for the BENCH_core.json
// baseline. They are not called on any solver hot path.
package placement

import (
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/tdg"
)

// AssignmentAMaxRef is Eq. 1 over a name-keyed assignment via a
// freshly built pair map — the reference twin of
// CompiledInstance.AssignmentAMax.
func AssignmentAMaxRef(g *tdg.Graph, assign map[string]network.SwitchID) int {
	return assignmentAMax(g, assign)
}

// PlaceScoreRef scores placing the currently-unassigned MAT on switch
// u through the map-based delta overlay — the reference twin of
// CompiledInstance.PlaceScore: the MAT's incident edges toward assigned
// peers land in the delta scratch (caller-owned, contents discarded),
// which is then overlaid on the pair table.
func PlaceScoreRef(g *tdg.Graph, assign map[string]network.SwitchID, pair, delta map[RouteKey]int, name string, u network.SwitchID) int {
	for k := range delta {
		delete(delta, k)
	}
	for _, e := range g.OutEdges(name) {
		if peer, ok := assign[e.To]; ok && peer != u {
			delta[RouteKey{From: u, To: peer}] += e.MetadataBytes
		}
	}
	for _, e := range g.InEdges(name) {
		if peer, ok := assign[e.From]; ok && peer != u {
			delta[RouteKey{From: peer, To: u}] += e.MetadataBytes
		}
	}
	max := 0
	for k, b := range pair {
		if d, ok := delta[k]; ok {
			b += d
		}
		if b > max {
			max = b
		}
	}
	for k, d := range delta {
		if _, ok := pair[k]; !ok && d > max {
			max = d
		}
	}
	return max
}

// MoveScoreRef evaluates the absolute (A_max, total cross bytes) of
// the assignment with one MAT moved to cand and everything else fixed,
// through the map-based delta overlay the local-improve climb used
// before compilation — the reference twin of
// CompiledInstance.MoveScore. Every MAT incident to name must be
// assigned; total is the current total cross bytes matching (assign,
// pair); delta is caller scratch (contents discarded).
func MoveScoreRef(g *tdg.Graph, assign map[string]network.SwitchID, pair, delta map[RouteKey]int, total int, name string, cand network.SwitchID) (int, int) {
	for k := range delta {
		delete(delta, k)
	}
	cross := total
	old := assign[name]
	shift := func(peer network.SwitchID, oldKey, newKey RouteKey, bytes int) {
		if peer != old {
			delta[oldKey] -= bytes
			cross -= bytes
		}
		if peer != cand {
			delta[newKey] += bytes
			cross += bytes
		}
	}
	for _, e := range g.OutEdges(name) {
		peer := assign[e.To]
		shift(peer,
			RouteKey{From: old, To: peer},
			RouteKey{From: cand, To: peer},
			e.MetadataBytes)
	}
	for _, e := range g.InEdges(name) {
		peer := assign[e.From]
		shift(peer,
			RouteKey{From: peer, To: old},
			RouteKey{From: peer, To: cand},
			e.MetadataBytes)
	}
	max := 0
	for k, b := range pair {
		if d, ok := delta[k]; ok {
			b += d
		}
		if b > max {
			max = b
		}
	}
	for k, d := range delta {
		if _, ok := pair[k]; !ok && d > max {
			max = d
		}
	}
	return max, cross
}

// PairBytesRef rebuilds the name-keyed pair map of an assignment — the
// reference twin of CompiledInstance.FillPairTable. It returns the map
// and the total cross bytes.
func PairBytesRef(g *tdg.Graph, assign map[string]network.SwitchID) (map[RouteKey]int, int) {
	pair := map[RouteKey]int{}
	total := 0
	for _, e := range g.EdgeList() {
		ua, oka := assign[e.From]
		ub, okb := assign[e.To]
		if oka && okb && ua != ub {
			pair[RouteKey{From: ua, To: ub}] += e.MetadataBytes
			total += e.MetadataBytes
		}
	}
	return pair, total
}
