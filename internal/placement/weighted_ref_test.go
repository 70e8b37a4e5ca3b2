// Map-based reference twins of the weighted scoring kernels in
// weighted.go, in the style of ref.go: the property tests assert the
// compiled kernels agree with these bit-for-bit. Tests are their only
// callers.
package placement

import (
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/tdg"
)

// AssignmentWeightedRef is the weighted objective of a name-keyed
// assignment via a freshly built pair map — the reference twin of
// assignmentWeighted. weights follows the weightMap convention (absent
// keys weigh zero).
func AssignmentWeightedRef(g *tdg.Graph, assign map[string]network.SwitchID, weights map[RouteKey]int64) (sum, max int64) {
	pair, _ := PairBytesRef(g, assign)
	for k, b := range pair {
		if b <= 0 {
			continue
		}
		v := weights[k] * int64(b)
		sum += v
		if v > max {
			max = v
		}
	}
	return sum, max
}

// MoveScoreWeightedRef evaluates the weighted objective of the
// assignment with one MAT moved to cand and everything else fixed,
// through the map-based delta overlay — the reference twin of the
// weighted read of CompiledInstance.MoveScore's overlay (MoveScore,
// then MoveScratch.weightedOver). Every MAT incident to name must
// be assigned; pair must match assign; delta is caller scratch
// (contents discarded).
func MoveScoreWeightedRef(g *tdg.Graph, assign map[string]network.SwitchID, pair, delta map[RouteKey]int, weights map[RouteKey]int64, name string, cand network.SwitchID) (sum, max int64) {
	for k := range delta {
		delete(delta, k)
	}
	old := assign[name]
	shift := func(peer network.SwitchID, oldKey, newKey RouteKey, bytes int) {
		if peer != old {
			delta[oldKey] -= bytes
		}
		if peer != cand {
			delta[newKey] += bytes
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
	return weightedOverRef(pair, delta, weights)
}

// PlaceScoreWeightedRef scores placing the currently-unassigned MAT on
// switch u under the weighted objective — the reference twin of the
// weighted read of CompiledInstance.PlaceScore's overlay.
func PlaceScoreWeightedRef(g *tdg.Graph, assign map[string]network.SwitchID, pair, delta map[RouteKey]int, weights map[RouteKey]int64, name string, u network.SwitchID) (sum, max int64) {
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
	return weightedOverRef(pair, delta, weights)
}

// weightedOverRef folds a delta overlay onto a pair map under the
// weights, flooring cells at zero on both sides.
func weightedOverRef(pair, delta map[RouteKey]int, weights map[RouteKey]int64) (sum, max int64) {
	for k, b := range pair {
		if d, ok := delta[k]; ok {
			b += d
		}
		if b <= 0 {
			continue
		}
		v := weights[k] * int64(b)
		sum += v
		if v > max {
			max = v
		}
	}
	for k, d := range delta {
		if _, ok := pair[k]; ok || d <= 0 {
			continue
		}
		v := weights[k] * int64(d)
		sum += v
		if v > max {
			max = v
		}
	}
	return sum, max
}

// weightMap decodes a weight table into the boundary representation of
// the twins above.
func weightMap(wt *WeightTable) map[RouteKey]int64 {
	out := make(map[RouteKey]int64, len(wt.W))
	for u := int32(0); u < wt.S; u++ {
		for v := int32(0); v < wt.S; v++ {
			if u != v {
				out[RouteKey{From: network.SwitchID(u), To: network.SwitchID(v)}] = wt.W[u*wt.S+v]
			}
		}
	}
	return out
}

// assignmentWeighted is the weighted objective of a dense assignment
// from scratch, through the compiled kernels: the twin of
// AssignmentWeightedRef. pt is caller-owned scratch (left holding the
// assignment's pair bytes).
func assignmentWeighted(ci *CompiledInstance, assign []int32, pt *PairTable, wt *WeightTable) (sum, max int64) {
	ci.FillPairTable(assign, pt)
	return wt.Score(pt)
}
