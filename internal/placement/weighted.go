// Traffic-weighted scoring kernels (DESIGN.md §13). The structural
// objective A_max (Eq. 1) charges every switch pair the same; the
// weighted objective charges a pair by the packet rate that actually
// crosses it, so the solvers minimize
//
//	W_sum = Σ_{u≠v} w(u,v)·A(u,v)   (TrafficWeightedSum)
//	W_max = max_{u≠v} w(u,v)·A(u,v) (TrafficWeightedMax)
//
// subject to the same Eq. 4–9 constraints, plus a guard that the
// structural A_max never inflates beyond Options.AMaxSlack of the
// solve's own structural optimum. Weights are a dense S×S fixed-point
// table compiled once from a network.TrafficMatrix (host-compacted
// for the sharded exchange); the kernels mirror the MoveScore/
// PlaceScore loop shapes in compile.go and stay allocation-free with
// caller-owned scratch. Map-based twins live in weighted_ref.go as
// differential oracles.
package placement

import (
	"fmt"
	"math"

	"github.com/hermes-net/hermes/internal/network"
)

// TrafficObjective selects which weighted aggregate the solvers
// minimize when Options.Traffic is set.
type TrafficObjective int

const (
	// TrafficWeightedSum minimizes Σ w(u,v)·A(u,v) — total coordination
	// byte-rate across the network. The default.
	TrafficWeightedSum TrafficObjective = iota
	// TrafficWeightedMax minimizes max w(u,v)·A(u,v) — the hot-pair
	// coordination byte-rate.
	TrafficWeightedMax
)

// String implements fmt.Stringer.
func (o TrafficObjective) String() string {
	switch o {
	case TrafficWeightedSum:
		return "sum"
	case TrafficWeightedMax:
		return "max"
	default:
		return fmt.Sprintf("TrafficObjective(%d)", int(o))
	}
}

// ParseTrafficObjective converts the CLI spelling of an objective.
func ParseTrafficObjective(s string) (TrafficObjective, error) {
	switch s {
	case "sum", "":
		return TrafficWeightedSum, nil
	case "max":
		return TrafficWeightedMax, nil
	default:
		return 0, fmt.Errorf("placement: unknown traffic objective %q (want sum or max)", s)
	}
}

// weightScale is the fixed-point resolution of the weight table: the
// hottest pair maps to 1<<20, so int64 products w·bytes stay exact and
// far from overflow (≤ 2^20 · 2^31), and every solve is deterministic
// regardless of float scheduling.
const weightScale = 1 << 20

// WeightTable is the dense S×S fixed-point pair-weight table in the
// same flat cell space as PairTable. Every off-diagonal cell holds at
// least 1: a pair with no crossing packets is never free (coordination
// headers still need carrier packets), it is just 2^20× cheaper than
// the hottest pair. Immutable after construction; safe for concurrent
// use.
type WeightTable struct {
	S int32
	W []int64
}

// NewWeightTable quantizes a dense S×S pair-rate table (the
// network.TrafficMatrix.PairRates layout) into fixed point.
func NewWeightTable(rates []float64, s int32) *WeightTable {
	wt := &WeightTable{S: s, W: make([]int64, int(s)*int(s))}
	maxRate := 0.0
	for _, r := range rates {
		if r > maxRate {
			maxRate = r
		}
	}
	for i := range wt.W {
		w := int64(1)
		if maxRate > 0 && i < len(rates) {
			if q := int64(math.Round(rates[i] / maxRate * weightScale)); q > w {
				w = q
			}
		}
		wt.W[i] = w
	}
	return wt
}

// CompileWeights routes the matrix's demands over the instance's
// topology and quantizes the resulting pair rates. The matrix must
// cover the instance's switch ID space.
func (ci *CompiledInstance) CompileWeights(tm *network.TrafficMatrix) (*WeightTable, error) {
	rates, err := tm.PairRates(ci.Topo)
	if err != nil {
		return nil, err
	}
	return NewWeightTable(rates, ci.S), nil
}

// Compact projects the table onto a host subset in host index order —
// the shard exchange's compacted space (hosts[i] is the global switch
// behind host index i).
func (wt *WeightTable) Compact(hosts []network.SwitchID) *WeightTable {
	h := int32(len(hosts))
	out := &WeightTable{S: h, W: make([]int64, int(h)*int(h))}
	for i, gi := range hosts {
		for j, gj := range hosts {
			out.W[int32(i)*h+int32(j)] = wt.W[int32(gi)*wt.S+int32(gj)]
		}
	}
	return out
}

// WeightMap decodes the table into the boundary representation for the
// differential twins in weighted_ref.go.
func (wt *WeightTable) WeightMap() map[RouteKey]int64 {
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

// Score aggregates the weighted objective over a pair table: the sum
// Σ w·A and the max w·A over the touched cells (decayed cells floor at
// zero, exactly like PairTable.Max).
func (wt *WeightTable) Score(pt *PairTable) (sum, max int64) {
	//hermes:hot
	for _, k := range pt.Keys() {
		b := pt.Cells[k]
		if b <= 0 {
			continue
		}
		v := wt.W[k] * int64(b)
		sum += v
		if v > max {
			max = v
		}
	}
	return sum, max
}

// AssignmentWeighted is the weighted objective of a dense assignment
// from scratch: the compiled twin of AssignmentWeightedRef. pt is
// caller-owned scratch (left holding the assignment's pair bytes).
func (ci *CompiledInstance) AssignmentWeighted(assign []int32, pt *PairTable, wt *WeightTable) (sum, max int64) {
	ci.FillPairTable(assign, pt)
	return wt.Score(pt)
}

// MoveScoreWeighted computes the weighted objective (sum and max) of
// the assignment with MAT x moved to switch c and everything else
// fixed, without mutating any state: the weighted companion of
// MoveScore and the compiled twin of MoveScoreWeightedRef. curSum is
// the current weighted sum matching (assign, pt); ms is caller scratch
// (contents discarded). O(deg(x) + pairs), allocation-free.
func (ci *CompiledInstance) MoveScoreWeighted(assign []int32, pt *PairTable, ms *MoveScratch, wt *WeightTable, x, c int32, curSum int64) (sum, max int64) {
	ms.reset()
	old := assign[x]
	s := pt.S
	//hermes:hot
	for _, ei := range ci.Incident[x] {
		var peer, oldCell, newCell int32
		if ci.EdgeFrom[ei] == x {
			peer = assign[ci.EdgeTo[ei]]
			oldCell = old*s + peer
			newCell = c*s + peer
		} else {
			peer = assign[ci.EdgeFrom[ei]]
			oldCell = peer*s + old
			newCell = peer*s + c
		}
		b := ci.EdgeBytes[ei]
		if peer != old {
			ms.add(oldCell, -b)
		}
		if peer != c {
			ms.add(newCell, b)
		}
	}
	return ms.weightedOver(pt, wt, curSum)
}

// PlaceScoreWeighted computes the weighted objective that results from
// placing the currently-unassigned MAT x on switch u, everything else
// fixed: the weighted companion of PlaceScore and the compiled twin of
// PlaceScoreWeightedRef. Edges to still-unassigned peers contribute
// nothing. curSum is the weighted sum matching (assign, pt).
func (ci *CompiledInstance) PlaceScoreWeighted(assign []int32, pt *PairTable, ms *MoveScratch, wt *WeightTable, x, u int32, curSum int64) (sum, max int64) {
	ms.reset()
	s := pt.S
	//hermes:hot
	for _, ei := range ci.Out[x] {
		if peer := assign[ci.EdgeTo[ei]]; peer >= 0 && peer != u {
			ms.add(u*s+peer, ci.EdgeBytes[ei])
		}
	}
	//hermes:hot
	for _, ei := range ci.In[x] {
		if peer := assign[ci.EdgeFrom[ei]]; peer >= 0 && peer != u {
			ms.add(peer*s+u, ci.EdgeBytes[ei])
		}
	}
	return ms.weightedOver(pt, wt, curSum)
}

// weightedOver folds the delta overlay onto the pair table under the
// weight table: the weighted analog of maxOver. The sum is maintained
// incrementally from curSum (only delta cells change); the max needs
// the same O(pairs) scan as maxOver. Cells floor at zero on both
// sides, matching the map twins.
func (ms *MoveScratch) weightedOver(pt *PairTable, wt *WeightTable, curSum int64) (sum, max int64) {
	sum = curSum
	//hermes:hot
	for _, k := range ms.keys {
		old := pt.Cells[k]
		if old < 0 {
			old = 0
		}
		nb := pt.Cells[k] + ms.delta[k]
		if nb < 0 {
			nb = 0
		}
		sum += wt.W[k] * int64(nb-old)
	}
	//hermes:hot
	for _, k := range pt.keys {
		v := pt.Cells[k] + ms.delta[k]
		if v <= 0 {
			continue
		}
		if wv := wt.W[k] * int64(v); wv > max {
			max = wv
		}
	}
	//hermes:hot
	for _, k := range ms.keys {
		if pt.inKeys[k] || ms.delta[k] <= 0 {
			continue
		}
		if wv := wt.W[k] * int64(ms.delta[k]); wv > max {
			max = wv
		}
	}
	return sum, max
}

// objective picks the aggregate the options ask for.
func (o TrafficObjective) pick(sum, max int64) int64 {
	if o == TrafficWeightedMax {
		return max
	}
	return sum
}
