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
// for every repair instance). A candidate's
// weighted score reads the same delta overlay its structural score
// read (overlayMove/overlayPlace in compile.go, then weightedOver),
// built from the MAT's one gathered fold; everything stays
// allocation-free with caller-owned scratch. Map-based twins live in
// weighted_ref.go as differential oracles.
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

// trafficWeights routes the matrix's demands over topo and quantizes
// the resulting pair rates into the table of all of topo's switches;
// nil without a matrix. The matrix must cover topo's switch ID space.
func trafficWeights(tm *network.TrafficMatrix, topo *network.Topology) (*WeightTable, error) {
	if tm == nil {
		return nil, nil
	}
	rates, err := tm.PairRates(topo)
	if err != nil {
		return nil, err
	}
	return NewWeightTable(rates, int32(topo.NumSwitches())), nil
}

// Compact projects the table onto a host subset in host index order —
// a repair instance's switch space (hosts[i] is the switch behind host
// index i).
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

// weightedOver folds the delta overlay onto the pair table under the
// weight table: the weighted analog of maxOver, read from the overlay
// left in ms. The sum is maintained incrementally from curSum (only
// delta cells change); the max scans the pairs (weighted values have
// no histogram). Cells floor at zero on both sides, matching the map
// twins.
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
