package placement

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

// packMemoEntry is a cached PackStages outcome, stored in the graph's
// derived-result memo. The map and its PerStage slices are shared
// read-only; PackStages hands callers a fresh top-level map so the
// cached copy cannot be grown or overwritten.
type packMemoEntry struct {
	out map[string]StagePlacement
	err error
}

// packKey canonically identifies a packing instance: the topo-ordered
// MAT set, the switch's shape (ID, stages, per-stage capacity), and the
// resource model. The graph's structure and MAT requirements are
// captured by the memo's host graph, which drops the memo on mutation.
func packKey(ordered []string, sw *network.Switch, rm program.ResourceModel) string {
	var b strings.Builder
	n := 64
	for _, s := range ordered {
		n += len(s) + 1
	}
	b.Grow(n)
	for _, n := range ordered {
		b.WriteString(n)
		b.WriteByte(0x1f)
	}
	b.WriteString(strconv.Itoa(int(sw.ID)))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(sw.Stages))
	b.WriteByte('|')
	b.WriteString(strconv.FormatFloat(sw.StageCapacity, 'g', -1, 64))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(rm.SRAMBytesPerStage))
	b.WriteByte('|')
	b.WriteString(strconv.FormatFloat(rm.TCAMFactor, 'g', -1, 64))
	b.WriteByte('|')
	b.WriteString(strconv.FormatFloat(rm.ALUWeight, 'g', -1, 64))
	b.WriteByte('|')
	b.WriteString(strconv.FormatFloat(rm.MinCost, 'g', -1, 64))
	return b.String()
}

// PackStages places the named MATs onto the pipeline stages of a single
// switch. MATs are processed in topological order of the induced
// subgraph; each MAT starts no earlier than one stage past the last
// stage of any same-switch predecessor (Eq. 8, enforced for every
// dependency type, matching the paper), and its requirement R(a) is
// spread over stages without exceeding the per-stage capacity (Eq. 9).
// A MAT may span non-consecutive stages when intermediate stages are
// full; ρ_begin/ρ_end bracket the span.
//
// It returns the per-MAT placements, or an error when the switch cannot
// host the set.
func PackStages(g *tdg.Graph, names []string, sw *network.Switch, rm program.ResourceModel) (map[string]StagePlacement, error) {
	out, err := packShared(g, names, sw, rm)
	if err != nil {
		return nil, err
	}
	fresh := make(map[string]StagePlacement, len(out))
	for n, sp := range out {
		fresh[n] = sp
	}
	return fresh, nil
}

// packShared is PackStages without the defensive top-level copy: the
// returned map aliases the memo entry and must be treated as read-only
// (the StagePlacement values and their PerStage slices are shared
// exactly as PackStages shares them). Internal callers that only read
// the result — FitsSwitch, candidate evaluation, materialization — use
// this path to keep the memo hit allocation-free.
func packShared(g *tdg.Graph, names []string, sw *network.Switch, rm program.ResourceModel) (map[string]StagePlacement, error) {
	if sw == nil {
		return nil, fmt.Errorf("placement: pack on nil switch")
	}
	if !sw.Programmable {
		return nil, fmt.Errorf("placement: switch %q is not programmable", sw.Name)
	}
	// Canonicalize the packing order: a subset of the parent's cached
	// topological order is a topological order of the induced subgraph,
	// so no subgraph needs to be built (this function dominates solver
	// profiles otherwise).
	pos, err := g.TopoIndex()
	if err != nil {
		return nil, fmt.Errorf("placement: %w", err)
	}
	ordered := append([]string(nil), names...)
	for _, n := range ordered {
		if _, ok := g.Node(n); !ok {
			return nil, fmt.Errorf("placement: pack of unknown MAT %q", n)
		}
	}
	sort.Slice(ordered, func(i, j int) bool { return pos[ordered[i]] < pos[ordered[j]] })

	// Candidate evaluation re-packs the same (MAT set, switch) pairs
	// constantly during local search and capacity splitting; memoize the
	// outcome on the graph (cleared whenever the graph mutates).
	key := packKey(ordered, sw, rm)
	if v, ok := g.Memo(key); ok {
		ent := v.(packMemoEntry)
		return ent.out, ent.err
	}
	out, err := packOrdered(g, ordered, sw, rm)
	g.MemoSet(key, packMemoEntry{out: out, err: err})
	return out, err
}

// packOrdered is the uncached packing pass over an already
// topo-ordered MAT list.
func packOrdered(g *tdg.Graph, ordered []string, sw *network.Switch, rm program.ResourceModel) (map[string]StagePlacement, error) {
	used := make([]float64, sw.Stages)
	out := make(map[string]StagePlacement, len(ordered))
	const tol = 1e-9

	for _, name := range ordered {
		node, _ := g.Node(name)
		req := rm.Requirement(node.MAT)
		earliest := 0
		for _, e := range g.InEdgeList(name) {
			if pred, ok := out[e.From]; ok && pred.End+1 > earliest {
				earliest = pred.End + 1
			}
		}
		if earliest >= sw.Stages {
			return nil, fmt.Errorf("placement: MAT %q needs stage >= %d but switch %q has %d stages",
				name, earliest, sw.Name, sw.Stages)
		}
		// Spread req across stages from earliest on.
		var perStage []float64
		start, end := -1, -1
		rem := req
		for s := earliest; s < sw.Stages && rem > tol; s++ {
			avail := sw.StageCapacity - used[s]
			if avail <= tol {
				if start >= 0 {
					perStage = append(perStage, 0)
				}
				continue
			}
			chunk := avail
			if rem < chunk {
				chunk = rem
			}
			if start < 0 {
				start = s
			}
			end = s
			perStage = append(perStage, chunk)
			used[s] += chunk
			rem -= chunk
		}
		if rem > tol {
			return nil, fmt.Errorf("placement: MAT %q (R=%g) does not fit on switch %q from stage %d",
				name, req, sw.Name, earliest)
		}
		// Trim trailing zero padding (from skipped-full stages after the
		// last chunk).
		perStage = perStage[:end-start+1]
		out[name] = StagePlacement{Switch: sw.ID, Start: start, End: end, PerStage: perStage}
	}
	return out, nil
}

// FitsSwitch reports whether the named MATs can be packed on the switch
// (a full packing attempt, not just the capacity sum of Alg. 2 line 2).
func FitsSwitch(g *tdg.Graph, names []string, sw *network.Switch, rm program.ResourceModel) bool {
	_, err := packShared(g, names, sw, rm)
	return err == nil
}

// CapacityFits is the cheap test of Alg. 2 line 2: ΣR(a) ≤ C_stage·C_res.
func CapacityFits(g *tdg.Graph, rm program.ResourceModel, sw *network.Switch) bool {
	return g.TotalRequirement(rm) <= sw.Capacity()+1e-9
}

// packStep is packOrdered's per-MAT arithmetic on a bare occupancy row:
// spread one requirement over the stages from earliest on, skipping full
// stages, and return the last stage used (-1 when the requirement is
// within tolerance of zero and no stage is touched). It is the one
// packing step behind both dense forms — splitScratch.fits over a range
// of the topological order and repairInstance.packs over a resident set
// — which differ only in how they find a MAT's packed predecessors. ok
// is false when the MAT does not fit; used is then partially updated.
func packStep(used []float64, stageCap, req float64, earliest int) (end int, ok bool) {
	const tol = 1e-9
	if earliest >= len(used) {
		return -1, false
	}
	end = -1
	for s := earliest; s < len(used) && req > tol; s++ {
		avail := stageCap - used[s]
		if avail <= tol {
			continue
		}
		chunk := min(avail, req)
		end = s
		used[s] += chunk
		req -= chunk
	}
	return end, req <= tol
}

// fits reports whether order[lo:hi] packs onto the reference switch —
// the same verdict as FitsSwitch on that range, without names, keys, or
// maps (compile_test.go holds them differential). Alg. 2 probes O(n²)
// such ranges per solve; through the name-keyed memo each costs a key
// build, a sort and a map probe even on a hit. A contiguous slice of a
// topological order is already in PackStages' canonical order.
func (sp *splitScratch) fits(lo, hi int) bool {
	clear(sp.used)
	//hermes:hot
	for k := lo; k < hi; k++ {
		earliest := 0
		for _, p := range sp.in[k] {
			// Predecessors precede k in topo order, so p.pos < k always;
			// p is in the packed set exactly when lo <= p.pos.
			if int(p.pos) >= lo && int(sp.end[p.pos])+1 > earliest {
				earliest = int(sp.end[p.pos]) + 1
			}
		}
		end, ok := packStep(sp.used, sp.stageCap, sp.req[k], earliest)
		if !ok {
			return false
		}
		sp.end[k] = int32(end)
	}
	return true
}
