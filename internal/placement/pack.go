package placement

import (
	"cmp"
	"fmt"
	"slices"
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
// the result — FitsSwitch, candidate evaluation — use this path to keep
// the memo hit allocation-free.
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
	// profiles otherwise). Each name is resolved to its node id once and
	// the ids sort by topological position.
	if _, err := g.TopoIDs(); err != nil {
		return nil, fmt.Errorf("placement: %w", err)
	}
	gi := indexOf(g, rm)
	ids := make([]int32, len(names))
	for i, n := range names {
		id, ok := g.ID(n)
		if !ok {
			return nil, fmt.Errorf("placement: pack of unknown MAT %q", n)
		}
		ids[i] = id
	}
	slices.SortFunc(ids, func(a, b int32) int { return cmp.Compare(gi.Pos[a], gi.Pos[b]) })
	ordered := make([]string, len(ids))
	for i, id := range ids {
		ordered[i] = gi.Names[id]
	}

	// Candidate evaluation re-packs the same (MAT set, switch) pairs
	// constantly during local search and capacity splitting; memoize the
	// outcome on the graph (cleared whenever the graph mutates).
	key := packKey(ordered, sw, rm)
	if v, ok := g.Memo(key); ok {
		ent := v.(packMemoEntry)
		return ent.out, ent.err
	}
	out, err := packSet(g, gi, ids, sw)
	g.MemoSet(key, packMemoEntry{out: out, err: err})
	return out, err
}

// packSet packs the MAT set ids, node ids in topological order, onto a
// programmable switch. A predecessor counts when it is in the set,
// found by binary search on topological position.
func packSet(g *tdg.Graph, gi *graphIndex, ids []int32, sw *network.Switch) (map[string]StagePlacement, error) {
	used := make([]float64, sw.Stages)
	ends := make([]int32, len(ids))
	arena := make([]float64, 0, len(ids))
	out := make(map[string]StagePlacement, len(ids))
	byPos := func(id, pos int32) int { return cmp.Compare(gi.Pos[id], pos) }
	for i, id := range ids {
		earliest := 0
		for _, e := range g.InEdgesOf(id) {
			from, _ := e.Endpoints()
			if j, in := slices.BinarySearchFunc(ids[:i], gi.Pos[from], byPos); in && int(ends[j])+1 > earliest {
				earliest = int(ends[j]) + 1
			}
		}
		sp, err := stagePlacement(used, sw, gi.Names[id], gi.req[id], earliest, &arena)
		if err != nil {
			return nil, err
		}
		ends[i] = int32(sp.End)
		out[gi.Names[id]] = sp
	}
	return out, nil
}

// stagePlacement places one MAT of requirement req on sw no earlier
// than stage earliest, charging used: packStep's arithmetic, recording
// the chunk it charges per stage from the first stage used on (a zero
// for each full stage skipped past that one) in a PerStage carved from
// arena. It is the per-MAT step of every materialization, of PackStages
// and of Alg. 2's anchor check, and its errors name the MAT and the
// switch.
func stagePlacement(used []float64, sw *network.Switch, name string, req float64, earliest int, arena *[]float64) (StagePlacement, error) {
	const tol = 1e-9
	if earliest >= sw.Stages {
		return StagePlacement{}, fmt.Errorf("placement: MAT %q needs stage >= %d but switch %q has %d stages",
			name, earliest, sw.Name, sw.Stages)
	}
	buf := *arena
	base := len(buf)
	start, end := -1, -1
	rem := req
	for s := earliest; s < sw.Stages && rem > tol; s++ {
		avail := sw.StageCapacity - used[s]
		if avail <= tol {
			if start >= 0 {
				buf = append(buf, 0)
			}
			continue
		}
		chunk := min(avail, rem)
		if start < 0 {
			start = s
		}
		end = s
		buf = append(buf, chunk)
		used[s] += chunk
		rem -= chunk
	}
	if rem > tol {
		*arena = buf[:base]
		return StagePlacement{}, fmt.Errorf("placement: MAT %q (R=%g) does not fit on switch %q from stage %d",
			name, req, sw.Name, earliest)
	}
	// Trim trailing zero padding (from skipped-full stages after the
	// last chunk).
	k := base + end - start + 1
	*arena = buf[:k]
	return StagePlacement{Switch: sw.ID, Start: start, End: end, PerStage: buf[base:k:k]}, nil
}

// FitsSwitch reports whether the named MATs can be packed on the switch
// (a full packing attempt, not just the capacity sum of Alg. 2 line 2).
func FitsSwitch(g *tdg.Graph, names []string, sw *network.Switch, rm program.ResourceModel) bool {
	_, err := packShared(g, names, sw, rm)
	return err == nil
}

// packStep is stagePlacement's arithmetic on a bare occupancy row:
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
		sp.steps++
		end, ok := packStep(sp.used, sp.stageCap, sp.req[k], earliest)
		if !ok {
			return false
		}
		sp.end[k] = int32(end)
	}
	return true
}

// materializeAssignment packs a switch-level assignment, indexed by
// node id, into stages and adds routes.
func materializeAssignment(g *tdg.Graph, topo *network.Topology, byID []network.SwitchID, rm program.ResourceModel) (*Plan, error) {
	plan, err := packAssignment(g, topo, byID, rm)
	if err != nil {
		return nil, err
	}
	if err := addRoutesForCrossPairs(plan); err != nil {
		return nil, err
	}
	return plan, nil
}

// packAssignment is materializeAssignment minus the routes: per-switch
// stage packing of a MAT→switch assignment indexed by node id (-1: not
// placed). The regional replan splits the two so it can reuse the
// pre-drain plan's routes instead of re-running shortest paths for
// every surviving pair. The ids are bucketed per switch in topological
// order by one counting sort, each switch is packed in ascending ID
// order with a predecessor's last stage read from the plan's by-id
// store, and each placement is written into that store and into
// Plan.Assignments once: no name is resolved and no per-switch map is
// built.
func packAssignment(g *tdg.Graph, topo *network.Topology, byID []network.SwitchID, rm program.ResourceModel) (*Plan, error) {
	if _, err := g.TopoIDs(); err != nil {
		return nil, fmt.Errorf("placement: materializing assignment: placement: %w", err)
	}
	gi := indexOf(g, rm)
	ns := topo.NumSwitches()
	next := make([]int32, ns+1)
	placed, used := 0, 0
	for _, u := range byID {
		if u < 0 {
			continue
		}
		if int(u) >= ns {
			_, err := topo.Switch(u)
			return nil, err
		}
		if next[u+1] == 0 {
			used++
		}
		next[u+1]++
		placed++
	}
	for u := 0; u < ns; u++ {
		next[u+1] += next[u]
	}
	bucket := make([]int32, placed)
	//hermes:hot
	for _, id := range gi.Topo {
		if u := byID[id]; u >= 0 {
			bucket[next[u]] = id
			next[u]++
		}
	}
	// next[u] is now where switch u's bucket ends, and u+1's starts.
	// The plan keeps its own copy of byID as its host table, carved
	// with its used switches from one block: callers (the reconcile) go
	// on editing theirs.
	n := len(byID)
	sws := make([]network.SwitchID, n+used)
	plan := &Plan{Graph: g, Topo: topo, Assignments: make(map[string]StagePlacement, placed),
		placed: make([]StagePlacement, n), hosts: sws[:n:n], used: sws[n:n]}
	for id, u := range byID {
		if u < 0 {
			plan.placed[id].Switch, plan.hosts[id] = -1, -1
		} else {
			plan.hosts[id] = u
		}
	}
	arena := make([]float64, 0, placed+placed/2)
	var stages []float64
	lo := int32(0)
	for u := 0; u < ns; u++ {
		ids := bucket[lo:next[u]]
		lo = next[u]
		if len(ids) == 0 {
			continue
		}
		sw, err := topo.Switch(network.SwitchID(u))
		if err != nil {
			return nil, err
		}
		if !sw.Programmable {
			return nil, fmt.Errorf("placement: materializing assignment: placement: switch %q is not programmable", sw.Name)
		}
		plan.used = append(plan.used, sw.ID)
		if cap(stages) < sw.Stages {
			stages = make([]float64, sw.Stages)
		}
		stages = stages[:sw.Stages]
		clear(stages)
		//hermes:hot
		for _, id := range ids {
			earliest := 0
			for _, e := range g.InEdgesOf(id) {
				if from, _ := e.Endpoints(); byID[from] == sw.ID && plan.placed[from].End+1 > earliest {
					earliest = plan.placed[from].End + 1
				}
			}
			sp, err := stagePlacement(stages, sw, gi.Names[id], gi.req[id], earliest, &arena)
			if err != nil {
				return nil, fmt.Errorf("placement: materializing assignment: %w", err)
			}
			plan.placed[id] = sp
			plan.Assignments[gi.Names[id]] = sp
		}
	}
	return plan, nil
}
