// Boundary-exchange reconciliation (DESIGN.md §11.3): after the
// independent region solves, cross-region A(u,v) terms are whatever the
// chunk cuts left behind. The exchange phase iteratively migrates MATs
// across region cuts while the global lexicographic objective
// (A_max, total cross bytes) strictly improves.
//
// The phase has the shape of a staged collective (ring/reduce-scatter):
// each round, the communicating region pairs are edge-colored into
// stages of disjoint peers; within a stage every pair concurrently
// computes migration proposals against the stage-start snapshot
// (read-only, per-worker scratch, indexed result slots); a barrier
// ends the stage and the proposals are applied serially in
// deterministic pair order, each re-scored exactly against the live
// state with the allocation-free move kernels and re-checked for
// capacity (FitsSwitch), acyclicity, and objective improvement. The
// serial apply makes every worker count produce the same final
// assignment; the strict lexicographic descent makes the whole phase
// terminate (both objective components are non-negative integers).
//
// Scale note: kernels run in a host-compacted index space. The switches
// the merged assignment actually uses (U hosts, typically 1–2k even at
// S=10k switches) are compiled into a host instance (hostInstance, the
// builder the repair instances share), so the PairTable/MoveScratch/
// CycleScratch are U²-sized, not S² — the full-topology dense tables
// never materialize.
package placement

import (
	"sort"

	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

const (
	// candCap bounds candidate MATs per region pair per stage (the
	// heaviest cross-pair contributors are kept).
	candCap = 48
	// targetCap bounds candidate target hosts per MAT (the hosts of its
	// TDG peers within the pair's regions).
	targetCap = 12
	// propCap bounds proposals per pair per stage.
	propCap = 16
)

// hostState is the exchange phase's compacted working state.
type hostState struct {
	ci      *CompiledInstance
	hosts   []network.SwitchID // host index → global switch ID
	sws     []*network.Switch  // host index → real switch
	region  []int32            // host index → region
	assignH []int32            // MAT index → host index
	pt      *PairTable
	matsOn  [][]int32 // host index → MAT indices hosted there
	total   int       // total cross bytes matching (assignH, pt)
	amax    int       // Eq. 1 matching pt

	// Weighted-objective state (nil/zero under a structural solve):
	// the host-compacted weight table, the objective selector, the
	// weighted sum matching pt, the current objective value, and the
	// structural ceiling AMaxSlack × the merged solves' A_max.
	wt   *WeightTable
	wobj TrafficObjective
	wsum int64
	wval int64
	acap int
}

// proposal is one candidate migration: MAT x to host `to`.
type proposal struct {
	x, to int32
	class int   // 0 = predicted A_max improvement, 1 = cross-byte reduction
	delta int64 // predicted cross-byte delta (ordering key)
}

// exchangeAssign runs at most `rounds` boundary-exchange rounds over
// assign, mutating it in place. The cold sharded solve runs it after
// the region solves; a partitioned repair that fails its quality gate
// runs it as the escalation. overlap ≥ 1 sets how many region cuts a
// single migration may cross per round: 1 restricts each pair's
// targets to its own two regions (the classic schedule); k ≥ 2 admits
// targets up to k−1 hops away in the region adjacency graph (the 2-hop
// overlapping neighborhoods of DESIGN.md §14), letting a MAT escape a
// corner where the improving host sits just across a second cut, and
// adds a global bottleneck sweep per round. Stage disjointness still
// holds on the pair endpoints, so concurrent proposal passes stay
// read-only-safe; the serial exact re-scoring apply is what keeps
// overlapping target sets correct.
func exchangeAssign(g *tdg.Graph, topo *network.Topology, part *network.Partition,
	assign map[string]network.SwitchID, opts Options, rm program.ResourceModel,
	rounds, overlap int, st *ShardStats) error {

	hs, err := buildHostState(g, topo, part, assign, rm)
	if err != nil {
		return err
	}
	if opts.Traffic != nil {
		// The host instance is links-free, so the compacted weights must
		// come from the global pair rates (routed on the real topology),
		// not a re-route in host space.
		rates, err := opts.Traffic.PairRates(topo)
		if err != nil {
			return err
		}
		hs.wt = NewWeightTable(rates, int32(topo.NumSwitches())).Compact(hs.hosts)
		hs.wobj = opts.TrafficObjective
		sum, max := hs.wt.Score(hs.pt)
		hs.wsum = sum
		hs.wval = hs.wobj.pick(sum, max)
		hs.acap = opts.amaxCap(hs.amax)
	}
	st.Hosts = len(hs.hosts)
	st.AMaxBefore = hs.amax
	st.AMaxAfter = hs.amax

	w := opts.workers()
	scratch := make([]map[int32]int32, w)
	for i := range scratch {
		scratch[i] = make(map[int32]int32, 64)
	}
	msApply := hs.ci.NewMoveScratch()
	cyc := hs.ci.NewCycleScratch()
	poll := newDeadlinePoller(opts.Deadline, 1).withCancel(opts.done())

	// Per-pair allowed-region masks. With overlap == 1 every mask is
	// just the pair itself; wider overlaps expand along the region
	// adjacency graph (computed once — region count is small).
	var regNbr [][]int
	if overlap > 1 {
		regNbr = regionAdjacency(part)
	}
	allowedCache := map[[2]int32][]bool{}
	allowedFor := func(pr [2]int32) []bool {
		m, ok := allowedCache[pr]
		if !ok {
			m = allowedRegions(pr, regNbr, overlap, part.NumRegions())
			allowedCache[pr] = m
		}
		return m
	}

	for round := 0; round < rounds; round++ {
		if poll.Expired() {
			break
		}
		pairs := communicatingPairs(hs)
		if len(pairs) == 0 {
			break
		}
		stages := colorPairs(pairs)
		moved := 0
		for _, stage := range stages {
			if poll.Expired() {
				break
			}
			// Exchange step 1: peers publish their boundary state — the
			// per-pair candidate sets and pair-byte contributions read
			// from the stage-start snapshot.
			cands := stageCandidates(hs, stage)
			bneck := bottlenecks(hs)
			// Step 2: concurrent per-pair proposal computation
			// (read-only; indexed slots keep it deterministic).
			allow := make([][]bool, len(stage))
			for i, pr := range stage {
				allow[i] = allowedFor(pr)
			}
			props := make([][]proposal, len(stage))
			parallelForShard(len(stage), w, func(worker, i int) {
				props[i] = proposePair(hs, stage[i], cands[i], bneck, allow[i], scratch[worker])
			})
			// Step 3: barrier reached; serial deterministic apply with
			// exact re-scoring.
			for i := range stage {
				moved += hs.applyProposals(g, props[i], rm, msApply, cyc)
			}
		}
		if overlap > 1 {
			// Overlapping escalation also sweeps the global bottleneck
			// cells: the pair schedule only attacks cross-region cuts, but
			// after a regional repair the Eq. 1 argmax can sit inside one
			// region (or on a pair untouched by any cut). The sweep
			// proposes moving each bottleneck cell's contributing MATs
			// next to their TDG peers, wherever those live — the serial
			// exact apply keeps only strict lexicographic improvements, so
			// this is pure extra reach, not a different objective.
			moved += hs.applyProposals(g, bottleneckSweep(hs), rm, msApply, cyc)
		}
		st.Rounds = round + 1
		st.Moves += moved
		if moved == 0 {
			break // converged: no cross-boundary move improves the objective
		}
	}
	st.AMaxAfter = hs.amax

	// Decode the compacted assignment back onto global switch IDs.
	for x, name := range hs.ci.Names {
		assign[name] = hs.hosts[hs.assignH[x]]
	}
	return nil
}

// buildHostState compacts the merged assignment into host index space:
// a host instance over just the used switches, so every kernel runs
// U-indexed.
func buildHostState(g *tdg.Graph, topo *network.Topology, part *network.Partition,
	assign map[string]network.SwitchID, rm program.ResourceModel) (*hostState, error) {

	used := map[network.SwitchID]bool{}
	for _, u := range assign {
		used[u] = true
	}
	hosts := make([]network.SwitchID, 0, len(used))
	for u := range used {
		hosts = append(hosts, u)
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	names := g.NodeNames()
	sort.Strings(names)
	ci, hostIdx, sws, err := hostInstance(g, topo, hosts, names, rm)
	if err != nil {
		return nil, err
	}
	region := make([]int32, len(hosts))
	for i, gid := range hosts {
		region[i] = int32(part.RegionOf(gid))
	}
	assignH := make([]int32, len(ci.Names))
	matsOn := make([][]int32, len(hosts))
	for x, name := range ci.Names {
		h := hostIdx[assign[name]]
		assignH[x] = h
		matsOn[h] = append(matsOn[h], int32(x))
	}
	hs := &hostState{
		ci: ci, hosts: hosts, sws: sws, region: region,
		assignH: assignH, pt: ci.NewPairTable(), matsOn: matsOn,
	}
	hs.total = ci.FillPairTable(assignH, hs.pt)
	hs.amax = hs.pt.Max()
	return hs, nil
}

// communicatingPairs lists the normalized region pairs that currently
// exchange metadata bytes, sorted — the peer schedule of one round.
func communicatingPairs(hs *hostState) [][2]int32 {
	seen := map[[2]int32]bool{}
	for ei := range hs.ci.EdgeFrom {
		ua := hs.assignH[hs.ci.EdgeFrom[ei]]
		ub := hs.assignH[hs.ci.EdgeTo[ei]]
		if ua == ub {
			continue
		}
		ra, rb := hs.region[ua], hs.region[ub]
		if ra == rb {
			continue
		}
		if ra > rb {
			ra, rb = rb, ra
		}
		seen[[2]int32{ra, rb}] = true
	}
	out := make([][2]int32, 0, len(seen))
	for pr := range seen {
		out = append(out, pr)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i][0] < out[j][0] || (out[i][0] == out[j][0] && out[i][1] < out[j][1])
	})
	return out
}

// colorPairs greedily edge-colors the peer pairs into stages of
// pairwise-disjoint regions — the ring/reduce-scatter schedule: within
// a stage every region talks to at most one peer, so the concurrent
// proposal passes read disjoint boundary states.
func colorPairs(pairs [][2]int32) [][][2]int32 {
	var stages [][][2]int32
	var busy []map[int32]bool
	for _, pr := range pairs {
		placed := false
		for c := range stages {
			if !busy[c][pr[0]] && !busy[c][pr[1]] {
				stages[c] = append(stages[c], pr)
				busy[c][pr[0]], busy[c][pr[1]] = true, true
				placed = true
				break
			}
		}
		if !placed {
			stages = append(stages, [][2]int32{pr})
			busy = append(busy, map[int32]bool{pr[0]: true, pr[1]: true})
		}
	}
	return stages
}

// bottlenecks lists the pair-table cells currently at A_max — the cells
// a move must reduce to improve Eq. 1.
func bottlenecks(hs *hostState) []int32 {
	var out []int32
	for _, k := range hs.pt.Keys() {
		if int(hs.pt.Cells[k]) == hs.amax {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// stageCandidates scans the TDG once and returns, for each pair of the
// stage, its boundary MATs with their cross-pair byte contributions —
// the "assignments and pair-byte contributions" the peers exchange.
func stageCandidates(hs *hostState, stage [][2]int32) []map[int32]int64 {
	idx := make(map[[2]int32]int, len(stage))
	out := make([]map[int32]int64, len(stage))
	for i, pr := range stage {
		idx[pr] = i
		out[i] = map[int32]int64{}
	}
	for ei := range hs.ci.EdgeFrom {
		ua := hs.assignH[hs.ci.EdgeFrom[ei]]
		ub := hs.assignH[hs.ci.EdgeTo[ei]]
		if ua == ub {
			continue
		}
		ra, rb := hs.region[ua], hs.region[ub]
		if ra == rb {
			continue
		}
		if ra > rb {
			ra, rb = rb, ra
		}
		i, ok := idx[[2]int32{ra, rb}]
		if !ok {
			continue
		}
		b := int64(hs.ci.EdgeBytes[ei])
		out[i][hs.ci.EdgeFrom[ei]] += b
		out[i][hs.ci.EdgeTo[ei]] += b
	}
	return out
}

// proposePair computes one pair's ranked migration proposals against
// the stage-start snapshot. Read-only on hs; scratch is this worker's
// delta map. Candidates are the pair's heaviest boundary MATs; targets
// are the hosts of each MAT's TDG peers within the pair's allowed
// regions — the pair itself under overlap 1, its overlapping
// neighborhood otherwise (migrating a MAT next to its communication
// partners is what removes cross-cut bytes). Scoring is the O(deg)
// screen: a move is class 0 when it strictly reduces every bottleneck
// cell and lifts no touched cell to A_max (guaranteed strict A_max
// descent), class 1 when it keeps every touched cell under A_max and
// strictly cuts cross bytes. Exact re-scoring happens at apply time.
func proposePair(hs *hostState, pr [2]int32, contrib map[int32]int64, bneck []int32, allowed []bool, scratch map[int32]int32) []proposal {
	if len(contrib) == 0 {
		return nil
	}
	type weighted struct {
		x int32
		b int64
	}
	cands := make([]weighted, 0, len(contrib))
	for x, b := range contrib {
		cands = append(cands, weighted{x, b})
	}
	sort.Slice(cands, func(i, j int) bool {
		return cands[i].b > cands[j].b || (cands[i].b == cands[j].b && cands[i].x < cands[j].x)
	})
	if len(cands) > candCap {
		cands = cands[:candCap]
	}

	ci := hs.ci
	S := int32(len(hs.hosts))
	var props []proposal
	var targets []int32
	for _, cand := range cands {
		x := cand.x
		cur := hs.assignH[x]
		// Candidate targets: peers' hosts inside the pair's regions.
		targets = targets[:0]
		for _, ei := range ci.Incident[x] {
			peer := ci.EdgeTo[ei]
			if peer == x {
				peer = ci.EdgeFrom[ei]
			}
			h := hs.assignH[peer]
			if h == cur {
				continue
			}
			if !allowed[hs.region[h]] {
				continue
			}
			targets = append(targets, h)
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
		targets = dedupInt32(targets)
		if len(targets) > targetCap {
			targets = targets[:targetCap]
		}
		for _, c := range targets {
			for k := range scratch {
				delete(scratch, k)
			}
			var crossDelta int64
			for _, ei := range ci.Incident[x] {
				var peer, oldCell, newCell int32
				if ci.EdgeFrom[ei] == x {
					peer = hs.assignH[ci.EdgeTo[ei]]
					oldCell = cur*S + peer
					newCell = c*S + peer
				} else {
					peer = hs.assignH[ci.EdgeFrom[ei]]
					oldCell = peer*S + cur
					newCell = peer*S + c
				}
				b := ci.EdgeBytes[ei]
				if peer != cur {
					scratch[oldCell] -= b
					crossDelta -= int64(b)
				}
				if peer != c {
					scratch[newCell] += b
					crossDelta += int64(b)
				}
			}
			maxTouched := 0
			for cell, d := range scratch {
				if v := int(hs.pt.Cells[cell] + d); v > maxTouched {
					maxTouched = v
				}
			}
			if maxTouched < hs.amax && reducesAll(bneck, scratch) {
				props = append(props, proposal{x: x, to: c, class: 0, delta: crossDelta})
			} else if maxTouched <= hs.amax && crossDelta < 0 {
				props = append(props, proposal{x: x, to: c, class: 1, delta: crossDelta})
			}
		}
	}
	sort.Slice(props, func(i, j int) bool {
		a, b := props[i], props[j]
		if a.class != b.class {
			return a.class < b.class
		}
		if a.delta != b.delta {
			return a.delta < b.delta
		}
		if a.x != b.x {
			return a.x < b.x
		}
		return a.to < b.to
	})
	if len(props) > propCap {
		props = props[:propCap]
	}
	return props
}

// reducesAll reports whether the delta strictly lowers every bottleneck
// cell (necessary and, with maxTouched < amax, sufficient for strict
// A_max descent).
func reducesAll(bneck []int32, delta map[int32]int32) bool {
	if len(bneck) > len(delta) {
		return false
	}
	for _, b := range bneck {
		if delta[b] >= 0 {
			return false
		}
	}
	return true
}

// applyProposals serially re-scores one pair's proposals against the
// live state and commits those that still strictly improve the
// lexicographic objective while staying feasible (capacity on the real
// switch, acyclic contracted graph). Returns accepted count.
func (hs *hostState) applyProposals(g *tdg.Graph, props []proposal,
	rm program.ResourceModel, ms *MoveScratch, cyc *CycleScratch) int {

	accepted := 0
	for _, pr := range props {
		cur := hs.assignH[pr.x]
		if cur == pr.to {
			continue
		}
		namax, ncross := hs.ci.MoveScore(hs.assignH, hs.pt, ms, pr.x, pr.to, hs.total)
		structBetter := namax < hs.amax || (namax == hs.amax && ncross < hs.total)
		var wsum2, wval2 int64
		if hs.wt == nil {
			if !structBetter {
				continue
			}
		} else {
			// Weighted acceptance: strict descent on the lexicographic
			// (W, A_max, cross) key, with the structural A_max capped at
			// the exchange-start ceiling. The proposal classes stay
			// structural — they are a candidate screen, not the gate.
			ws, wm := hs.ci.MoveScoreWeighted(hs.assignH, hs.pt, ms, hs.wt, pr.x, pr.to, hs.wsum)
			wsum2, wval2 = ws, hs.wobj.pick(ws, wm)
			if namax > hs.acap || wval2 > hs.wval || (wval2 == hs.wval && !structBetter) {
				continue
			}
		}
		// Capacity on the real target switch.
		names := make([]string, 0, len(hs.matsOn[pr.to])+1)
		for _, m := range hs.matsOn[pr.to] {
			names = append(names, hs.ci.Names[m])
		}
		names = append(names, hs.ci.Names[pr.x])
		if !FitsSwitch(g, names, hs.sws[pr.to], rm) {
			continue
		}
		total2 := hs.ci.ApplyMove(hs.assignH, hs.pt, pr.x, pr.to, hs.total)
		if !hs.ci.AssignmentAcyclic(hs.assignH, cyc) {
			hs.total = hs.ci.ApplyMove(hs.assignH, hs.pt, pr.x, cur, total2) // revert
			continue
		}
		hs.total = total2
		hs.amax = namax
		if hs.wt != nil {
			hs.wsum, hs.wval = wsum2, wval2
		}
		hs.moveHost(pr.x, cur, pr.to)
		accepted++
	}
	return accepted
}

// moveHost updates the per-host MAT lists after an accepted migration.
func (hs *hostState) moveHost(x, from, to int32) {
	l := hs.matsOn[from]
	for i, m := range l {
		if m == x {
			hs.matsOn[from] = append(l[:i], l[i+1:]...)
			break
		}
	}
	hs.matsOn[to] = append(hs.matsOn[to], x)
}

// bottleneckSweep proposes migrations for the MATs contributing to the
// current global bottleneck cells, targeting the hosts of their TDG
// peers (the only moves that can delete bytes from an A_max cell).
// Proposals are screened loosely — exact scoring, feasibility, and the
// strict-descent gate all happen in applyProposals — and ordered
// deterministically.
func bottleneckSweep(hs *hostState) []proposal {
	bneck := bottlenecks(hs)
	if len(bneck) == 0 {
		return nil
	}
	inB := make(map[int32]bool, len(bneck))
	for _, k := range bneck {
		inB[k] = true
	}
	ci := hs.ci
	S := int32(len(hs.hosts))
	seen := map[[2]int32]bool{}
	var props []proposal
	propose := func(x int32) {
		cur := hs.assignH[x]
		for _, ei := range ci.Incident[x] {
			peer := ci.EdgeTo[ei]
			if peer == x {
				peer = ci.EdgeFrom[ei]
			}
			h := hs.assignH[peer]
			if h == cur || seen[[2]int32{x, h}] {
				continue
			}
			seen[[2]int32{x, h}] = true
			props = append(props, proposal{x: x, to: h, class: 0, delta: 0})
		}
	}
	for ei := range ci.EdgeFrom {
		ua := hs.assignH[ci.EdgeFrom[ei]]
		ub := hs.assignH[ci.EdgeTo[ei]]
		if ua == ub || !inB[ua*S+ub] {
			continue
		}
		propose(ci.EdgeFrom[ei])
		propose(ci.EdgeTo[ei])
	}
	sort.Slice(props, func(i, j int) bool {
		return props[i].x < props[j].x || (props[i].x == props[j].x && props[i].to < props[j].to)
	})
	if len(props) > 4*propCap {
		props = props[:4*propCap]
	}
	return props
}

// allowedRegions returns the mask of regions a pair's migrations may
// target: the pair itself plus every region within overlap−1 hops of
// either endpoint in the region adjacency graph (BFS; regNbr may be
// nil when overlap == 1).
func allowedRegions(pr [2]int32, regNbr [][]int, overlap, numRegions int) []bool {
	mask := make([]bool, numRegions)
	mask[pr[0]], mask[pr[1]] = true, true
	frontier := []int{int(pr[0]), int(pr[1])}
	for hop := 1; hop < overlap && len(frontier) > 0; hop++ {
		var next []int
		for _, r := range frontier {
			for _, n := range regNbr[r] {
				if !mask[n] {
					mask[n] = true
					next = append(next, n)
				}
			}
		}
		frontier = next
	}
	return mask
}

// dedupInt32 removes adjacent duplicates from a sorted slice.
func dedupInt32(s []int32) []int32 {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}
