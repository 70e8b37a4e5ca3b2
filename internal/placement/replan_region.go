// The one repair path of Replan (DESIGN.md §8): the dirty set
// (displaced MATs plus the bounded TDG frontier) is healed on repair
// instances (newRepairInstance) over a host subset, so the compiled
// kernels run on tables sized by the hosts involved, never S².
// What a topology Partition on the replan options changes is only how
// instances are drawn and how far a failed repair escalates:
//
//   - Without a partition there is one instance whose candidates are
//     all live programmable switches; its halo is empty and nothing
//     escalates short of the caller's solver.
//   - With one, the dirty set fans out into one instance per region it
//     intersects, repaired concurrently: the region's live programmable
//     switches (occupied ones plus a bounded pool of empties) are the
//     candidates and the frozen hosts its dirty MATs communicate with
//     join as halo anchors. A region that cannot host its displaced
//     MATs retries once with the 2-hop widened candidate set (its
//     partition neighbors), letting a MAT cross more than one cut; a
//     merged plan that would fail the quality gate runs the sharded
//     solver's reconcile climb (sharded.go) before being re-gated.
//
// Only then does ReplanAuto fall back to the caller's solver — a
// sharded cold re-solve when the caller passes ShardedGreedy. Regions
// repair independently against the pre-repair snapshot (the same
// approximation the sharded solver's regional solves make); the merged
// plan passes the full gate stack (Validate, quality ratio, lint,
// equiv).
package placement

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

// regionSpares bounds the empty candidate switches admitted per region
// repair. Candidate hosts are the regions' switches that already hold
// MATs plus this many unoccupied spares (lowest IDs first): the greedy
// scores favor co-location so empty switches beyond a safety pool
// almost never win, and the compiled tables are U²-sized — admitting
// every empty switch of a 300-switch region would make the scratch
// allocations, not the repair, the replan's critical path. A region
// whose displaced MATs overflow the pool reports an infeasibleError
// and retries widened, exactly like any other capacity shortfall.
const regionSpares = 32

// repair is the delta path: re-place only the MATs hosted on drained
// or down switches, keeping every other assignment, then climb over the
// dirty set (the displaced MATs plus a bounded dependency frontier). It
// returns the repaired plan and the dirty-set size, or an error
// describing why the repair cannot stand (the caller decides between
// fallback and failure).
func repair(old *Plan, topo *network.Topology, ropts ReplanOptions, drainedSet map[network.SwitchID]bool, rep *ReplanReport) (*Plan, int, error) {
	g := old.Graph
	rm := program.DefaultResourceModel
	part := ropts.Partition

	phase := time.Now()
	displaced, dirty := dirtySets(old, topo, drainedSet)
	rep.Phases.Dirty = time.Since(phase)
	if len(displaced) == 0 {
		// Nothing hosted there: the old assignment is the repair. Routes
		// may still change, so re-materialize and gate.
		plan, err := materializeRepair(g, topo, slices.Clone(old.Hosts()), rm, old, ropts)
		if err != nil {
			return nil, 0, err
		}
		return finishRepairTimed(plan, old, ropts, 0, rep)
	}

	// Surviving global assignment, by node id: everything but the
	// displaced MATs (-1) keeps its switch. Read-only while the instances
	// run. used records which switches still hold MATs — regional
	// candidate sets are built around it.
	gi := indexOf(g, rm)
	hosts := old.Hosts()
	surv := slices.Clone(hosts)
	for _, id := range displaced {
		surv[id] = -1
	}
	used := make([]bool, topo.NumSwitches())
	for _, u := range surv {
		if u >= 0 {
			used[u] = true
		}
	}

	// Fan the dirty set out into instances: every dirty MAT belongs to
	// the region of its pre-drain host (region 0 without a partition), so
	// each MAT is movable in exactly one instance and the merge is
	// disjoint. Each region's share is in name order.
	regionDirty := map[int][]int32{}
	for _, id := range dirty {
		r := 0
		if part != nil {
			if r = part.RegionOf(hosts[id]); r < 0 {
				return nil, len(dirty), fmt.Errorf("partition does not cover switch %d", hosts[id])
			}
		}
		regionDirty[r] = append(regionDirty[r], id)
	}
	regions := make([]int, 0, len(regionDirty))
	for r := range regionDirty {
		slices.SortFunc(regionDirty[r], gi.byRank)
		regions = append(regions, r)
	}
	sort.Ints(regions)
	var nbr [][]int
	if part != nil {
		rep.UsedRegional = true
		rep.RegionsTouched = regions
		nbr = regionAdjacency(part)
	}

	// Under a traffic matrix every instance compacts the same global
	// weights, routed and quantized once here.
	weights, err := trafficWeights(ropts.Traffic, topo)
	if err != nil {
		return nil, len(dirty), err
	}

	phase = time.Now()
	heal := func(r int, candRegions []int) ([]network.SwitchID, error) {
		return healInstance(g, gi, topo, part, surv, used, regionDirty[r], ropts, weights, candRegions)
	}
	results := make([][]network.SwitchID, len(regions))
	errs := make([]error, len(regions))
	widened := make([]bool, len(regions))
	parallelFor(len(regions), ropts.workers(), func(i int) {
		r := regions[i]
		res, err := heal(r, []int{r})
		var inf infeasibleError
		if part != nil && errors.As(err, &inf) {
			// Overlapping-region escalation: admit candidates from the
			// 2-hop region neighborhood so a displaced MAT may land
			// across more than one cut.
			widened[i] = true
			res, err = heal(r, append([]int{r}, nbr[r]...))
		}
		results[i], errs[i] = res, err
	})
	for i, err := range errs {
		if err != nil {
			if part != nil {
				err = fmt.Errorf("region %d: %w", regions[i], err)
			}
			return nil, len(dirty), err
		}
		if widened[i] {
			rep.RegionsWidened++
		}
	}
	byID := surv
	for i, res := range results {
		for k, id := range regionDirty[regions[i]] {
			byID[id] = res[k]
		}
	}

	// Each instance checked acyclicity on its own contracted subgraph; a
	// cycle threading placed MATs through hosts outside the instance is
	// invisible there, so re-prove the invariant over every TDG edge
	// before standing the plan up.
	if !hostsAcyclic(g, byID, topo.NumSwitches()) {
		return nil, len(dirty), fmt.Errorf("repair left a cyclic contracted switch graph")
	}

	plan, err := materializeRepair(g, topo, byID, rm, old, ropts)
	if err != nil {
		return nil, len(dirty), err
	}
	rep.Phases.Regions = time.Since(phase) // fan-out + merge + materialize

	// Reconcile: the escalation between the per-region repairs and the
	// full-solve fallback. It runs only when the merged plan would fail
	// the quality gate — the same climb a sharded cold solve ends with,
	// aimed at merges whose drain shifted the global bottleneck outside
	// the dirty regions (its dirty set includes the A_max pairs wherever
	// they sit). Feasibility is preserved throughout (the climb moves
	// only already-placed MATs under the same capacity/acyclicity
	// checks); a plan still past the gate afterwards falls back to the
	// full solve via finishRepair.
	if ratio := ropts.qualityRatio(); part != nil && ratio > 0 {
		if oldA := old.AMax(); oldA > 0 && float64(plan.AMax()) > ratio*float64(oldA) {
			exStart := time.Now()
			var st ShardStats
			exErr := reconcile(g, topo, part, byID, ropts.Options, rm, &st)
			rep.Phases.Exchange = time.Since(exStart)
			if exErr == nil && st.Moves > 0 {
				rep.ExchangeRounds, rep.ExchangeMoves = st.Rounds, st.Moves
				if plan2, mErr := materializeRepair(g, topo, byID, rm, old, ropts); mErr == nil {
					plan = plan2
				}
			}
		}
	}
	return finishRepairTimed(plan, old, ropts, len(dirty), rep)
}

// materializeRepair packs the merged assignment, indexed by node id,
// and fills in routes, reusing the pre-drain plan's routes when they are provably still
// valid: the replan ran against a clone of the old plan's own topology
// (no ReplanOptions.Topology override) and neither side carries a fault
// overlay, so the link graph and transit latencies routing depends on
// are unchanged — a drained switch keeps forwarding (the contract
// Replan documents), it only stops hosting. Only the pairs the repair
// created (moved MATs on new hosts) are routed, in one batched oracle
// query against the old topology, whose SSSP cache is already warm from
// the base solve. Any condition outside that window falls back to the
// full route recompute.
func materializeRepair(g *tdg.Graph, topo *network.Topology, byID []network.SwitchID,
	rm program.ResourceModel, old *Plan, ropts ReplanOptions) (*Plan, error) {
	if ropts.Topology != nil || len(old.Routes) == 0 || old.Topo.HasFaults() || topo.HasFaults() {
		return materializeAssignment(g, topo, byID, rm)
	}
	plan, err := packAssignment(g, topo, byID, rm)
	if err != nil {
		return nil, err
	}
	bytes := plan.PairBytes()
	plan.Routes = make(map[RouteKey]network.Path, len(bytes))
	var keys []RouteKey
	var pairs [][2]network.SwitchID
	for key := range bytes {
		if p, ok := old.Routes[key]; ok {
			plan.Routes[key] = p
		} else {
			keys = append(keys, key)
			pairs = append(pairs, [2]network.SwitchID{key.From, key.To})
		}
	}
	if len(pairs) > 0 {
		paths, err := old.Topo.ShortestPaths(pairs)
		if err != nil {
			return nil, err
		}
		for i, key := range keys {
			plan.Routes[key] = paths[i]
		}
	}
	return plan, nil
}

// regionAdjacency returns each region's neighbor list (regions joined
// by at least one boundary link), ascending.
func regionAdjacency(part *network.Partition) [][]int {
	nbr := make([][]int, part.NumRegions())
	for _, pr := range part.AdjacentRegions() {
		nbr[pr[0]] = append(nbr[pr[0]], pr[1])
		nbr[pr[1]] = append(nbr[pr[1]], pr[0])
	}
	return nbr
}

// candidateHosts lists the switches an instance may place MATs on,
// ascending. Without a partition that is every live programmable
// switch; with one, the candidate regions' live programmable switches
// that still hold MATs plus up to regionSpares empty ones (part.Region
// is sorted, and candRegions order is deterministic).
func candidateHosts(topo *network.Topology, part *network.Partition, used []bool, candRegions []int) ([]network.SwitchID, error) {
	if part == nil {
		return topo.ProgrammableSwitches(), nil
	}
	var hosts []network.SwitchID
	spares := 0
	for _, r := range candRegions {
		for _, id := range part.Region(r) {
			sw, err := topo.Switch(id)
			if err != nil {
				return nil, err
			}
			if !sw.Programmable || topo.SwitchIsDown(id) {
				continue
			}
			if !used[id] {
				if spares >= regionSpares {
					continue
				}
				spares++
			}
			hosts = append(hosts, id)
		}
	}
	slices.Sort(hosts)
	return hosts, nil
}

// healInstance heals one share of the dirty set, dirty (node ids in
// name order), on a repair instance. candRegions lists the regions
// whose switches may host the dirty MATs ({r} normally, r plus its
// partition neighbors on the widened retry; ignored without a
// partition); every other host the dirty MATs communicate with joins
// the instance as a frozen halo anchor, so each pair-byte cell a repair
// move can touch carries its true background bytes. The instance holds
// every MAT surv keeps on one of its hosts plus the share's displaced
// MATs (surv -1), which are placed before the climb. surv is read-only
// (instances run concurrently); the result is each dirty MAT's final
// host, in dirty's order.
func healInstance(g *tdg.Graph, gi *graphIndex, topo *network.Topology, part *network.Partition,
	surv []network.SwitchID, used []bool, dirty []int32,
	ropts ReplanOptions, weights *WeightTable, candRegions []int) ([]network.SwitchID, error) {

	cands, err := candidateHosts(topo, part, used, candRegions)
	if err != nil {
		return nil, err
	}
	if len(cands) == 0 {
		return nil, infeasibleError("no live programmable switch in candidate regions")
	}
	isCand := func(u network.SwitchID) bool {
		_, ok := slices.BinarySearch(cands, u)
		return ok
	}

	hosts, ids, at, dirtyIdx, place, err := instanceMATs(g, gi, surv, dirty, cands, isCand)
	if err != nil {
		return nil, err
	}
	in, err := newRepairInstance(g, gi, topo, hosts, ids, at, func(sw *network.Switch) bool { return isCand(sw.ID) }, weights, ropts.Options)
	if err != nil {
		return nil, err
	}
	defer in.release()

	// g's topological positions order the displaced MATs (a
	// topological order of g restricted to any subset is a topological
	// order of the induced subgraph), sparing each instance an uncached
	// O(V+E) sort.
	slices.SortFunc(place, func(a, b int32) int { return int(in.ci.TopoPos[a] - in.ci.TopoPos[b]) })
	if err := in.place(place, ropts.Options); err != nil {
		return nil, err
	}
	// The climb converges in a handful of passes over |dirty| MATs.
	in.climb(ropts.Options, dirtyIdx, occupiedTargets)

	out := make([]network.SwitchID, len(dirtyIdx))
	for i, x := range dirtyIdx {
		out[i] = in.switchOf(x)
	}
	return out, nil
}

// instanceMATs gathers one heal instance over the candidate hosts cands
// (ascending; isCand tests membership). Its hosts are the candidates
// plus the halo: the hosts of the dirty MATs' TDG peers outside the
// candidate set, frozen anchors that give each pair-byte cell a repair
// move can touch its true background bytes. Its MATs, walked in name
// order, are every MAT surv keeps on one of its hosts plus this share's
// displaced MATs (surv -1, returned by instance index in place). dirty
// is in name order too, so one cursor finds each dirty MAT's instance
// index (dirtyIdx). at is each instance MAT's switch, -1 to be placed.
func instanceMATs(g *tdg.Graph, gi *graphIndex, surv []network.SwitchID, dirty []int32, cands []network.SwitchID,
	isCand func(network.SwitchID) bool) (hosts []network.SwitchID, ids []int32, at []network.SwitchID, dirtyIdx, place []int32, err error) {
	hosts = slices.Clone(cands)
	for _, id := range dirty {
		for _, e := range g.OutEdgesOf(id) {
			if _, to := e.Endpoints(); surv[to] >= 0 && !isCand(surv[to]) {
				hosts = append(hosts, surv[to])
			}
		}
		for _, e := range g.InEdgesOf(id) {
			if from, _ := e.Endpoints(); surv[from] >= 0 && !isCand(surv[from]) {
				hosts = append(hosts, surv[from])
			}
		}
	}
	slices.Sort(hosts)
	hosts = slices.Compact(hosts)

	ids = make([]int32, 0, len(dirty))
	at = make([]network.SwitchID, 0, len(dirty))
	dirtyIdx = make([]int32, 0, len(dirty))
	//hermes:hot
	for _, id := range gi.ByName {
		isDirty := len(dirtyIdx) < len(dirty) && dirty[len(dirtyIdx)] == id
		u := surv[id]
		if u < 0 && !isDirty {
			continue
		}
		if u >= 0 {
			if _, ok := slices.BinarySearch(hosts, u); !ok {
				if isDirty {
					return nil, nil, nil, nil, nil, fmt.Errorf("dirty MAT %q is hosted outside the instance's candidates", gi.Names[id])
				}
				continue
			}
		}
		if isDirty {
			dirtyIdx = append(dirtyIdx, int32(len(ids)))
		}
		if u < 0 {
			place = append(place, int32(len(ids)))
		}
		ids = append(ids, id)
		at = append(at, u)
	}
	return hosts, ids, at, dirtyIdx, place, nil
}
