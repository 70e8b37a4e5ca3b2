// The one repair path of Replan (DESIGN.md §8): the dirty set
// (displaced MATs plus the bounded TDG frontier) is healed on repair
// instances — compact compiled instances over a host subset, so the
// PR 4 kernels run on tables sized by the hosts involved, never S².
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
		byID, err := assignIDs(g, assignmentOf(old))
		if err != nil {
			return nil, 0, err
		}
		plan, err := materializeRepair(g, topo, byID, rm, old, ropts)
		if err != nil {
			return nil, 0, err
		}
		return finishRepairTimed(plan, old, ropts, 0, rep)
	}

	// Fan the dirty set out into instances: every dirty MAT belongs to
	// the region of its pre-drain host (region 0 without a partition), so
	// each MAT is movable in exactly one instance and the merge is
	// disjoint.
	regionDirty := map[int][]string{}
	for name := range dirty {
		r := 0
		if part != nil {
			host := old.Assignments[name].Switch
			if r = part.RegionOf(host); r < 0 {
				return nil, len(dirty), fmt.Errorf("partition does not cover switch %d", host)
			}
		}
		regionDirty[r] = append(regionDirty[r], name)
	}
	regions := make([]int, 0, len(regionDirty))
	for r := range regionDirty {
		sort.Strings(regionDirty[r])
		regions = append(regions, r)
	}
	sort.Ints(regions)
	var nbr [][]int
	if part != nil {
		rep.UsedRegional = true
		rep.RegionsTouched = regions
		nbr = regionAdjacency(part)
	}

	// Surviving global assignment: everything but the displaced MATs
	// keeps its switch. Read-only while the instances run. used records
	// which switches still hold MATs — regional candidate sets are built
	// around it.
	assign := make(map[string]network.SwitchID, g.NumNodes())
	used := make(map[network.SwitchID]bool, len(old.Assignments)/4+1)
	for name, sp := range old.Assignments {
		if !displaced[name] {
			assign[name] = sp.Switch
			used[sp.Switch] = true
		}
	}

	// Under a traffic matrix every instance compacts the same global
	// weights (routed and quantized once here, on the real topology — the
	// instances' pseudo-topologies are links-free).
	var weights *WeightTable
	if ropts.Traffic != nil {
		rates, err := ropts.Traffic.PairRates(topo)
		if err != nil {
			return nil, len(dirty), err
		}
		weights = NewWeightTable(rates, int32(topo.NumSwitches()))
	}

	phase = time.Now()
	heal := func(r int, candRegions []int) (map[string]network.SwitchID, error) {
		return healInstance(g, topo, part, assign, used, regionDirty[r], displaced, ropts, rm, weights, candRegions)
	}
	results := make([]map[string]network.SwitchID, len(regions))
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
	for _, res := range results {
		for name, u := range res {
			assign[name] = u
		}
	}

	// Each instance checked acyclicity on its own contracted subgraph; a
	// cycle threading placed MATs through hosts outside the instance is
	// invisible there, so re-prove the invariant over every TDG edge
	// before standing the plan up.
	if !assignmentAcyclic(g, assign) {
		return nil, len(dirty), fmt.Errorf("repair left a cyclic contracted switch graph")
	}

	byID, err := assignIDs(g, assign)
	if err != nil {
		return nil, len(dirty), err
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
// ascending within each region. Without a partition that is every live
// programmable switch; with one, the candidate regions' live
// programmable switches that still hold MATs plus up to regionSpares
// empty ones (part.Region is sorted, and candRegions order is
// deterministic).
func candidateHosts(topo *network.Topology, part *network.Partition, used map[network.SwitchID]bool, candRegions []int) ([]network.SwitchID, error) {
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
	return hosts, nil
}

// healInstance heals one share of the dirty set on a compact repair
// instance. candRegions lists the regions whose switches may host the
// dirty MATs ({r} normally, r plus its partition neighbors on the
// widened retry; ignored without a partition); every other host the
// dirty MATs communicate with joins the instance as a frozen halo
// anchor, so each pair-byte cell a repair move can touch carries its
// true background bytes. baseAssign is read-only (instances run
// concurrently); the returned map carries this instance's dirty MATs
// and their final hosts.
func healInstance(g *tdg.Graph, topo *network.Topology, part *network.Partition,
	baseAssign map[string]network.SwitchID, used map[network.SwitchID]bool,
	dirtyNames []string, displaced map[string]bool,
	ropts ReplanOptions, rm program.ResourceModel, weights *WeightTable, candRegions []int) (map[string]network.SwitchID, error) {

	hosts, err := candidateHosts(topo, part, used, candRegions)
	if err != nil {
		return nil, err
	}
	if len(hosts) == 0 {
		return nil, infeasibleError("no live programmable switch in candidate regions")
	}
	candSet := make(map[network.SwitchID]bool, len(hosts))
	for _, id := range hosts {
		candSet[id] = true
	}

	// Halo hosts: frozen anchors — hosts of the dirty MATs' TDG peers
	// outside the candidate set (hosts are sorted below and haloSet
	// dedupes).
	haloSet := map[network.SwitchID]bool{}
	addHalo := func(peer string) {
		if u, ok := baseAssign[peer]; ok && !candSet[u] && !haloSet[u] {
			haloSet[u] = true
			hosts = append(hosts, u)
		}
	}
	for _, name := range dirtyNames {
		for _, e := range g.OutEdgeList(name) {
			addHalo(e.To)
		}
		for _, e := range g.InEdgeList(name) {
			addHalo(e.From)
		}
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })

	// Instance MATs: every MAT resident on an instance host (their pair
	// bytes are the background the scores sit on), plus this instance's
	// displaced MATs (unassigned, to be placed). The name-keyed
	// assignment and dirty set are the boundary: each MAT's name is
	// resolved to its node id once here.
	gi := indexOf(g, rm)
	ids := make([]int32, 0, len(dirtyNames))
	for name, u := range baseAssign {
		if candSet[u] || haloSet[u] {
			id, _ := g.ID(name)
			ids = append(ids, id)
		}
	}
	for _, name := range dirtyNames {
		if displaced[name] {
			id, _ := g.ID(name)
			ids = append(ids, id)
		}
	}
	slices.SortFunc(ids, gi.byRank)
	ci, hostIdx, sws, err := hostInstance(g, gi, topo, hosts, ids)
	if err != nil {
		return nil, err
	}
	cands := make([]int32, 0, len(hosts))
	for i, gid := range hosts {
		if candSet[gid] {
			cands = append(cands, int32(i))
		}
	}
	if ropts.Epsilon1 > 0 {
		// The ε1 probe reads host-pair latencies off the real topology's
		// path oracle, for this instance's hosts only.
		ci.presetLatencies(hostLatencies(topo, hosts))
	}

	// g's topological positions order the displaced MATs (a
	// topological order of g restricted to any subset is a topological
	// order of the induced subgraph), sparing each instance an uncached
	// O(V+E) sort.
	dense := make([]int32, len(ids))
	var place []int32
	for x, id := range ids {
		if u, ok := baseAssign[gi.Names[id]]; ok {
			dense[x] = hostIdx[u]
		} else {
			dense[x] = -1
			place = append(place, int32(x))
		}
	}
	slices.SortFunc(place, func(a, b int32) int { return int(ci.TopoPos[a] - ci.TopoPos[b]) })
	dirtyIdx := make([]int32, len(dirtyNames))
	for i, name := range dirtyNames {
		id, _ := g.ID(name)
		x, ok := slices.BinarySearchFunc(ids, gi.Rank[id], func(a, r int32) int { return int(gi.Rank[a] - r) })
		if !ok {
			return nil, fmt.Errorf("dirty MAT %q is hosted outside the instance's candidates", name)
		}
		dirtyIdx[i] = int32(x)
	}
	var wt *WeightTable
	if weights != nil {
		wt = weights.Compact(hosts)
	}

	in := newRepairInstance(ci, sws, cands, dense, wt)
	defer in.release()
	if err := in.place(place, ropts.Options); err != nil {
		return nil, err
	}
	// The climb converges in a handful of passes over |dirty| MATs.
	in.climb(ropts.Options, dirtyIdx, occupiedTargets)

	out := make(map[string]network.SwitchID, len(dirtyNames))
	for _, x := range dirtyIdx {
		out[ci.name(x)] = sws[dense[x]].ID
	}
	return out, nil
}

// hostInstance compiles ids against a links-free pseudo-topology
// holding copies of hosts (ascending), the instance both the repair and
// the reconcile run on: the compiled tables are U²-sized,
// U = len(hosts), independent of the global S, and local index i is
// hosts[i] (sws[i] is the real switch behind it). The instance is
// carved straight out of g (no intermediate tdg.Subgraph: its
// string-keyed maps and uncached topo sort would cost more than the
// repair itself) and is not memoized, so g's whole-topology instance
// stays in its memo.
func hostInstance(g *tdg.Graph, gi *graphIndex, topo *network.Topology, hosts []network.SwitchID, ids []int32) (*CompiledInstance, map[network.SwitchID]int32, []*network.Switch, error) {

	topoH := network.NewTopology(topo.Name + "/hosts")
	hostIdx := make(map[network.SwitchID]int32, len(hosts))
	sws := make([]*network.Switch, len(hosts))
	for i, gid := range hosts {
		sw, err := topo.Switch(gid)
		if err != nil {
			return nil, nil, nil, err
		}
		topoH.AddSwitch(*sw) // ID rewritten to the dense local index
		hostIdx[gid] = int32(i)
		sws[i] = sw
	}
	return compileSubset(g, gi, ids, topoH), hostIdx, sws, nil
}

// hostLatencies is the instance-sized twin of Topology.LatencyTable:
// entry [i*U+j] is the shortest-path latency hosts[i]→hosts[j] on the
// real topology, -1 when unreachable.
func hostLatencies(topo *network.Topology, hosts []network.SwitchID) []time.Duration {
	u := len(hosts)
	lat := make([]time.Duration, u*u)
	for i, a := range hosts {
		for j, b := range hosts {
			if i == j {
				continue
			}
			if p, err := topo.ShortestPath(a, b); err != nil {
				lat[i*u+j] = -1
			} else {
				lat[i*u+j] = p.Latency
			}
		}
	}
	return lat
}
