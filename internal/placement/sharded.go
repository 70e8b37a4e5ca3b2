// Region-sharded placement for large topologies (ROADMAP item 2;
// DESIGN.md §11). Whole-graph Greedy is superlinear in switches × MATs,
// which caps it at a few hundred switches; ShardedGreedy recovers
// near-linear scaling by decomposing the instance:
//
//  1. Partition the topology into k connected regions balanced by
//     programmable stage capacity (network.PartitionRegions).
//  2. Cut the merged TDG into k contiguous topo-order chunks sized
//     proportionally to region capacity, choosing cut points that
//     minimize crossing metadata bytes — contiguity makes the initial
//     chunk→region contraction a DAG by construction.
//  3. Solve each (chunk, region sub-topology) with the compiled Greedy
//     concurrently under Options.Workers; each regional solve runs its
//     local search serially (Workers=1), so the two parallelism levels
//     never multiply and every worker count yields identical plans.
//  4. Reconcile: one climb (improve.go) over the merged assignment,
//     compacted onto the switches it uses, moves the MATs on region
//     cuts and on the A_max pairs next to their TDG peers while that
//     strictly improves the global (A_max, cross-byte) objective.
//
// The merged assignment is materialized, ε-checked, and gated through
// finishPlan like any other solver's plan.
package placement

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

// ShardedGreedy is the region-sharded solver. The region count k is
// Options.Shards; k ≤ 1 delegates to whole-graph Greedy.
type ShardedGreedy struct {
	// Seed drives the topology partitioner; zero means 1.
	Seed int64
	// Partition, when non-nil and built over a topology with the same
	// switch count, is reused instead of re-partitioning — the
	// supervisor and the regional replan path hand the solver the
	// partition they already maintain.
	Partition *network.Partition
}

var _ Solver = ShardedGreedy{}

// Name implements Solver.
func (ShardedGreedy) Name() string { return "Hermes-Shard" }

// ShardStats reports what a sharded solve did; SolveStats returns it
// alongside the plan (Exp#10 records these). The reconcile fields also
// describe the escalation reconcile of a partitioned repair.
type ShardStats struct {
	// Shards is the requested region count (Options.Shards).
	Shards int
	// FellBack marks solves that ran whole-graph Greedy instead (≤1
	// shard, warm seed present, tiny TDG, or a partition or regional
	// failure).
	FellBack bool
	// BoundaryLinks counts topology links crossing region cuts.
	BoundaryLinks int
	// Hosts counts the switches used by the merged assignment (the
	// reconcile's compacted index space).
	Hosts int
	// Rounds and Moves count the reconcile climb's passes and accepted
	// moves.
	Rounds, Moves int
	// AMaxBefore/AMaxAfter bracket the reconcile (Eq. 1 bytes).
	AMaxBefore, AMaxAfter int
	// PartitionTime/RegionTime/ExchangeTime split the solve wall clock;
	// ExchangeTime is the reconcile's.
	// PartitionTime covers both cuts: the topology into regions and the
	// TDG into chunks (its topological sort included). What the three
	// leave out of the solve time is materialization and finishPlan.
	PartitionTime, RegionTime, ExchangeTime time.Duration
}

func (s ShardedGreedy) seed() int64 {
	if s.Seed != 0 {
		return s.Seed
	}
	return 1
}

// Solve implements Solver.
func (s ShardedGreedy) Solve(g *tdg.Graph, topo *network.Topology, opts Options) (*Plan, error) {
	p, _, err := s.SolveStats(g, topo, opts)
	return p, err
}

// SolveStats is Solve plus the sharding statistics. It is the one
// dispatch between the sharded and the whole-graph solve: no sharding
// requested, a warm seed (replans polish in place; re-sharding would
// discard the seed), a TDG too small to cut k ways, or a topology the
// partitioner or a region solve cannot handle all run Greedy.
func (s ShardedGreedy) SolveStats(g *tdg.Graph, topo *network.Topology, opts Options) (*Plan, ShardStats, error) {
	start := time.Now()
	k := opts.Shards
	st := ShardStats{Shards: k}
	if k <= 1 || opts.Warm != nil || g.NumNodes() < 2*k {
		return s.fallback(g, topo, opts, &st)
	}

	part := s.Partition
	if part == nil || part.NumRegions() != k || !partitionMatches(part, topo) {
		var err error
		if part, err = network.PartitionRegions(topo, k, s.seed()); err != nil {
			return s.fallback(g, topo, opts, &st)
		}
	}
	st.BoundaryLinks = len(part.BoundaryLinks())

	rm := opts.resourceModel()
	chunks, err := chunkTDG(g, part, rm)
	if err != nil {
		return nil, st, err
	}
	st.PartitionTime = time.Since(start)

	regionStart := time.Now()
	assign, err := s.solveRegions(g, topo, part, chunks, opts)
	if err != nil {
		// A region that cannot host its chunk (capacity/packing edge
		// cases) demotes the solve to whole-graph rather than failing a
		// deployable instance.
		return s.fallback(g, topo, opts, &st)
	}
	st.RegionTime = time.Since(regionStart)

	exStart := time.Now()
	if err := reconcile(g, topo, part, assign, opts, rm, &st); err != nil {
		return nil, st, err
	}
	st.ExchangeTime = time.Since(exStart)

	plan, err := materializeAssignment(g, topo, assign, rm)
	if err != nil {
		return nil, st, fmt.Errorf("shard: materialize: %w", err)
	}
	plan.SolverName = s.Name()
	if opts.Epsilon2 > 0 && plan.QOcc() > opts.Epsilon2 {
		return nil, st, fmt.Errorf("shard: plan occupies %d switches, ε2=%d", plan.QOcc(), opts.Epsilon2)
	}
	if opts.Epsilon1 > 0 && plan.TE2E() > opts.Epsilon1 {
		return nil, st, fmt.Errorf("shard: plan latency %v exceeds ε1=%v", plan.TE2E(), opts.Epsilon1)
	}
	if plan, err = finishPlan(plan, opts); err != nil {
		return nil, st, err
	}
	plan.SolveTime = time.Since(start)
	return plan, st, nil
}

// reconcile runs the one climb over a merged assignment, mutating it in
// place: the cold sharded solve's step 4 and a partitioned repair's
// escalation. The instance is compacted onto the switches assign uses
// (hostInstance), so its tables are U²-sized even at 10k switches, and
// every used host is a candidate. The dirty set is every MAT on a TDG
// edge whose endpoints sit in different regions or on a host pair at
// A_max; each is tried next to its TDG peers. ε1 is left to the
// finished plan's check: a merge past it can only get under through
// the moves. The climb's pass cap bounds the work, so the plan does
// not depend on host speed.
func reconcile(g *tdg.Graph, topo *network.Topology, part *network.Partition,
	assign map[string]network.SwitchID, opts Options, rm program.ResourceModel, st *ShardStats) error {

	used := map[network.SwitchID]bool{}
	for _, u := range assign {
		used[u] = true
	}
	hosts := make([]network.SwitchID, 0, len(used))
	for u := range used {
		hosts = append(hosts, u)
	}
	slices.Sort(hosts)
	names := g.NodeNames()
	sort.Strings(names)
	ci, hostIdx, sws, err := hostInstance(g, topo, hosts, names, rm)
	if err != nil {
		return err
	}
	var wt *WeightTable
	if opts.Traffic != nil {
		// The host instance is links-free, so the compacted weights come
		// from the global pair rates, routed on the real topology.
		rates, err := opts.Traffic.PairRates(topo)
		if err != nil {
			return err
		}
		wt = NewWeightTable(rates, int32(topo.NumSwitches())).Compact(hosts)
	}
	dense := make([]int32, len(ci.Names))
	for x, name := range ci.Names {
		dense[x] = hostIdx[assign[name]]
	}
	cands := make([]int32, len(hosts))
	for i := range cands {
		cands[i] = int32(i)
	}
	in := newRepairInstance(ci, sws, cands, dense, wt)
	ci.FillPairTable(dense, in.pt)
	amax := in.pt.Max()

	dirty := make([]bool, len(dense))
	for ei, from := range ci.EdgeFrom {
		to := ci.EdgeTo[ei]
		ua, ub := dense[from], dense[to]
		if ua == ub {
			continue
		}
		if part.RegionOf(hosts[ua]) != part.RegionOf(hosts[ub]) || int(in.pt.Cells[ua*ci.S+ub]) == amax {
			dirty[from], dirty[to] = true, true
		}
	}
	var xs []int32
	for x, d := range dirty {
		if d {
			xs = append(xs, int32(x))
		}
	}

	copts := opts
	copts.Epsilon1 = 0
	st.Hosts = len(hosts)
	st.AMaxBefore = amax
	st.Rounds, st.Moves = in.climb(copts, xs, peerTargets)
	st.AMaxAfter = in.pt.Max()
	for x, name := range ci.Names {
		assign[name] = hosts[dense[x]]
	}
	return nil
}

// partitionMatches reports whether a standing partition can be reused
// for a solve over topo: same switch count and identical programmable
// capacity per switch. Region solves build their sub-topologies from
// the partition's stored topology, so a drained or re-specced clone
// must re-partition — reusing the stale view would place MATs on
// switches the solve topology no longer offers.
func partitionMatches(part *network.Partition, topo *network.Topology) bool {
	pt := part.Topology()
	if pt.NumSwitches() != topo.NumSwitches() {
		return false
	}
	for _, sw := range topo.Switches() {
		psw, err := pt.Switch(sw.ID)
		if err != nil {
			return false
		}
		if psw.Programmable != sw.Programmable || psw.Stages != sw.Stages ||
			psw.StageCapacity != sw.StageCapacity {
			return false
		}
	}
	return true
}

// fallback runs whole-graph Greedy with the caller's options.
func (s ShardedGreedy) fallback(g *tdg.Graph, topo *network.Topology, opts Options, st *ShardStats) (*Plan, ShardStats, error) {
	st.FellBack = true
	p, err := Greedy{}.Solve(g, topo, opts)
	if p != nil {
		p.SolverName = s.Name()
	}
	return p, *st, err
}

// chunkTDG cuts the merged TDG into k contiguous topo-order chunks,
// one per region, sized proportionally to region programmable capacity.
// Cut points are chosen within a balance window to minimize crossing
// metadata bytes (the sweep uses the DAG property: every edge goes
// forward in topo order, so crossing(p) updates in O(deg) per step).
// Contiguity guarantees cross-chunk edges always point from a lower
// chunk to a higher one, so the merged region-level assignment starts
// acyclic.
func chunkTDG(g *tdg.Graph, part *network.Partition, rm program.ResourceModel) ([][]string, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	n := len(order)
	cum := make([]float64, n+1)    // cum[p] = requirement of order[:p]
	crossing := make([]int64, n+1) // crossing[p] = bytes across cut at p
	maxReq := 0.0
	//hermes:hot
	for i, name := range order {
		node, _ := g.Node(name)
		r := rm.Requirement(node.MAT)
		cum[i+1] = cum[i] + r
		if r > maxReq {
			maxReq = r
		}
		var ob, ib int64
		for _, e := range g.OutEdgeList(name) {
			ob += int64(e.MetadataBytes)
		}
		for _, e := range g.InEdgeList(name) {
			ib += int64(e.MetadataBytes)
		}
		crossing[i+1] = crossing[i] + ob - ib
	}
	totalReq := cum[n]

	k := part.NumRegions()
	caps := make([]float64, k)
	capTotal := 0.0
	for r := 0; r < k; r++ {
		caps[r] = part.RegionCapacity(r)
		capTotal += caps[r]
	}
	if capTotal <= 0 {
		return nil, fmt.Errorf("shard: partition has no programmable capacity")
	}

	// window: how far a cut may drift from its capacity-proportional
	// target in requirement units; at least one max-size MAT so a valid
	// position always exists.
	window := 0.10 * totalReq / float64(k)
	if window < maxReq {
		window = maxReq
	}
	cuts := make([]int, k+1)
	cuts[k] = n
	capPrefix := 0.0
	prev := 0
	for r := 0; r < k-1; r++ {
		capPrefix += caps[r]
		if caps[r] == 0 {
			cuts[r+1] = prev // zero-capacity region hosts nothing
			continue
		}
		target := totalReq * capPrefix / capTotal
		lo := sort.Search(n+1, func(p int) bool { return cum[p] >= target-window })
		hi := sort.Search(n+1, func(p int) bool { return cum[p] > target+window })
		if lo < prev {
			lo = prev
		}
		if hi > n {
			hi = n
		}
		best := -1
		for p := lo; p <= hi; p++ {
			if best < 0 || crossing[p] < crossing[best] {
				best = p
			}
		}
		if best < 0 {
			best = prev
		}
		cuts[r+1] = best
		prev = best
	}
	chunks := make([][]string, k)
	for r := 0; r < k; r++ {
		chunks[r] = order[cuts[r]:cuts[r+1]]
	}
	return chunks, nil
}

// solveRegions runs one compiled Greedy per non-empty chunk on its
// region sub-topology. Regions solve concurrently under Options.Workers;
// every inner solve runs with Workers=1, so no nested parallelism arises
// and the per-region plan is byte-identical to a serial solve (the
// regression test asserts both). The returned assignment maps every MAT
// to a global switch ID.
func (s ShardedGreedy) solveRegions(g *tdg.Graph, topo *network.Topology, part *network.Partition, chunks [][]string, opts Options) (map[string]network.SwitchID, error) {
	k := part.NumRegions()
	results := make([]map[string]network.SwitchID, k)
	errs := make([]error, k)
	inner := Greedy{}
	ropts := Options{
		Epsilon1:         opts.Epsilon1,
		Deadline:         opts.Deadline,
		Resources:        opts.Resources,
		Workers:          1, // no nested parallelism under the region pool
		Ctx:              opts.Ctx,
		TrafficObjective: opts.TrafficObjective,
		AMaxSlack:        opts.AMaxSlack,
	}
	parallelFor(k, opts.workers(), func(r int) {
		if len(chunks[r]) == 0 {
			results[r] = map[string]network.SwitchID{}
			return
		}
		sub, err := g.Subgraph(chunks[r])
		if err != nil {
			errs[r] = err
			return
		}
		topoR, members, err := part.SubTopology(r)
		if err != nil {
			errs[r] = err
			return
		}
		iopts := ropts
		if opts.Traffic != nil {
			// Each region solves under the global pair rates compacted
			// onto its member ID space (Restrict drops only demand
			// between non-members; the member-pair rates keep their
			// global transit contributions).
			tm, err := opts.Traffic.Restrict(topo, members)
			if err != nil {
				errs[r] = fmt.Errorf("shard: region %d traffic: %w", r, err)
				return
			}
			iopts.Traffic = tm
		}
		plan, err := inner.Solve(sub, topoR, iopts)
		if err != nil {
			errs[r] = fmt.Errorf("shard: region %d: %w", r, err)
			return
		}
		m := make(map[string]network.SwitchID, len(plan.Assignments))
		for name, sp := range plan.Assignments {
			m[name] = members[sp.Switch] // local → global switch ID
		}
		results[r] = m
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	merged := make(map[string]network.SwitchID, g.NumNodes())
	for _, m := range results {
		for name, u := range m {
			merged[name] = u
		}
	}
	if len(merged) != g.NumNodes() {
		return nil, fmt.Errorf("shard: merged assignment covers %d of %d MATs", len(merged), g.NumNodes())
	}
	return merged, nil
}
