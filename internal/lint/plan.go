package lint

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
)

// resourceTol mirrors the numeric tolerance Plan.Validate applies to
// requirement and capacity sums. The value is re-stated here on
// purpose: the lint pass is an independent implementation and must not
// share constants with the code it checks.
const resourceTol = 1e-6

// LintPlan re-implements every constraint of problem P#1 (Eq. 4–9)
// from scratch and checks the plan against them, without calling
// Plan.Validate. Findings with Oracle set correspond to constraints
// Plan.Validate also enforces; CheckPlanOracle diffs the two verdicts.
//
// Every check is one linear pass on node ids and dense switch ids:
// each node's placement is read from the plan's by-id store, which
// LintPlan re-adopts from Assignments at entry; one walk folds the
// stage amounts into per-switch load slabs and numbers the occupied
// switches, the edge rules (HL105, HL106, HL111) and the pair table
// HL109/HL110 read share one walk of the graph's edge list, and a route
// is checked once per switch pair.
// The findings' order comes from Findings.Sort alone.
func LintPlan(p *placement.Plan, rm program.ResourceModel, eps1 time.Duration, eps2 int) Findings {
	if p == nil || p.Graph == nil || p.Topo == nil {
		return Findings{{Rule: "HL000", Severity: Error, Message: "nil or incomplete plan", Oracle: true}}
	}
	// The mutation tests tamper with Assignments in place; HL109's
	// accessor cross-check must see the live plan, not a memoized pair
	// table from before the tampering, and the walks below read the
	// by-id store re-adopted from Assignments.
	p.InvalidateCache()

	occ := newOccupancy(p.Topo)
	fs := lintDeploymentVars(p, rm, occ)
	fs = append(fs, lintStageCapacity(p, occ)...)
	edges, pairs := lintEdgeConstraints(p, occ)
	fs = append(fs, edges...)
	fs = append(fs, lintSwitchDAG(p, occ, pairs)...)
	fs = append(fs, lintObjectives(p, len(occ.ids), pairs, eps1, eps2)...)
	fs.Sort()
	return fs
}

// occupancy numbers the switches the plan's graph nodes occupy — IDs
// outside the topology included — and holds the per-stage loads of the
// programmable ones. While assignments are folded in, a switch in the
// topology gets a compact index in first-seen order (slot[sw] = index +
// 1); finish then lays every occupied switch out in ascending ID order,
// the dense ids the pair table and the contraction use.
type occupancy struct {
	topo *network.Topology
	slot []int32
	// base[c] is where compact switch c's stage loads start in load
	// (-1 for a switch that hosts no stage: non-programmable); its
	// length is the number of the topology's occupied switches.
	base []int32
	load []float64
	// spill holds the amounts a window places outside its switch's
	// pipeline, in the order they were added.
	spill []spilled
	// outside lists occupied IDs the topology does not have.
	outside []network.SwitchID

	// ids is every occupied switch, ascending; rank[c] is compact
	// switch c's position in it.
	ids  []network.SwitchID
	rank []int32
}

// spilled is one stage amount outside its switch's pipeline.
type spilled struct {
	sw    network.SwitchID
	stage int
	amt   float64
}

func newOccupancy(t *network.Topology) *occupancy {
	return &occupancy{topo: t, slot: make([]int32, t.NumSwitches())}
}

// add records that sp occupies its switch and, on a programmable
// switch, folds its stage amounts into the loads. Float addition is not
// associative and HL104 reports the sum, so callers add in a fixed
// order: graph nodes by insertion id.
func (o *occupancy) add(sp placement.StagePlacement) {
	if sp.Switch < 0 || int(sp.Switch) >= len(o.slot) {
		o.outside = append(o.outside, sp.Switch)
		return
	}
	c := o.slot[sp.Switch] - 1
	sw, _ := o.topo.Switch(sp.Switch)
	if c < 0 {
		c = int32(len(o.base))
		o.slot[sp.Switch] = c + 1
		if sw.Programmable {
			n := len(o.load)
			o.base = append(o.base, int32(n))
			o.load = slices.Grow(o.load, sw.Stages)[:n+sw.Stages]
			clear(o.load[n:])
		} else {
			o.base = append(o.base, -1)
		}
	}
	if o.base[c] < 0 {
		return // HL102 already covers it
	}
	stages := o.load[o.base[c] : o.base[c]+int32(sw.Stages)]
	for i, amt := range sp.PerStage {
		if st := sp.Start + i; st >= 0 && st < len(stages) {
			stages[st] += amt
		} else {
			o.spill = append(o.spill, spilled{sp.Switch, st, amt})
		}
	}
}

// finish numbers the occupied switches in ascending ID order.
func (o *occupancy) finish() {
	slices.Sort(o.outside)
	o.outside = slices.Compact(o.outside)
	below, _ := slices.BinarySearch(o.outside, 0)
	o.ids = make([]network.SwitchID, 0, len(o.base)+len(o.outside))
	o.ids = append(o.ids, o.outside[:below]...)
	o.rank = make([]int32, len(o.base))
	for sw, c := range o.slot {
		if c > 0 {
			o.rank[c-1] = int32(len(o.ids))
			o.ids = append(o.ids, network.SwitchID(sw))
		}
	}
	o.ids = append(o.ids, o.outside[below:]...)
}

// denseOf returns occupied switch sw's dense id.
func (o *occupancy) denseOf(sw network.SwitchID) int32 {
	if sw >= 0 && int(sw) < len(o.slot) {
		return o.rank[o.slot[sw]-1]
	}
	i, _ := slices.BinarySearch(o.ids, sw)
	return int32(i)
}

// lintDeploymentVars checks Eq. 6 node deployment and the Eq. 8 stage
// window shape per MAT: every MAT lands on a programmable switch, in a
// contiguous ρ_begin..ρ_end run inside the pipeline, with exactly its
// requirement placed (HL101–HL103), and no MAT outside the graph is
// placed (HL101). It reads the plan's by-id store and folds every
// node's placement into occ by insertion id.
func lintDeploymentVars(p *placement.Plan, rm program.ResourceModel, occ *occupancy) Findings {
	var fs Findings
	placed := 0
	//hermes:hot
	for id, sp := range p.Placements() {
		node := p.Graph.NodeOf(int32(id))
		name := node.Name()
		if !sp.Placed() {
			fs = append(fs, Finding{Rule: "HL101", Severity: Error, Eq: 6, Oracle: true,
				Object:  name,
				Message: fmt.Sprintf("MAT %q has no placement (Eq. 6: every MAT must be deployed)", name),
				Hint:    "the solver dropped the MAT; rerun with more capacity or fewer constraints"})
			continue
		}
		placed++
		occ.add(sp)
		if f, bad := lintPlacement(p, rm, node.MAT, name, sp); bad {
			fs = append(fs, f)
		}
	}
	if placed < len(p.Assignments) {
		for name := range p.Assignments {
			if _, ok := p.Graph.ID(name); !ok {
				fs = append(fs, Finding{Rule: "HL101", Severity: Error, Eq: 6, Oracle: true,
					Object:  name,
					Message: fmt.Sprintf("MAT %q is placed but is not in the plan's graph (Eq. 6)", name),
					Hint:    "x(a,i,u) exists only for the merged TDG's MATs: drop the assignment"})
			}
		}
	}
	occ.finish()
	return fs
}

// lintPlacement checks one graph node's placement and returns the first
// rule it breaks.
func lintPlacement(p *placement.Plan, rm program.ResourceModel, mat *program.MAT, name string, sp placement.StagePlacement) (Finding, bool) {
	sw, err := p.Topo.Switch(sp.Switch)
	if err != nil {
		return Finding{Rule: "HL102", Severity: Error, Eq: 6, Oracle: true,
			Object:  name,
			Message: fmt.Sprintf("MAT %q assigned to unknown %s", name, placement.SwitchLabel(p.Topo, sp.Switch))}, true
	}
	if !sw.Programmable {
		return Finding{Rule: "HL102", Severity: Error, Eq: 6, Oracle: true,
			Object:  name,
			Message: fmt.Sprintf("MAT %q assigned to non-programmable %s", name, placement.SwitchLabel(p.Topo, sp.Switch)),
			Hint:    "only switches with P(u)=1 may host MATs"}, true
	}
	if p.Topo.SwitchIsDown(sp.Switch) {
		return Finding{Rule: "HL112", Severity: Error, Eq: 6, Oracle: true,
			Object:  name,
			Message: fmt.Sprintf("MAT %q assigned to %s, which is marked down in the topology's fault state", name, placement.SwitchLabel(p.Topo, sp.Switch)),
			Hint:    "replan around the failure (the supervisor does this automatically) or heal the switch"}, true
	}
	if sp.Start < 0 || sp.End >= sw.Stages || sp.Start > sp.End {
		return Finding{Rule: "HL103", Severity: Error, Eq: 8, Oracle: true,
			Object: name,
			Message: fmt.Sprintf("MAT %q on %s occupies stage window [%d,%d] outside the pipeline 0..%d (ρ_begin/ρ_end)",
				name, placement.SwitchLabel(p.Topo, sp.Switch), sp.Start, sp.End, sw.Stages-1)}, true
	}
	if len(sp.PerStage) != sp.End-sp.Start+1 {
		return Finding{Rule: "HL103", Severity: Error, Eq: 8, Oracle: true,
			Object: name,
			Message: fmt.Sprintf("MAT %q on %s: per-stage slice has %d entries for stage window [%d,%d] (contiguity broken)",
				name, placement.SwitchLabel(p.Topo, sp.Switch), len(sp.PerStage), sp.Start, sp.End)}, true
	}
	total, negative := 0.0, false
	for _, amt := range sp.PerStage {
		if amt < -1e-12 {
			negative = true
		}
		total += amt
	}
	if negative {
		return Finding{Rule: "HL103", Severity: Error, Eq: 6, Oracle: true,
			Object:  name,
			Message: fmt.Sprintf("MAT %q on %s has a negative per-stage amount", name, placement.SwitchLabel(p.Topo, sp.Switch))}, true
	}
	if req := rm.Requirement(mat); math.Abs(total-req) > resourceTol {
		return Finding{Rule: "HL103", Severity: Error, Eq: 6, Oracle: true,
			Object: name,
			Message: fmt.Sprintf("MAT %q on %s places %g of its required %g resources (Eq. 6: the full requirement must land)",
				name, placement.SwitchLabel(p.Topo, sp.Switch), total, req)}, true
	}
	return Finding{}, false
}

// lintStageCapacity checks Eq. 9 (HL104) on the loads occ folded,
// switches by ascending ID and each switch's stages in order — the
// stages outside its pipeline that some window reached included.
func lintStageCapacity(p *placement.Plan, occ *occupancy) Findings {
	// A spilled stage's load is its amounts summed in the order they
	// were added; the stable sort keeps that order within a stage.
	slices.SortStableFunc(occ.spill, func(a, b spilled) int {
		if c := cmp.Compare(a.sw, b.sw); c != 0 {
			return c
		}
		return cmp.Compare(a.stage, b.stage)
	})
	var fs Findings
	check := func(sw *network.Switch, stage int, load float64) {
		if load > sw.StageCapacity+resourceTol {
			fs = append(fs, Finding{Rule: "HL104", Severity: Error, Eq: 9, Oracle: true,
				Object: fmt.Sprintf("switch:%s", sw.Name),
				Message: fmt.Sprintf("%s stage %d carries %g of capacity %g (Eq. 9)",
					placement.SwitchLabel(p.Topo, sw.ID), stage, load, sw.StageCapacity),
				Hint: "spread the MATs across more stages or switches"})
		}
	}
	// checkSpill checks sw's spilled stages in [lo, hi) from the front
	// of spill and returns the rest.
	checkSpill := func(sw *network.Switch, spill []spilled, lo, hi int) []spilled {
		for len(spill) > 0 && spill[0].sw == sw.ID && spill[0].stage >= lo && spill[0].stage < hi {
			stage, load := spill[0].stage, 0.0
			for len(spill) > 0 && spill[0].sw == sw.ID && spill[0].stage == stage {
				load += spill[0].amt
				spill = spill[1:]
			}
			check(sw, stage, load)
		}
		return spill
	}
	spill := occ.spill
	for _, id := range occ.ids {
		if id < 0 || int(id) >= len(occ.slot) {
			continue
		}
		c := occ.slot[id] - 1
		if occ.base[c] < 0 {
			continue
		}
		sw, _ := p.Topo.Switch(id)
		spill = checkSpill(sw, spill, math.MinInt, 0)
		for i, load := range occ.load[occ.base[c] : occ.base[c]+int32(sw.Stages)] {
			check(sw, i, load)
		}
		spill = checkSpill(sw, spill, sw.Stages, math.MaxInt)
	}
	return fs
}

// pairSum is one ordered switch pair some cross-switch edge connects:
// its Σ A(a,b), and the verdict on its route, which depends on the pair
// alone and so is reached once per pair, not once per edge.
type pairSum struct {
	// from and to are the pair's dense switch ids.
	from, to int32
	bytes    int
	route    routeVerdict
	// latency is the recorded route latency (zero when routeMissing).
	latency time.Duration
	// phys holds the HL111 findings of a connecting route.
	phys Findings
}

// routeVerdict is what HL106 concludes about one switch pair's route.
type routeVerdict uint8

const (
	routeConnects routeVerdict = iota
	routeMissing
	routeDisconnected
)

// lintEdgeConstraints walks every TDG edge once, in insertion order:
// co-located pairs must obey intra-switch stage order (Eq. 8, HL105);
// cross-switch pairs need a route connecting exactly their switches
// (Eq. 7, HL106), and the route must traverse real links with a
// truthful latency (HL111 — stricter than Plan.Validate, hence not an
// oracle finding). A route's verdict is reached once per switch pair
// and reported once per crossing edge. The walk also sums each pair's
// A(a,b); a pair is found among its source switch's pairs, chained
// from first[from dense id]. The pairs come back sorted by (From, To).
func lintEdgeConstraints(p *placement.Plan, occ *occupancy) (Findings, []pairSum) {
	at := p.Placements()
	var fs Findings
	var pairs []pairSum
	var next []int32
	first := make([]int32, len(occ.ids))
	for i := range first {
		first[i] = -1
	}
	//hermes:hot
	for _, e := range p.Graph.EdgeList() {
		from, to := e.Endpoints()
		sa, sb := &at[from], &at[to]
		if !sa.Placed() || !sb.Placed() {
			continue // HL101 already covers it
		}
		if sa.Switch == sb.Switch {
			if sa.End >= sb.Start {
				fs = append(fs, Finding{Rule: "HL105", Severity: Error, Eq: 8, Oracle: true,
					Object: e.From + "->" + e.To,
					Message: fmt.Sprintf("co-located dependency %s->%s on %s: upstream ends in stage %d, downstream starts in stage %d (Eq. 8 needs ρ_end(a) < ρ_begin(b))",
						e.From, e.To, placement.SwitchLabel(p.Topo, sa.Switch), sa.End, sb.Start)})
			}
			continue
		}
		u, v := occ.denseOf(sa.Switch), occ.denseOf(sb.Switch)
		i := first[u]
		for i >= 0 && pairs[i].to != v {
			i = next[i]
		}
		if i < 0 {
			i = int32(len(pairs))
			pr := lintRoute(p, placement.RouteKey{From: sa.Switch, To: sb.Switch})
			pr.from, pr.to = u, v
			pairs = append(pairs, pr)
			next = append(next, first[u])
			first[u] = i
		}
		pr := &pairs[i]
		pr.bytes += e.MetadataBytes
		switch pr.route {
		case routeMissing:
			fs = append(fs, Finding{Rule: "HL106", Severity: Error, Eq: 7, Oracle: true,
				Object: e.From + "->" + e.To,
				Message: fmt.Sprintf("cross-switch dependency %s->%s has no route %s -> %s (Eq. 7)",
					e.From, e.To, placement.SwitchLabel(p.Topo, sa.Switch), placement.SwitchLabel(p.Topo, sb.Switch))})
		case routeDisconnected:
			fs = append(fs, Finding{Rule: "HL106", Severity: Error, Eq: 7, Oracle: true,
				Object: e.From + "->" + e.To,
				Message: fmt.Sprintf("route for %s->%s does not connect %s to %s",
					e.From, e.To, placement.SwitchLabel(p.Topo, sa.Switch), placement.SwitchLabel(p.Topo, sb.Switch))})
		default:
			fs = append(fs, pr.phys...)
		}
	}
	slices.SortFunc(pairs, func(a, b pairSum) int {
		if c := cmp.Compare(a.from, b.from); c != 0 {
			return c
		}
		return cmp.Compare(a.to, b.to)
	})
	return fs, pairs
}

// lintRoute reaches the verdict on one switch pair's route: missing,
// not connecting the pair's endpoints, or connecting them — and then
// physically checked hop by hop.
func lintRoute(p *placement.Plan, key placement.RouteKey) pairSum {
	var pr pairSum
	path, ok := p.Routes[key]
	switch {
	case !ok:
		pr.route = routeMissing
	case len(path.Switches) == 0 || path.Switches[0] != key.From || path.Switches[len(path.Switches)-1] != key.To:
		pr.route, pr.latency = routeDisconnected, path.Latency
	default:
		pr.latency = path.Latency
		pr.phys = lintRoutePhysical(p, key, path)
	}
	return pr
}

// lintRoutePhysical verifies a route hop by hop against the topology:
// every consecutive pair must be an actual link, and the recorded
// latency must equal the recomputed transit+link sum (HL111).
func lintRoutePhysical(p *placement.Plan, key placement.RouteKey, path network.Path) Findings {
	// The finding is built only on failure: a clean route allocates
	// nothing.
	finding := func(format string, args ...any) Findings {
		args = append([]any{placement.SwitchLabel(p.Topo, key.From), placement.SwitchLabel(p.Topo, key.To)}, args...)
		return Findings{{Rule: "HL111", Severity: Error, Object: fmt.Sprintf("route:%d->%d", key.From, key.To),
			Message: fmt.Sprintf("route %s -> %s "+format, args...)}}
	}
	var total time.Duration
	for i, id := range path.Switches {
		sw, err := p.Topo.Switch(id)
		if err != nil {
			return finding("visits unknown switch %d", id)
		}
		total += sw.TransitLatency
		if i == 0 {
			continue
		}
		link, ok := p.Topo.LinkBetween(path.Switches[i-1], id)
		if !ok {
			return finding("hops %s -> %s without a link",
				placement.SwitchLabel(p.Topo, path.Switches[i-1]), placement.SwitchLabel(p.Topo, id))
		}
		total += link.Latency
	}
	if total != path.Latency {
		return finding("records latency %v, links and transit sum to %v", path.Latency, total)
	}
	return nil
}

// lintSwitchDAG contracts the TDG by switch assignment and verifies
// the contraction is acyclic (HL110): a cyclic switch-level graph
// admits no single packet traversal respecting all dependencies. The
// contraction's vertices are the occupied switches by dense id and its
// arcs the distinct cross-switch pairs, sorted by (From, To), so each
// switch's arcs form one run of pairs.
func lintSwitchDAG(p *placement.Plan, occ *occupancy, pairs []pairSum) Findings {
	n := len(occ.ids)
	buf := make([]int32, 2*n+1)
	indeg := buf[:n]
	// head[u]..head[u+1] delimits switch u's run of pairs.
	head := buf[n:]
	for _, pr := range pairs {
		head[pr.from+1]++
		indeg[pr.to]++
	}
	for u := 0; u < n; u++ {
		head[u+1] += head[u]
	}
	var ready []int32
	for u, d := range indeg {
		if d == 0 {
			ready = append(ready, int32(u))
		}
	}
	done := 0
	for len(ready) > 0 {
		u := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		done++
		for _, pr := range pairs[head[u]:head[u+1]] {
			indeg[pr.to]--
			if indeg[pr.to] == 0 {
				ready = append(ready, pr.to)
			}
		}
	}
	if done == n {
		return nil
	}
	var stuck []string
	for u, d := range indeg {
		if d > 0 {
			stuck = append(stuck, placement.SwitchLabel(p.Topo, occ.ids[u]))
		}
	}
	sort.Strings(stuck)
	return Findings{{Rule: "HL110", Severity: Error, Oracle: true,
		Message: fmt.Sprintf("switch-level dependency graph is cyclic among %v: no packet route can respect all dependencies", stuck),
		Hint:    "co-locate the cycle's MATs or move one endpoint"}}
}

// lintObjectives recomputes A_max, t_e2e, and Q_occ from the raw
// decision variables — the pair table the edge walk summed, and the
// occupied-switch count — checks the ε bounds (Eq. 4/5: HL107/HL108),
// and diffs each recomputation against the Plan's own accessors
// (HL109).
func lintObjectives(p *placement.Plan, qocc int, pairs []pairSum, eps1 time.Duration, eps2 int) Findings {
	var fs Findings
	amax := 0
	var te2e time.Duration
	for _, pr := range pairs {
		amax = max(amax, pr.bytes)
		if pr.route != routeMissing {
			te2e += pr.latency
		}
	}
	if eps1 > 0 && te2e > eps1 {
		fs = append(fs, Finding{Rule: "HL107", Severity: Error, Eq: 4, Oracle: true,
			Message: fmt.Sprintf("t_e2e %v exceeds ε1 %v (Eq. 4)", te2e, eps1)})
	}
	if eps2 > 0 && qocc > eps2 {
		fs = append(fs, Finding{Rule: "HL108", Severity: Error, Eq: 5, Oracle: true,
			Message: fmt.Sprintf("Q_occ %d exceeds ε2 %d (Eq. 5)", qocc, eps2)})
	}
	if got := p.AMax(); got != amax {
		fs = append(fs, Finding{Rule: "HL109", Severity: Error,
			Message: fmt.Sprintf("Plan.AMax() reports %dB, recomputation from assignments gives %dB", got, amax)})
	}
	if got := p.TE2E(); got != te2e {
		fs = append(fs, Finding{Rule: "HL109", Severity: Error,
			Message: fmt.Sprintf("Plan.TE2E() reports %v, recomputation from routes gives %v", got, te2e)})
	}
	if got := p.QOcc(); got != qocc {
		fs = append(fs, Finding{Rule: "HL109", Severity: Error,
			Message: fmt.Sprintf("Plan.QOcc() reports %d, recomputation from assignments gives %d", got, qocc)})
	}
	return fs
}

// CheckPlanOracle is the differential plan-invariant oracle: the
// independent HL1xx re-implementation and the production validators
// (Plan.Validate, then deploy.Compile + Deployment.Verify on plans
// both accept) must agree. Any divergence — lint rejects what Validate
// accepts, or vice versa — is returned as an error naming both
// verdicts; solver tests run it over Greedy and Exact output so
// a bug in any solver or either checker surfaces as a lint failure.
func CheckPlanOracle(p *placement.Plan, rm program.ResourceModel, eps1 time.Duration, eps2 int) error {
	fs := LintPlan(p, rm, eps1, eps2)
	oracle := fs.OracleErrors()
	verr := p.Validate(rm, eps1, eps2)
	switch {
	case verr == nil && len(oracle) > 0:
		return fmt.Errorf("oracle divergence: Plan.Validate accepts the plan but lint rejects it:\n%s", oracle.Text())
	case verr != nil && len(oracle) == 0:
		return fmt.Errorf("oracle divergence: Plan.Validate rejects the plan (%v) but lint finds no oracle error", verr)
	case verr != nil:
		// Both reject: agreement.
		return nil
	}
	// Both accept: the deployment backend must agree too.
	dep, err := deploy.Compile(p, analyzer.Options{})
	if err != nil {
		return fmt.Errorf("oracle divergence: plan passes Validate and lint but deploy.Compile fails: %w", err)
	}
	if err := dep.Verify(); err != nil {
		return fmt.Errorf("oracle divergence: plan passes Validate and lint but Deployment.Verify fails: %w", err)
	}
	// Non-oracle strict findings (HL109/HL111) still indicate internal
	// inconsistency even on Validate-clean plans.
	var strict Findings
	for _, f := range fs {
		if !f.Oracle && f.Severity == Error {
			strict = append(strict, f)
		}
	}
	if len(strict) > 0 {
		return fmt.Errorf("plan passes Validate but fails strict lint checks:\n%s", strict.Text())
	}
	return nil
}
