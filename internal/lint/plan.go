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
// Every check is one linear pass: each node's placement is resolved
// once into a slice indexed by insertion id, the edge rules (HL105,
// HL106, HL111) and the pair table HL109/HL110 read share one walk of
// the graph's edge list, and a route is checked once per switch pair.
// The findings' order comes from Findings.Sort alone.
func LintPlan(p *placement.Plan, rm program.ResourceModel, eps1 time.Duration, eps2 int) Findings {
	if p == nil || p.Graph == nil || p.Topo == nil {
		return Findings{{Rule: "HL000", Severity: Error, Message: "nil or incomplete plan", Oracle: true}}
	}
	// The mutation tests tamper with Assignments in place; HL109's
	// accessor cross-check must see the live plan, not a memoized pair
	// table from before the tampering.
	p.InvalidateCache()

	fs, at := lintDeploymentVars(p, rm)
	fs = append(fs, lintStageCapacity(p, at)...)
	edges, pairs := lintEdgeConstraints(p, at)
	fs = append(fs, edges...)
	switches := occupiedSwitches(p)
	fs = append(fs, lintSwitchDAG(p, switches, pairs)...)
	fs = append(fs, lintObjectives(p, len(switches), pairs, eps1, eps2)...)
	fs.Sort()
	return fs
}

// nodePlacement is one graph node's assignment, resolved once so the
// edge walk indexes a slice by Edge.Endpoints instead of hashing both
// MAT names per edge.
type nodePlacement struct {
	sp placement.StagePlacement
	ok bool
}

// routeVerdict is what HL106 concludes about one switch pair's route.
type routeVerdict uint8

const (
	routeConnects routeVerdict = iota
	routeMissing
	routeDisconnected
)

// pairSum is one ordered switch pair some cross-switch edge connects:
// its Σ A(a,b), and the verdict on its route, which depends on the pair
// alone and so is reached once per pair, not once per edge.
type pairSum struct {
	key   placement.RouteKey
	bytes int
	route routeVerdict
	// latency is the recorded route latency (zero when routeMissing).
	latency time.Duration
	// phys holds the HL111 findings of a connecting route.
	phys Findings
}

// lintDeploymentVars checks Eq. 6 node deployment and the Eq. 8 stage
// window shape per MAT: every MAT lands on a programmable switch, in a
// contiguous ρ_begin..ρ_end run inside the pipeline, with exactly its
// requirement placed (HL101–HL103). It also returns every node's
// assignment by insertion id, valid or not, for the edge walk.
func lintDeploymentVars(p *placement.Plan, rm program.ResourceModel) (Findings, []nodePlacement) {
	var fs Findings
	nodes := p.Graph.Nodes()
	at := make([]nodePlacement, len(nodes))
	for i, n := range nodes {
		name := n.Name()
		sp, ok := p.Assignments[name]
		if !ok {
			fs = append(fs, Finding{Rule: "HL101", Severity: Error, Eq: 6, Oracle: true,
				Object:  name,
				Message: fmt.Sprintf("MAT %q has no placement (Eq. 6: every MAT must be deployed)", name),
				Hint:    "the solver dropped the MAT; rerun with more capacity or fewer constraints"})
			continue
		}
		at[i] = nodePlacement{sp: sp, ok: true}
		sw, err := p.Topo.Switch(sp.Switch)
		if err != nil {
			fs = append(fs, Finding{Rule: "HL102", Severity: Error, Eq: 6, Oracle: true,
				Object:  name,
				Message: fmt.Sprintf("MAT %q assigned to unknown %s", name, placement.SwitchLabel(p.Topo, sp.Switch))})
			continue
		}
		if !sw.Programmable {
			fs = append(fs, Finding{Rule: "HL102", Severity: Error, Eq: 6, Oracle: true,
				Object:  name,
				Message: fmt.Sprintf("MAT %q assigned to non-programmable %s", name, placement.SwitchLabel(p.Topo, sp.Switch)),
				Hint:    "only switches with P(u)=1 may host MATs"})
			continue
		}
		if p.Topo.SwitchIsDown(sp.Switch) {
			fs = append(fs, Finding{Rule: "HL112", Severity: Error, Eq: 6, Oracle: true,
				Object:  name,
				Message: fmt.Sprintf("MAT %q assigned to %s, which is marked down in the topology's fault state", name, placement.SwitchLabel(p.Topo, sp.Switch)),
				Hint:    "replan around the failure (the supervisor does this automatically) or heal the switch"})
			continue
		}
		if sp.Start < 0 || sp.End >= sw.Stages || sp.Start > sp.End {
			fs = append(fs, Finding{Rule: "HL103", Severity: Error, Eq: 8, Oracle: true,
				Object: name,
				Message: fmt.Sprintf("MAT %q on %s occupies stage window [%d,%d] outside the pipeline 0..%d (ρ_begin/ρ_end)",
					name, placement.SwitchLabel(p.Topo, sp.Switch), sp.Start, sp.End, sw.Stages-1)})
			continue
		}
		if len(sp.PerStage) != sp.End-sp.Start+1 {
			fs = append(fs, Finding{Rule: "HL103", Severity: Error, Eq: 8, Oracle: true,
				Object: name,
				Message: fmt.Sprintf("MAT %q on %s: per-stage slice has %d entries for stage window [%d,%d] (contiguity broken)",
					name, placement.SwitchLabel(p.Topo, sp.Switch), len(sp.PerStage), sp.Start, sp.End)})
			continue
		}
		total, negative := 0.0, false
		for _, amt := range sp.PerStage {
			if amt < -1e-12 {
				negative = true
			}
			total += amt
		}
		if negative {
			fs = append(fs, Finding{Rule: "HL103", Severity: Error, Eq: 6, Oracle: true,
				Object:  name,
				Message: fmt.Sprintf("MAT %q on %s has a negative per-stage amount", name, placement.SwitchLabel(p.Topo, sp.Switch))})
			continue
		}
		if req := rm.Requirement(n.MAT); math.Abs(total-req) > resourceTol {
			fs = append(fs, Finding{Rule: "HL103", Severity: Error, Eq: 6, Oracle: true,
				Object: name,
				Message: fmt.Sprintf("MAT %q on %s places %g of its required %g resources (Eq. 6: the full requirement must land)",
					name, placement.SwitchLabel(p.Topo, sp.Switch), total, req)})
		}
	}
	return fs, at
}

// lintStageCapacity re-accumulates per-stage loads and checks Eq. 9
// (HL104). Assignments for MATs outside the graph are folded in too —
// they consume real stages. Float addition is not associative and
// HL104 reports the sum, so loads accumulate in a fixed order: graph
// nodes by insertion id, then MATs outside the graph by name.
func lintStageCapacity(p *placement.Plan, at []nodePlacement) Findings {
	type slot struct {
		sw    network.SwitchID
		stage int
	}
	load := map[slot]float64{}
	add := func(sp placement.StagePlacement) {
		sw, err := p.Topo.Switch(sp.Switch)
		if err != nil || !sw.Programmable {
			return // HL102 already covers it
		}
		for i, amt := range sp.PerStage {
			load[slot{sp.Switch, sp.Start + i}] += amt
		}
	}
	placed := 0
	for _, np := range at {
		if np.ok {
			add(np.sp)
			placed++
		}
	}
	if placed < len(p.Assignments) {
		var outside []string
		for name := range p.Assignments {
			if _, ok := p.Graph.Node(name); !ok {
				outside = append(outside, name)
			}
		}
		sort.Strings(outside)
		for _, name := range outside {
			add(p.Assignments[name])
		}
	}
	keys := make([]slot, 0, len(load))
	for k := range load {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].sw != keys[j].sw {
			return keys[i].sw < keys[j].sw
		}
		return keys[i].stage < keys[j].stage
	})
	var fs Findings
	for _, k := range keys {
		sw, err := p.Topo.Switch(k.sw)
		if err != nil {
			continue
		}
		if load[k] > sw.StageCapacity+resourceTol {
			fs = append(fs, Finding{Rule: "HL104", Severity: Error, Eq: 9, Oracle: true,
				Object: fmt.Sprintf("switch:%s", sw.Name),
				Message: fmt.Sprintf("%s stage %d carries %g of capacity %g (Eq. 9)",
					placement.SwitchLabel(p.Topo, k.sw), k.stage, load[k], sw.StageCapacity),
				Hint: "spread the MATs across more stages or switches"})
		}
	}
	return fs
}

// lintEdgeConstraints walks every TDG edge once, in insertion order:
// co-located pairs must obey intra-switch stage order (Eq. 8, HL105);
// cross-switch pairs need a route connecting exactly their switches
// (Eq. 7, HL106), and the route must traverse real links with a
// truthful latency (HL111 — stricter than Plan.Validate, hence not an
// oracle finding). A route's verdict is reached once per switch pair
// and reported once per crossing edge. The walk also sums each pair's
// A(a,b); the pairs come back sorted by (From, To).
func lintEdgeConstraints(p *placement.Plan, at []nodePlacement) (Findings, []pairSum) {
	var fs Findings
	var pairs []pairSum
	idx := map[placement.RouteKey]int{}
	//hermes:hot
	for _, e := range p.Graph.EdgeList() {
		from, to := e.Endpoints()
		if !at[from].ok || !at[to].ok {
			continue // HL101 already covers it
		}
		sa, sb := &at[from].sp, &at[to].sp
		if sa.Switch == sb.Switch {
			if sa.End >= sb.Start {
				fs = append(fs, Finding{Rule: "HL105", Severity: Error, Eq: 8, Oracle: true,
					Object: e.From + "->" + e.To,
					Message: fmt.Sprintf("co-located dependency %s->%s on %s: upstream ends in stage %d, downstream starts in stage %d (Eq. 8 needs ρ_end(a) < ρ_begin(b))",
						e.From, e.To, placement.SwitchLabel(p.Topo, sa.Switch), sa.End, sb.Start)})
			}
			continue
		}
		key := placement.RouteKey{From: sa.Switch, To: sb.Switch}
		i, seen := idx[key]
		if !seen {
			i = len(pairs)
			idx[key] = i
			pairs = append(pairs, lintRoute(p, key))
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
		if c := cmp.Compare(a.key.From, b.key.From); c != 0 {
			return c
		}
		return cmp.Compare(a.key.To, b.key.To)
	})
	return fs, pairs
}

// lintRoute reaches the verdict on one switch pair's route: missing,
// not connecting the pair's endpoints, or connecting them — and then
// physically checked hop by hop.
func lintRoute(p *placement.Plan, key placement.RouteKey) pairSum {
	pr := pairSum{key: key}
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

// occupiedSwitches returns the distinct switches hosting any
// assignment — MATs outside the graph included — ascending.
func occupiedSwitches(p *placement.Plan) []network.SwitchID {
	sws := make([]network.SwitchID, 0, len(p.Assignments))
	for _, sp := range p.Assignments {
		sws = append(sws, sp.Switch)
	}
	slices.Sort(sws)
	return slices.Compact(sws)
}

// lintSwitchDAG contracts the TDG by switch assignment and verifies
// the contraction is acyclic (HL110): a cyclic switch-level graph
// admits no single packet traversal respecting all dependencies. The
// contraction's vertices are the occupied switches (ascending) and its
// arcs the distinct cross-switch pairs, sorted by (From, To), so each
// switch's arcs form one run of pairs.
func lintSwitchDAG(p *placement.Plan, switches []network.SwitchID, pairs []pairSum) Findings {
	id := func(sw network.SwitchID) int {
		i, _ := slices.BinarySearch(switches, sw)
		return i
	}
	n := len(switches)
	indeg := make([]int, n)
	// head[u]..head[u+1] delimits switch u's run of pairs.
	head := make([]int, n+1)
	for _, pr := range pairs {
		head[id(pr.key.From)+1]++
		indeg[id(pr.key.To)]++
	}
	for u := 0; u < n; u++ {
		head[u+1] += head[u]
	}
	var ready []int
	for u, d := range indeg {
		if d == 0 {
			ready = append(ready, u)
		}
	}
	done := 0
	for len(ready) > 0 {
		u := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		done++
		for _, pr := range pairs[head[u]:head[u+1]] {
			v := id(pr.key.To)
			indeg[v]--
			if indeg[v] == 0 {
				ready = append(ready, v)
			}
		}
	}
	if done == n {
		return nil
	}
	var stuck []string
	for u, d := range indeg {
		if d > 0 {
			stuck = append(stuck, placement.SwitchLabel(p.Topo, switches[u]))
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
