package lint

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

// The functions below are the post-repair gates as they stood before
// their single-pass rewrites, kept verbatim as the references the
// differential oracle in plan_oracle_test.go holds the production code
// to: LintPlan with three sorted Edges() copies, map-keyed endpoint
// lookups, route checks repeated per crossing edge and a map-of-maps
// switch DAG; Plan.SwitchOrder's map-of-maps Kahn sort re-sorting its
// ready list per step; and Deployment.Verify rescanning a switch's
// stages once per hosted MAT. lintStageCapacityRef departs from the
// original in the two ways marked there, and lintDeploymentVarsRef and
// lintObjectivesRef follow the rule that a plan places only its graph's
// MATs.

// lintPlanRef re-implements every constraint of problem P#1 (Eq. 4–9)
// from scratch and checks the plan against them, without calling
// Plan.Validate. Findings with Oracle set correspond to constraints
// Plan.Validate also enforces; CheckPlanOracle diffs the two verdicts.
func lintPlanRef(p *placement.Plan, rm program.ResourceModel, eps1 time.Duration, eps2 int) Findings {
	var fs Findings
	if p == nil || p.Graph == nil || p.Topo == nil {
		return Findings{{Rule: "HL000", Severity: Error, Message: "nil or incomplete plan", Oracle: true}}
	}
	// The mutation tests tamper with Assignments in place; HL109's
	// accessor cross-check must see the live plan, not a memoized pair
	// table from before the tampering.
	p.InvalidateCache()

	fs = append(fs, lintDeploymentVarsRef(p, rm)...)
	fs = append(fs, lintStageCapacityRef(p)...)
	fs = append(fs, lintEdgeConstraintsRef(p)...)
	fs = append(fs, lintSwitchDAGRef(p)...)
	fs = append(fs, lintObjectivesRef(p, eps1, eps2)...)
	fs.Sort()
	return fs
}

// lintDeploymentVarsRef checks Eq. 6 node deployment and the Eq. 8 stage
// window shape per MAT: every MAT lands on a programmable switch, in a
// contiguous ρ_begin..ρ_end run inside the pipeline, with exactly its
// requirement placed (HL101–HL103), and no MAT outside the graph is
// placed (HL101).
func lintDeploymentVarsRef(p *placement.Plan, rm program.ResourceModel) Findings {
	var fs Findings
	for name := range p.Assignments {
		if _, ok := p.Graph.Node(name); !ok {
			fs = append(fs, Finding{Rule: "HL101", Severity: Error, Eq: 6, Oracle: true,
				Object:  name,
				Message: fmt.Sprintf("MAT %q is placed but is not in the plan's graph (Eq. 6)", name),
				Hint:    "x(a,i,u) exists only for the merged TDG's MATs: drop the assignment"})
		}
	}
	for _, n := range p.Graph.Nodes() {
		name := n.Name()
		sp, ok := p.Assignments[name]
		if !ok {
			fs = append(fs, Finding{Rule: "HL101", Severity: Error, Eq: 6, Oracle: true,
				Object:  name,
				Message: fmt.Sprintf("MAT %q has no placement (Eq. 6: every MAT must be deployed)", name),
				Hint:    "the solver dropped the MAT; rerun with more capacity or fewer constraints"})
			continue
		}
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
	return fs
}

// lintStageCapacityRef re-accumulates per-stage loads and checks Eq. 9
// (HL104).
func lintStageCapacityRef(p *placement.Plan) Findings {
	type slot struct {
		sw    network.SwitchID
		stage int
	}
	load := map[slot]float64{}
	// The departures from the original: it summed in map order, so
	// HL104's reported load could differ in its last bits from run to
	// run, and it folded in the assignments of MATs outside the graph,
	// which HL101 now rejects. Both sides sum graph nodes in insertion
	// order.
	for _, n := range p.Graph.Nodes() {
		name := n.Name()
		sp, ok := p.Assignments[name]
		if !ok {
			continue
		}
		sw, err := p.Topo.Switch(sp.Switch)
		if err != nil || !sw.Programmable {
			continue // HL102 already covers it
		}
		for i, amt := range sp.PerStage {
			load[slot{sp.Switch, sp.Start + i}] += amt
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

// lintEdgeConstraintsRef walks every TDG edge: co-located pairs must obey
// intra-switch stage order (Eq. 8, HL105); cross-switch pairs need a
// route connecting exactly their switches (Eq. 7, HL106), and the
// route must traverse real links with a truthful latency (HL111 —
// stricter than Plan.Validate, hence not an oracle finding).
func lintEdgeConstraintsRef(p *placement.Plan) Findings {
	var fs Findings
	for _, e := range p.Graph.Edges() {
		sa, oka := p.Assignments[e.From]
		sb, okb := p.Assignments[e.To]
		if !oka || !okb {
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
		key := placement.RouteKey{From: sa.Switch, To: sb.Switch}
		path, ok := p.Routes[key]
		if !ok {
			fs = append(fs, Finding{Rule: "HL106", Severity: Error, Eq: 7, Oracle: true,
				Object: e.From + "->" + e.To,
				Message: fmt.Sprintf("cross-switch dependency %s->%s has no route %s -> %s (Eq. 7)",
					e.From, e.To, placement.SwitchLabel(p.Topo, sa.Switch), placement.SwitchLabel(p.Topo, sb.Switch))})
			continue
		}
		if len(path.Switches) == 0 || path.Switches[0] != sa.Switch || path.Switches[len(path.Switches)-1] != sb.Switch {
			fs = append(fs, Finding{Rule: "HL106", Severity: Error, Eq: 7, Oracle: true,
				Object: e.From + "->" + e.To,
				Message: fmt.Sprintf("route for %s->%s does not connect %s to %s",
					e.From, e.To, placement.SwitchLabel(p.Topo, sa.Switch), placement.SwitchLabel(p.Topo, sb.Switch))})
			continue
		}
		fs = append(fs, lintRoutePhysicalRef(p, key, path)...)
	}
	return fs
}

// lintRoutePhysicalRef verifies a route hop by hop against the topology:
// every consecutive pair must be an actual link, and the recorded
// latency must equal the recomputed transit+link sum (HL111).
func lintRoutePhysicalRef(p *placement.Plan, key placement.RouteKey, path network.Path) Findings {
	var fs Findings
	obj := fmt.Sprintf("route:%d->%d", key.From, key.To)
	var total time.Duration
	for i, id := range path.Switches {
		sw, err := p.Topo.Switch(id)
		if err != nil {
			return Findings{{Rule: "HL111", Severity: Error, Object: obj,
				Message: fmt.Sprintf("route %s -> %s visits unknown switch %d",
					placement.SwitchLabel(p.Topo, key.From), placement.SwitchLabel(p.Topo, key.To), id)}}
		}
		total += sw.TransitLatency
		if i == 0 {
			continue
		}
		link, ok := p.Topo.LinkBetween(path.Switches[i-1], id)
		if !ok {
			return Findings{{Rule: "HL111", Severity: Error, Object: obj,
				Message: fmt.Sprintf("route %s -> %s hops %s -> %s without a link",
					placement.SwitchLabel(p.Topo, key.From), placement.SwitchLabel(p.Topo, key.To),
					placement.SwitchLabel(p.Topo, path.Switches[i-1]), placement.SwitchLabel(p.Topo, id))}}
		}
		total += link.Latency
	}
	if total != path.Latency {
		fs = append(fs, Finding{Rule: "HL111", Severity: Error, Object: obj,
			Message: fmt.Sprintf("route %s -> %s records latency %v, links and transit sum to %v",
				placement.SwitchLabel(p.Topo, key.From), placement.SwitchLabel(p.Topo, key.To), path.Latency, total)})
	}
	return fs
}

// lintSwitchDAGRef contracts the TDG by switch assignment and verifies
// the contraction is acyclic (HL110): a cyclic switch-level graph
// admits no single packet traversal respecting all dependencies.
func lintSwitchDAGRef(p *placement.Plan) Findings {
	adj := map[network.SwitchID]map[network.SwitchID]bool{}
	nodes := map[network.SwitchID]bool{}
	for _, sp := range p.Assignments {
		nodes[sp.Switch] = true
	}
	for _, e := range p.Graph.Edges() {
		sa, oka := p.Assignments[e.From]
		sb, okb := p.Assignments[e.To]
		if !oka || !okb || sa.Switch == sb.Switch {
			continue
		}
		if adj[sa.Switch] == nil {
			adj[sa.Switch] = map[network.SwitchID]bool{}
		}
		adj[sa.Switch][sb.Switch] = true
	}
	indeg := map[network.SwitchID]int{}
	for id := range nodes {
		indeg[id] = 0
	}
	for _, tos := range adj {
		for to := range tos {
			indeg[to]++
		}
	}
	var ready []network.SwitchID
	for id := range nodes {
		if indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	done := 0
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		done++
		for to := range adj[id] {
			indeg[to]--
			if indeg[to] == 0 {
				ready = append(ready, to)
			}
		}
	}
	if done == len(nodes) {
		return nil
	}
	var stuck []string
	for id := range nodes {
		if indeg[id] > 0 {
			stuck = append(stuck, placement.SwitchLabel(p.Topo, id))
		}
	}
	sort.Strings(stuck)
	return Findings{{Rule: "HL110", Severity: Error, Oracle: true,
		Message: fmt.Sprintf("switch-level dependency graph is cyclic among %v: no packet route can respect all dependencies", stuck),
		Hint:    "co-locate the cycle's MATs or move one endpoint"}}
}

// lintObjectivesRef recomputes A_max, t_e2e, and Q_occ from the raw
// decision variables, checks the ε bounds (Eq. 4/5: HL107/HL108), and
// diffs each recomputation against the Plan's own accessors (HL109).
func lintObjectivesRef(p *placement.Plan, eps1 time.Duration, eps2 int) Findings {
	var fs Findings
	// Recompute per-pair bytes from edges and assignments.
	pair := map[placement.RouteKey]int{}
	occ := map[network.SwitchID]bool{}
	for name, sp := range p.Assignments {
		if _, ok := p.Graph.Node(name); ok {
			occ[sp.Switch] = true
		}
	}
	for _, e := range p.Graph.Edges() {
		sa, oka := p.Assignments[e.From]
		sb, okb := p.Assignments[e.To]
		if !oka || !okb || sa.Switch == sb.Switch {
			continue
		}
		pair[placement.RouteKey{From: sa.Switch, To: sb.Switch}] += e.MetadataBytes
	}
	amax := 0
	var te2e time.Duration
	for key, bytes := range pair {
		if bytes > amax {
			amax = bytes
		}
		if path, ok := p.Routes[key]; ok {
			te2e += path.Latency
		}
	}
	qocc := len(occ)

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

// switchOrderRef is Plan.SwitchOrder before the sorted pair hand-off.
func switchOrderRef(p *placement.Plan) ([]network.SwitchID, error) {
	adj := map[network.SwitchID]map[network.SwitchID]bool{}
	nodes := map[network.SwitchID]bool{}
	for _, sp := range p.Assignments {
		nodes[sp.Switch] = true
	}
	for _, e := range crossEdges(p) {
		ua, _ := p.SwitchOf(e.From)
		ub, _ := p.SwitchOf(e.To)
		if adj[ua] == nil {
			adj[ua] = map[network.SwitchID]bool{}
		}
		adj[ua][ub] = true
	}
	indeg := map[network.SwitchID]int{}
	for n := range nodes {
		indeg[n] = 0
	}
	for _, tos := range adj {
		for to := range tos {
			indeg[to]++
		}
	}
	var ready []network.SwitchID
	for n := range nodes {
		if indeg[n] == 0 {
			ready = append(ready, n)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
	var out []network.SwitchID
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		out = append(out, n)
		var next []network.SwitchID
		for to := range adj[n] {
			indeg[to]--
			if indeg[to] == 0 {
				next = append(next, to)
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		ready = append(ready, next...)
		sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
	}
	if len(out) != len(nodes) {
		placed := make(map[network.SwitchID]bool, len(out))
		for _, id := range out {
			placed[id] = true
		}
		var stuck []string
		for id := range nodes {
			if !placed[id] {
				stuck = append(stuck, placement.SwitchLabel(p.Topo, id))
			}
		}
		sort.Strings(stuck)
		return nil, fmt.Errorf("placement: switch-level dependency graph is cyclic among %s",
			strings.Join(stuck, ", "))
	}
	return out, nil
}

// crossEdges returns the TDG edges whose endpoints the plan puts on
// different switches.
func crossEdges(p *placement.Plan) []*tdg.Edge {
	hosts := p.Hosts()
	var out []*tdg.Edge
	for _, e := range p.Graph.EdgeList() {
		from, to := e.Endpoints()
		if ua, ub := hosts[from], hosts[to]; ua >= 0 && ub >= 0 && ua != ub {
			out = append(out, e)
		}
	}
	return out
}

// verifyRef is Deployment.Verify before the one-pass stage sum.
func verifyRef(d *deploy.Deployment) error {
	for name, sp := range d.Plan.Assignments {
		cfg := d.Configs[sp.Switch]
		if cfg == nil {
			return fmt.Errorf("deploy: %s has no config but hosts MAT %q",
				placement.SwitchLabel(d.Plan.Topo, sp.Switch), name)
		}
		total := 0.0
		for _, st := range cfg.Stages {
			for _, e := range st {
				if e.MAT == name {
					total += e.Amount
				}
			}
		}
		if diff := total - sp.Total(); diff > 1e-9 || diff < -1e-9 {
			return fmt.Errorf("deploy: MAT %q on %s stages %d..%d schedules %g of %g resources",
				name, placement.SwitchLabel(d.Plan.Topo, sp.Switch), sp.Start, sp.End, total, sp.Total())
		}
	}
	pairBytes := d.Plan.PairBytes()
	for key, hdr := range d.Headers {
		if hdr.Bytes > pairBytes[key] {
			return fmt.Errorf("deploy: header %s -> %s carries %d bytes, analysis bound is %d",
				placement.SwitchLabel(d.Plan.Topo, key.From), placement.SwitchLabel(d.Plan.Topo, key.To),
				hdr.Bytes, pairBytes[key])
		}
		sum := 0
		for _, f := range hdr.Fields {
			sum += f.Bytes()
		}
		if hdr.Bytes != sum {
			return fmt.Errorf("deploy: header %s -> %s declares %d bytes, fields sum to %d",
				placement.SwitchLabel(d.Plan.Topo, key.From), placement.SwitchLabel(d.Plan.Topo, key.To),
				hdr.Bytes, sum)
		}
	}
	for key, bytes := range pairBytes {
		if bytes == 0 {
			continue
		}
		if _, ok := d.Headers[key]; !ok {
			return fmt.Errorf("deploy: pair %s -> %s delivers %d bytes but has no header",
				placement.SwitchLabel(d.Plan.Topo, key.From), placement.SwitchLabel(d.Plan.Topo, key.To), bytes)
		}
	}
	return nil
}
