package lint

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
)

// The functions below are Plan.Validate, its switch-DAG order and
// Deployment.Verify as they stood before the gates moved onto node ids
// and dense switch ids, kept verbatim (package qualifiers aside) as the
// name-keyed twins plan_oracle_test.go holds the production gates to:
// Validate resolving nodes through a copied Nodes() slice, Eq. 9 on a
// map[SwitchID][]float64 filled by ranging over Assignments, and the
// contraction on RouteKey pairs over UsedSwitches; Verify summing a
// map[{switch, MAT name}]float64 and checking each assignment by name.
// Where a plan breaks a rule more than once, their choice of which
// breach to report follows map iteration order. validateRef departs
// from the original in one place, marked there.

// validateRef checks every constraint of P#1 against the plan:
// node deployment (Eq. 6), edge deployment across switches (Eq. 7),
// intra-switch stage ordering (Eq. 8), per-stage resource capacity
// (Eq. 9), and the ε bounds when positive.
func validateRef(p *placement.Plan, rm program.ResourceModel, eps1 time.Duration, eps2 int) error {
	if p.Graph == nil || p.Topo == nil {
		return fmt.Errorf("placement: plan missing graph or topology")
	}
	// Tests (and replans) mutate Assignments in place before
	// re-validating; never judge a tampered plan through a stale memo.
	p.InvalidateCache()
	// Eq. 6: every MAT deployed, on a programmable switch, within the
	// stage range, with the full requirement placed.
	// Each node's placement is resolved once, by insertion id, for the
	// edge walk below.
	// The same walk rebuilds the host table the invalidation dropped.
	nodes := p.Graph.Nodes()
	at := make([]placement.StagePlacement, len(nodes))
	hosts := make([]network.SwitchID, len(nodes))
	for i, n := range nodes {
		sp, ok := p.Assignments[n.Name()]
		if !ok {
			return fmt.Errorf("placement: MAT %q not deployed (Eq. 6)", n.Name())
		}
		at[i] = sp
		hosts[i] = sp.Switch
		sw, err := p.Topo.Switch(sp.Switch)
		if err != nil {
			return fmt.Errorf("placement: MAT %q: %w", n.Name(), err)
		}
		if !sw.Programmable {
			return fmt.Errorf("placement: MAT %q on non-programmable switch %q", n.Name(), sw.Name)
		}
		// Fault overlay: a down switch hosts nothing. Paired with lint
		// rule HL112, which restates this check independently.
		if p.Topo.SwitchIsDown(sp.Switch) {
			return fmt.Errorf("placement: MAT %q on down switch %q", n.Name(), sw.Name)
		}
		if sp.Start < 0 || sp.End >= sw.Stages || sp.Start > sp.End {
			return fmt.Errorf("placement: MAT %q on %s has stage range [%d,%d] outside 0..%d",
				n.Name(), placement.SwitchLabel(p.Topo, sp.Switch), sp.Start, sp.End, sw.Stages-1)
		}
		if len(sp.PerStage) != sp.End-sp.Start+1 {
			return fmt.Errorf("placement: MAT %q per-stage slice length %d != range %d",
				n.Name(), len(sp.PerStage), sp.End-sp.Start+1)
		}
		req := rm.Requirement(n.MAT)
		if math.Abs(sp.Total()-req) > 1e-6 {
			return fmt.Errorf("placement: MAT %q places %g of required %g resources",
				n.Name(), sp.Total(), req)
		}
	}
	_ = hosts // the production code keeps it as the plan's host table
	// The one departure from the original, which summed a MAT outside
	// the graph into Eq. 9: such a MAT is rejected, the smallest name
	// first.
	var foreign []string
	for name := range p.Assignments {
		if _, ok := p.Graph.Node(name); !ok {
			foreign = append(foreign, name)
		}
	}
	if len(foreign) > 0 {
		return fmt.Errorf("placement: MAT %q is not in the plan's graph (Eq. 6)", slices.Min(foreign))
	}
	// Eq. 9: per-stage capacity.
	used := map[network.SwitchID][]float64{}
	for name, sp := range p.Assignments {
		sw, err := p.Topo.Switch(sp.Switch)
		if err != nil {
			return err
		}
		if used[sp.Switch] == nil {
			used[sp.Switch] = make([]float64, sw.Stages)
		}
		for i, amt := range sp.PerStage {
			if amt < -1e-12 {
				return fmt.Errorf("placement: MAT %q has negative stage amount", name)
			}
			used[sp.Switch][sp.Start+i] += amt
		}
	}
	for id, stages := range used {
		sw, _ := p.Topo.Switch(id)
		for i, amt := range stages {
			if amt > sw.StageCapacity+1e-6 {
				return fmt.Errorf("placement: switch %q stage %d overcommitted: %g > %g (Eq. 9)",
					sw.Name, i, amt, sw.StageCapacity)
			}
		}
	}
	// Eq. 7 and Eq. 8 per edge; the walk collects the cross-switch
	// pairs the ordering check below contracts.
	var pairs []placement.RouteKey
	//hermes:hot
	for _, e := range p.Graph.EdgeList() {
		from, to := e.Endpoints()
		sa, sb := &at[from], &at[to]
		if sa.Switch == sb.Switch {
			if sa.End >= sb.Start {
				return fmt.Errorf("placement: co-located dependency %s->%s violates stage order: end %d >= start %d (Eq. 8)",
					e.From, e.To, sa.End, sb.Start)
			}
			continue
		}
		key := placement.RouteKey{From: sa.Switch, To: sb.Switch}
		pairs = append(pairs, key)
		path, ok := p.Routes[key]
		if !ok {
			return fmt.Errorf("placement: cross-switch dependency %s->%s has no route %s -> %s (Eq. 7)",
				e.From, e.To, placement.SwitchLabel(p.Topo, sa.Switch), placement.SwitchLabel(p.Topo, sb.Switch))
		}
		if len(path.Switches) == 0 || path.Switches[0] != sa.Switch || path.Switches[len(path.Switches)-1] != sb.Switch {
			return fmt.Errorf("placement: route for %s->%s does not connect %s to %s",
				e.From, e.To, placement.SwitchLabel(p.Topo, sa.Switch), placement.SwitchLabel(p.Topo, sb.Switch))
		}
	}
	// Global ordering feasibility.
	if _, err := switchDAGOrderRef(p, pairs); err != nil {
		return err
	}
	// ε bounds.
	if eps1 > 0 {
		if got := p.TE2E(); got > eps1 {
			return fmt.Errorf("placement: t_e2e %v exceeds ε1 %v (Eq. 4)", got, eps1)
		}
	}
	if eps2 > 0 {
		if got := p.QOcc(); got > eps2 {
			return fmt.Errorf("placement: Q_occ %d exceeds ε2 %d (Eq. 5)", got, eps2)
		}
	}
	return nil
}

// switchDAGOrderRef contracts the TDG by switch assignment and returns a
// topological order of the used switches; it fails if the contracted
// graph is cyclic (no single packet route can respect all dependencies).
// pairs are the (From, To) switch pairs of the cross-switch edges, in
// any order and with repeats. Kahn's algorithm always takes the lowest
// ready switch ID next: the ready list stays sorted, and a switch has
// few enough neighbours that inserting into it beats a heap.
func switchDAGOrderRef(p *placement.Plan, pairs []placement.RouteKey) ([]network.SwitchID, error) {
	nodes := p.UsedSwitches()
	id := func(sw network.SwitchID) int32 {
		i, _ := slices.BinarySearch(nodes, sw)
		return int32(i)
	}
	slices.SortFunc(pairs, func(a, b placement.RouteKey) int {
		if c := cmp.Compare(a.From, b.From); c != 0 {
			return c
		}
		return cmp.Compare(a.To, b.To)
	})
	pairs = slices.Compact(pairs)
	// Sorted pairs put each switch's arcs in one run: succ[head[u]:
	// head[u+1]] are switch u's successors, by dense id (the switch's
	// rank in nodes, so the smallest id is the smallest switch ID).
	n := len(nodes)
	buf := make([]int32, 3*n+1+len(pairs))
	indeg, ready, head, succ := buf[:n], buf[n:n:2*n], buf[2*n:3*n+1], buf[3*n+1:]
	for k, pr := range pairs {
		u, v := id(pr.From), id(pr.To)
		succ[k] = v
		head[u+1]++
		indeg[v]++
	}
	for u := 0; u < n; u++ {
		head[u+1] += head[u]
		if indeg[u] == 0 {
			ready = append(ready, int32(u)) // ascending
		}
	}
	out := make([]network.SwitchID, 0, n)
	for len(ready) > 0 {
		u := ready[0]
		ready = ready[1:]
		out = append(out, nodes[u])
		for _, v := range succ[head[u]:head[u+1]] {
			indeg[v]--
			if indeg[v] == 0 {
				i, _ := slices.BinarySearch(ready, v)
				ready = slices.Insert(ready, i, v)
			}
		}
	}
	if len(out) != n {
		var stuck []string
		for u, d := range indeg {
			if d > 0 {
				stuck = append(stuck, placement.SwitchLabel(p.Topo, nodes[u]))
			}
		}
		sort.Strings(stuck)
		return nil, fmt.Errorf("placement: switch-level dependency graph is cyclic among %s",
			strings.Join(stuck, ", "))
	}
	return out, nil
}

// verifyByNameRef cross-checks the compiled deployment against the plan:
// every assigned MAT appears in exactly the stages the plan dictates,
// and header sizes per pair never exceed the plan's A(a,b) pair sums
// (they can be smaller because overlapping edges share fields).
func verifyByNameRef(d *deploy.Deployment) error {
	// Every MAT fragment accounted for: one pass over the configs sums
	// each (switch, MAT) stage amount, in stage order.
	type hosted struct {
		sw  network.SwitchID
		mat string
	}
	scheduled := make(map[hosted]float64, len(d.Plan.Assignments))
	for sw, cfg := range d.Configs {
		if cfg == nil {
			continue
		}
		for _, st := range cfg.Stages {
			//hermes:hot
			for _, e := range st {
				scheduled[hosted{sw, e.MAT}] += e.Amount
			}
		}
	}
	for name, sp := range d.Plan.Assignments {
		if d.Configs[sp.Switch] == nil {
			return fmt.Errorf("deploy: %s has no config but hosts MAT %q",
				placement.SwitchLabel(d.Plan.Topo, sp.Switch), name)
		}
		total := scheduled[hosted{sp.Switch, name}]
		if diff := total - sp.Total(); diff > 1e-9 || diff < -1e-9 {
			return fmt.Errorf("deploy: MAT %q on %s stages %d..%d schedules %g of %g resources",
				name, placement.SwitchLabel(d.Plan.Topo, sp.Switch), sp.Start, sp.End, total, sp.Total())
		}
	}
	// Headers bounded by the analyzer's per-pair byte counts.
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
	// Every communicating pair has a header.
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
