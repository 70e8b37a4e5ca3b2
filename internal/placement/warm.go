package placement

import (
	"time"

	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

// warmSeed extracts the MAT→switch assignment of a warm plan when it is
// feasible for a solve of g on topo: the warm plan must cover exactly
// the MATs of g, every hosting switch must still be programmable on
// topo with a working stage packing, the contracted switch graph must
// stay acyclic, and the ε bounds of opts must hold. It returns the
// assignment or false when the seed cannot be used (the caller then
// solves cold).
//
// Feasibility is re-derived from scratch against topo rather than
// trusted from the warm plan: the main consumer is Replan, which hands
// solvers a plan computed on a pre-drain topology.
func warmSeed(g *tdg.Graph, topo *network.Topology, opts Options) (map[string]network.SwitchID, bool) {
	warm := opts.Warm
	if warm == nil || warm.Graph == nil || warm.Assignments == nil {
		return nil, false
	}
	if !sameMATSet(g, warm.Graph) {
		return nil, false
	}
	rm := program.DefaultResourceModel
	assign := make(map[string]network.SwitchID, len(warm.Assignments))
	bySwitch := map[network.SwitchID][]string{}
	for _, name := range g.NodeNames() {
		sp, ok := warm.Assignments[name]
		if !ok {
			return nil, false
		}
		assign[name] = sp.Switch
		bySwitch[sp.Switch] = append(bySwitch[sp.Switch], name)
	}
	if eps2 := opts.epsilon2(len(topo.ProgrammableSwitches())); len(bySwitch) > eps2 {
		return nil, false
	}
	for u, names := range bySwitch {
		sw, err := topo.Switch(u)
		if err != nil || !sw.Programmable || topo.SwitchIsDown(u) {
			return nil, false
		}
		if !FitsSwitch(g, names, sw, rm) {
			return nil, false
		}
	}
	if !assignmentAcyclic(g, assign) {
		return nil, false
	}
	if opts.Epsilon1 > 0 {
		if lat, err := assignmentLatency(g, topo, assign); err != nil || lat > opts.Epsilon1 {
			return nil, false
		}
	}
	return assign, true
}

// sameMATSet reports whether two TDGs describe the same MAT set by
// name. Diff and the warm-start path both need real identity, not just
// equal node counts.
func sameMATSet(a, b *tdg.Graph) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.NumNodes() != b.NumNodes() {
		return false
	}
	for _, name := range a.NodeNames() {
		if _, ok := b.Node(name); !ok {
			return false
		}
	}
	return true
}

// assignmentAMax computes Eq. 1 for a switch-level assignment without
// materializing a plan: the maximum per-ordered-pair cross bytes. MATs
// missing from the assignment are ignored (partial assignments appear
// mid-repair).
func assignmentAMax(g *tdg.Graph, assign map[string]network.SwitchID) int {
	pair := map[RouteKey]int{}
	max := 0
	for _, e := range g.EdgeList() {
		ua, oka := assign[e.From]
		ub, okb := assign[e.To]
		if !oka || !okb || ua == ub {
			continue
		}
		k := RouteKey{From: ua, To: ub}
		pair[k] += e.MetadataBytes
		if pair[k] > max {
			max = pair[k]
		}
	}
	return max
}

// assignmentAcyclic reports whether the contracted switch graph of a
// (possibly partial) assignment is a DAG; unassigned MATs contribute no
// edges.
func assignmentAcyclic(g *tdg.Graph, assign map[string]network.SwitchID) bool {
	adj := map[network.SwitchID]map[network.SwitchID]bool{}
	indeg := map[network.SwitchID]int{}
	nodes := map[network.SwitchID]bool{}
	for _, u := range assign {
		nodes[u] = true
	}
	for _, e := range g.EdgeList() {
		ua, oka := assign[e.From]
		ub, okb := assign[e.To]
		if !oka || !okb || ua == ub {
			continue
		}
		if adj[ua] == nil {
			adj[ua] = map[network.SwitchID]bool{}
		}
		if !adj[ua][ub] {
			adj[ua][ub] = true
			indeg[ub]++
		}
	}
	var ready []network.SwitchID
	for u := range nodes {
		if indeg[u] == 0 {
			ready = append(ready, u)
		}
	}
	count := 0
	for len(ready) > 0 {
		u := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		count++
		for v := range adj[u] {
			indeg[v]--
			if indeg[v] == 0 {
				ready = append(ready, v)
			}
		}
	}
	return count == len(nodes)
}

// assignmentLatency sums shortest-path latency over the distinct
// communicating switch pairs of an assignment (Eq. 2 evaluated without
// a materialized plan).
func assignmentLatency(g *tdg.Graph, topo *network.Topology, assign map[string]network.SwitchID) (time.Duration, error) {
	seen := map[RouteKey]bool{}
	var total time.Duration
	for _, e := range g.EdgeList() {
		ua, oka := assign[e.From]
		ub, okb := assign[e.To]
		if !oka || !okb || ua == ub {
			continue
		}
		key := RouteKey{From: ua, To: ub}
		if seen[key] {
			continue
		}
		seen[key] = true
		p, err := topo.ShortestPath(ua, ub)
		if err != nil {
			return 0, err
		}
		total += p.Latency
	}
	return total, nil
}

// deadlinePoller amortizes deadline checks over hot loops: Expired
// reads the clock only once every interval calls (satisfying the
// "counter-gated" requirement — time.Now is a syscall-class cost when
// polled per candidate move). A zero deadline never expires. An
// optional cancellation channel (withCancel) is polled at the same
// cadence, so a canceled solve is abandoned within one interval.
type deadlinePoller struct {
	deadline time.Time
	done     <-chan struct{}
	interval int
	count    int
	expired  bool
}

func newDeadlinePoller(deadline time.Time, interval int) *deadlinePoller {
	if interval <= 0 {
		interval = 64
	}
	return &deadlinePoller{deadline: deadline, interval: interval}
}

// withCancel attaches a cancellation channel (typically Options.done());
// nil is accepted and never fires.
func (d *deadlinePoller) withCancel(done <-chan struct{}) *deadlinePoller {
	d.done = done
	return d
}

func (d *deadlinePoller) Expired() bool {
	if d.expired {
		return true
	}
	if d.deadline.IsZero() && d.done == nil {
		return false
	}
	d.count++
	if d.count%d.interval != 0 {
		return false
	}
	select {
	case <-d.done:
		d.expired = true
		return true
	default:
	}
	if !d.deadline.IsZero() && time.Now().After(d.deadline) {
		d.expired = true
	}
	return d.expired
}

// warmStart materializes a feasible warm seed into a plan (fresh stage
// packing and routes on topo) for Greedy's warm path.
func warmStart(g *tdg.Graph, topo *network.Topology, opts Options) (*Plan, bool) {
	assign, ok := warmSeed(g, topo, opts)
	if !ok {
		return nil, false
	}
	plan, err := materializeAssignment(g, topo, assign, program.DefaultResourceModel)
	if err != nil {
		return nil, false
	}
	return plan, true
}
