// Package placement is the core of Hermes: the optimization framework
// of paper §V. It places every MAT of a merged TDG onto pipeline stages
// of programmable switches (decision variables x(a,i,u)), chooses
// inter-switch paths (y(u,v,p)), and evaluates the three objectives —
// the per-packet byte overhead A_max (Eq. 1), the end-to-end latency
// t_e2e (Eq. 2), and the occupied-switch count Q_occ (Eq. 3) — under
// the ε-constraint scheme of problem P#1.
//
// Two solvers are provided:
//
//   - Greedy: the paper's Algorithm 2 heuristic (near-optimal, fast),
//   - Exact: a specialized branch & bound that proves optimality on
//     small instances (the paper's Gurobi-backed "Optimal"). Its
//     differential twin, the literal MILP encoding of P#1 solved with
//     internal/milp, lives in the tests (ilp_oracle_test.go).
package placement

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

// SwitchLabel renders a switch identifier together with its
// human-readable name, e.g. `switch 3 ("core2")`. Validation errors
// and the lint engine share it so diagnostics always carry the
// offending switch identity.
func SwitchLabel(t *network.Topology, id network.SwitchID) string {
	if t != nil {
		if sw, err := t.Switch(id); err == nil && sw.Name != "" {
			return fmt.Sprintf("switch %d (%q)", id, sw.Name)
		}
	}
	return fmt.Sprintf("switch %d", id)
}

// StagePlacement records where one MAT landed: a switch plus the
// half-open run of stages [Start, End] it occupies, with the resource
// amount consumed in each stage. Start corresponds to ρ_begin and End
// to ρ_end in Eq. 8.
type StagePlacement struct {
	Switch network.SwitchID
	// Start and End are 0-based stage indexes, inclusive.
	Start, End int
	// PerStage[i] is the resource consumed in stage Start+i; this is
	// R(a,i,u) restricted to the occupied stages.
	PerStage []float64
}

// Total returns the summed resource consumption R(a).
func (sp StagePlacement) Total() float64 {
	t := 0.0
	for _, v := range sp.PerStage {
		t += v
	}
	return t
}

// RouteKey identifies an ordered communicating switch pair.
type RouteKey struct {
	From, To network.SwitchID
}

// Plan is a complete deployment decision.
type Plan struct {
	// Graph is the merged TDG the plan deploys.
	Graph *tdg.Graph
	// Topo is the substrate network.
	Topo *network.Topology
	// Assignments maps MAT name to its placement (the x variables).
	Assignments map[string]StagePlacement
	// Routes maps each communicating ordered switch pair to the chosen
	// path (the y variables).
	Routes map[RouteKey]network.Path
	// SolverName and SolveTime record provenance.
	SolverName string
	SolveTime  time.Duration
	// Proven reports whether the solver proved optimality.
	Proven bool

	// pairCache memoizes PairBytes between mutations. It is plain
	// fields, not a mutex-guarded box, so plans stay value-copyable;
	// the cached map must never be mutated in place. Callers that
	// mutate Assignments directly must call InvalidateCache (Validate
	// and the lint engine re-derive defensively at entry).
	pairCache   map[RouteKey]int
	pairCacheOK bool
}

// InvalidateCache drops memoized derived state after a direct mutation
// of the plan's assignments.
func (p *Plan) InvalidateCache() {
	p.pairCache = nil
	p.pairCacheOK = false
}

// SwitchOf returns the switch hosting the named MAT.
func (p *Plan) SwitchOf(name string) (network.SwitchID, bool) {
	sp, ok := p.Assignments[name]
	return sp.Switch, ok
}

// UsedSwitches returns the distinct switches hosting at least one MAT,
// ascending.
func (p *Plan) UsedSwitches() []network.SwitchID {
	seen := map[network.SwitchID]bool{}
	for _, sp := range p.Assignments {
		seen[sp.Switch] = true
	}
	out := make([]network.SwitchID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// QOcc is Eq. 3: the number of occupied programmable switches.
func (p *Plan) QOcc() int { return len(p.UsedSwitches()) }

// CrossEdges returns the TDG edges whose endpoints sit on different
// switches — the edges that cost per-packet bytes.
func (p *Plan) CrossEdges() []*tdg.Edge {
	var out []*tdg.Edge
	for _, e := range p.Graph.EdgeList() {
		ua, oka := p.SwitchOf(e.From)
		ub, okb := p.SwitchOf(e.To)
		if oka && okb && ua != ub {
			out = append(out, e)
		}
	}
	return out
}

// PairBytes aggregates Σ A(a,b) per ordered communicating switch pair.
// The map is memoized on the plan (AMax, TE2E, OptimizeRoutes, and lint's
// HL101–HL111 checks all re-derive it otherwise) and must be treated
// as read-only; see InvalidateCache.
func (p *Plan) PairBytes() map[RouteKey]int {
	if p.pairCacheOK {
		return p.pairCache
	}
	out := p.PairBytesUncached()
	p.pairCache = out
	p.pairCacheOK = true
	return out
}

// PairBytesUncached recomputes the pair map from the assignments on
// every call — the pre-memoization behavior, retained as the map-based
// reference for the compiled kernels' differential tests and
// benchmarks.
func (p *Plan) PairBytesUncached() map[RouteKey]int {
	out := map[RouteKey]int{}
	for _, e := range p.CrossEdges() {
		ua, _ := p.SwitchOf(e.From)
		ub, _ := p.SwitchOf(e.To)
		out[RouteKey{From: ua, To: ub}] += e.MetadataBytes
	}
	return out
}

// AMax is Eq. 1: the maximum metadata bytes delivered between any
// ordered pair of programmable switches.
func (p *Plan) AMax() int {
	max := 0
	for _, b := range p.PairBytes() {
		if b > max {
			max = b
		}
	}
	return max
}

// TotalCrossBytes sums A(a,b) over all cross-switch edges; a secondary
// diagnostic (total coordination traffic added per packet).
func (p *Plan) TotalCrossBytes() int {
	t := 0
	for _, e := range p.CrossEdges() {
		t += e.MetadataBytes
	}
	return t
}

// TE2E is Eq. 2: the summed latency of the chosen paths between
// communicating switch pairs.
func (p *Plan) TE2E() time.Duration {
	var total time.Duration
	seen := map[RouteKey]bool{}
	for key := range p.PairBytes() {
		if seen[key] {
			continue
		}
		seen[key] = true
		if path, ok := p.Routes[key]; ok {
			total += path.Latency
		}
	}
	return total
}

// switchDAGOrder contracts the TDG by switch assignment and returns a
// topological order of the used switches; it fails if the contracted
// graph is cyclic (no single packet route can respect all dependencies).
// pairs are the (From, To) switch pairs of the cross-switch edges, in
// any order and with repeats. Kahn's algorithm always takes the lowest
// ready switch ID next: the ready list stays sorted, and a switch has
// few enough neighbours that inserting into it beats a heap.
func (p *Plan) switchDAGOrder(pairs []RouteKey) ([]network.SwitchID, error) {
	nodes := p.UsedSwitches()
	id := func(sw network.SwitchID) int32 {
		i, _ := slices.BinarySearch(nodes, sw)
		return int32(i)
	}
	slices.SortFunc(pairs, func(a, b RouteKey) int {
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
				stuck = append(stuck, SwitchLabel(p.Topo, nodes[u]))
			}
		}
		sort.Strings(stuck)
		return nil, fmt.Errorf("placement: switch-level dependency graph is cyclic among %s",
			strings.Join(stuck, ", "))
	}
	return out, nil
}

// SwitchOrder returns the order in which packets must visit the used
// switches.
func (p *Plan) SwitchOrder() ([]network.SwitchID, error) {
	var pairs []RouteKey
	for _, e := range p.CrossEdges() {
		ua, _ := p.SwitchOf(e.From)
		ub, _ := p.SwitchOf(e.To)
		pairs = append(pairs, RouteKey{From: ua, To: ub})
	}
	return p.switchDAGOrder(pairs)
}

// Validate checks every constraint of P#1 against the plan:
// node deployment (Eq. 6), edge deployment across switches (Eq. 7),
// intra-switch stage ordering (Eq. 8), per-stage resource capacity
// (Eq. 9), and the ε bounds when positive.
func (p *Plan) Validate(rm program.ResourceModel, eps1 time.Duration, eps2 int) error {
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
	nodes := p.Graph.Nodes()
	at := make([]StagePlacement, len(nodes))
	for i, n := range nodes {
		sp, ok := p.Assignments[n.Name()]
		if !ok {
			return fmt.Errorf("placement: MAT %q not deployed (Eq. 6)", n.Name())
		}
		at[i] = sp
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
				n.Name(), SwitchLabel(p.Topo, sp.Switch), sp.Start, sp.End, sw.Stages-1)
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
	var pairs []RouteKey
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
		key := RouteKey{From: sa.Switch, To: sb.Switch}
		pairs = append(pairs, key)
		path, ok := p.Routes[key]
		if !ok {
			return fmt.Errorf("placement: cross-switch dependency %s->%s has no route %s -> %s (Eq. 7)",
				e.From, e.To, SwitchLabel(p.Topo, sa.Switch), SwitchLabel(p.Topo, sb.Switch))
		}
		if len(path.Switches) == 0 || path.Switches[0] != sa.Switch || path.Switches[len(path.Switches)-1] != sb.Switch {
			return fmt.Errorf("placement: route for %s->%s does not connect %s to %s",
				e.From, e.To, SwitchLabel(p.Topo, sa.Switch), SwitchLabel(p.Topo, sb.Switch))
		}
	}
	// Global ordering feasibility.
	if _, err := p.switchDAGOrder(pairs); err != nil {
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

// Summary is a compact textual report of the plan's objectives.
func (p *Plan) Summary() string {
	return fmt.Sprintf("%s: A_max=%dB cross=%dB Q_occ=%d t_e2e=%v solve=%v",
		p.SolverName, p.AMax(), p.TotalCrossBytes(), p.QOcc(), p.TE2E(), p.SolveTime)
}
