package baseline

import (
	"fmt"
	"time"

	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

// FFL is the "first fit by level" heuristic [8,6]: MATs are taken level
// by level and dropped onto the first switch that still fits them.
type FFL struct{}

var _ placement.Solver = (*FFL)(nil)

// Name implements placement.Solver.
func (FFL) Name() string { return "FFL" }

// Solve implements placement.Solver.
func (FFL) Solve(g *tdg.Graph, topo *network.Topology, _ placement.Options) (*placement.Plan, error) {
	return levelFit(g, topo, false, "FFL")
}

// FFLS is "first fit by level and size": like FFL but larger MATs first
// within a level.
type FFLS struct{}

var _ placement.Solver = (*FFLS)(nil)

// Name implements placement.Solver.
func (FFLS) Name() string { return "FFLS" }

// Solve implements placement.Solver.
func (FFLS) Solve(g *tdg.Graph, topo *network.Topology, _ placement.Options) (*placement.Plan, error) {
	return levelFit(g, topo, true, "FFLS")
}

func levelFit(g *tdg.Graph, topo *network.Topology, bySize bool, name string) (*placement.Plan, error) {
	start := time.Now()
	rm := program.DefaultResourceModel
	p, err := newPlacer(g, topo, rm)
	if err != nil {
		return nil, err
	}
	order, err := levelOrder(g, rm, bySize)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	for _, mat := range order {
		if err := p.firstFit(mat); err != nil {
			return nil, err
		}
	}
	return p.finish(name, start)
}

// MinStage models Min-Stage [8] extended to network-wide operation:
// each program is deployed as a unit on the first switch that can host
// it with the fewest stages (the greedy packer already minimizes stage
// count); programs that fit no single switch fall back to first-fit
// MAT placement from the current switch on.
type MinStage struct{}

var _ placement.Solver = (*MinStage)(nil)

// Name implements placement.Solver.
func (MinStage) Name() string { return "MS" }

// Solve implements placement.Solver.
func (MinStage) Solve(g *tdg.Graph, topo *network.Topology, _ placement.Options) (*placement.Plan, error) {
	return perProgram(g, topo, "MS", false)
}

// Sonata models Sonata [4] extended to network-wide operation: each
// program (query) is deployed as a unit, choosing the feasible switch
// with the most remaining headroom.
type Sonata struct{}

var _ placement.Solver = (*Sonata)(nil)

// Name implements placement.Solver.
func (Sonata) Name() string { return "Sonata" }

// Solve implements placement.Solver.
func (Sonata) Solve(g *tdg.Graph, topo *network.Topology, _ placement.Options) (*placement.Plan, error) {
	return perProgram(g, topo, "Sonata", true)
}

func perProgram(g *tdg.Graph, topo *network.Topology, name string, balance bool) (*placement.Plan, error) {
	start := time.Now()
	rm := program.DefaultResourceModel
	p, err := newPlacer(g, topo, rm)
	if err != nil {
		return nil, err
	}
	for _, group := range programGroups(g) {
		// Topologically order the group's MATs.
		sub, err := g.Subgraph(group)
		if err != nil {
			return nil, fmt.Errorf("baseline: %w", err)
		}
		order, err := sub.TopoSort()
		if err != nil {
			return nil, fmt.Errorf("baseline: %w", err)
		}
		// Find a single switch hosting the whole group.
		idx := p.groupFit(order, balance)
		if idx >= 0 {
			for _, mat := range order {
				p.place(idx, mat)
			}
			continue
		}
		// Fall back to per-MAT placement.
		for _, mat := range order {
			if err := p.firstFit(mat); err != nil {
				return nil, err
			}
		}
	}
	return p.finish(name, start)
}

// groupFit returns a switch index that can host the whole group at once
// (respecting predecessor ordering), or -1. With balance set it prefers
// the emptiest feasible switch, otherwise the first.
func (p *placer) groupFit(order []string, balance bool) int {
	min := 0
	for _, mat := range order {
		if m := p.minIndex(mat); m > min {
			min = m
		}
	}
	best := -1
	bestRem := -1.0
	for idx := min; idx < len(p.switches); idx++ {
		if !p.groupFits(idx, order) {
			continue
		}
		if !balance {
			return idx
		}
		st := p.switches[idx]
		rem := st.sw.Capacity() - st.used
		if rem > bestRem {
			bestRem = rem
			best = idx
		}
	}
	return best
}

// groupFits trial-packs the whole group on switch idx and rolls back.
func (p *placer) groupFits(idx int, order []string) bool {
	st := p.switches[idx]
	savedUsed := st.used
	savedNames := len(st.names)
	savedStage := append([]float64(nil), st.stageUsed...)
	var committed []string

	ok := true
	for _, mat := range order {
		sp, fit := p.tryPack(idx, mat)
		if !fit {
			ok = false
			break
		}
		st.names = append(st.names, mat)
		st.placements[mat] = sp
		for i, amt := range sp.PerStage {
			st.stageUsed[sp.Start+i] += amt
		}
		node, _ := p.g.Node(mat)
		st.used += p.rm.Requirement(node.MAT)
		p.idxOf[mat] = idx
		committed = append(committed, mat)
	}
	// Roll back.
	for _, mat := range committed {
		delete(st.placements, mat)
		delete(p.idxOf, mat)
	}
	st.names = st.names[:savedNames]
	st.used = savedUsed
	copy(st.stageUsed, savedStage)
	return ok
}

// SPEED models SPEED [6]: network-wide deployment over the merged TDG
// that optimizes packet-processing performance. It splits the TDG at
// resource-balanced cuts (not metadata-minimal ones) and anchors the
// segment chain where the summed inter-switch path latency is smallest.
type SPEED struct{}

var _ placement.Solver = (*SPEED)(nil)

// Name implements placement.Solver.
func (SPEED) Name() string { return "SPEED" }

// Solve implements placement.Solver.
func (SPEED) Solve(g *tdg.Graph, topo *network.Topology, opts placement.Options) (*placement.Plan, error) {
	return segmented(g, topo, opts, "SPEED", 1.0)
}

// MTP models MTP [57]: SPEED plus control-plane load balancing. To keep
// per-switch rule-update load low it halves the per-switch fill target,
// spreading MATs across roughly twice as many switches.
type MTP struct{}

var _ placement.Solver = (*MTP)(nil)

// Name implements placement.Solver.
func (MTP) Name() string { return "MTP" }

// Solve implements placement.Solver.
func (MTP) Solve(g *tdg.Graph, topo *network.Topology, opts placement.Options) (*placement.Plan, error) {
	return segmented(g, topo, opts, "MTP", 0.5)
}

// segmented splits the TDG into balanced segments, each at most
// fillFactor of a switch, then places the chain on the latency-best
// anchor neighborhood.
func segmented(g *tdg.Graph, topo *network.Topology, opts placement.Options, name string, fillFactor float64) (*placement.Plan, error) {
	start := time.Now()
	rm := program.DefaultResourceModel
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("baseline: empty TDG")
	}
	if err := topo.Validate(); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	prog := topo.ProgrammableSwitches()
	if len(prog) == 0 {
		return nil, fmt.Errorf("baseline: no programmable switches")
	}
	ref, err := topo.Switch(prog[0])
	if err != nil {
		return nil, err
	}
	eps2 := len(prog)
	if opts.Epsilon2 > 0 && opts.Epsilon2 < eps2 {
		eps2 = opts.Epsilon2
	}
	// Spread only as far as the switch budget allows: a fill target
	// below total/ε2 would demand more switches than exist. Greedy
	// first-fill can still overshoot, so raise the target until the
	// segment count fits (or the target saturates at a full switch).
	if minFill := g.TotalRequirement(rm) / (float64(eps2) * ref.Capacity()); fillFactor < minFill {
		fillFactor = minFill
	}
	if fillFactor > 1 {
		fillFactor = 1
	}
	var segments [][]string
	for {
		var serr error
		segments, serr = balancedSplit(g, rm, ref, fillFactor)
		if serr != nil {
			return nil, serr
		}
		if len(segments) <= eps2 || fillFactor >= 1 {
			break
		}
		fillFactor *= 1.25
		if fillFactor > 1 {
			fillFactor = 1
		}
	}
	if len(segments) > eps2 {
		return nil, fmt.Errorf("baseline: %s needs %d switches, ε2=%d", name, len(segments), eps2)
	}

	// Choose the anchor whose neighborhood minimizes total chain latency.
	type anchored struct {
		cands []network.SwitchID
		lat   time.Duration
	}
	var best *anchored
	for _, u := range prog {
		near, err := topo.NearestProgrammable(u, eps2-1, opts.Epsilon1)
		if err != nil {
			return nil, err
		}
		cands := append([]network.SwitchID{u}, near...)
		if len(cands) < len(segments) {
			continue
		}
		lat, err := topo.ChainLatency(cands[:len(segments)])
		if err != nil {
			continue
		}
		if best == nil || lat < best.lat {
			best = &anchored{cands: cands, lat: lat}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("baseline: %s found no feasible anchor", name)
	}

	plan := &placement.Plan{
		Graph:       g,
		Topo:        topo,
		Assignments: map[string]placement.StagePlacement{},
		SolverName:  name,
	}
	for i, seg := range segments {
		sw, err := topo.Switch(best.cands[i])
		if err != nil {
			return nil, err
		}
		placed, err := placement.PackStages(g, seg, sw, rm)
		if err != nil {
			return nil, fmt.Errorf("baseline: %s segment %d: %w", name, i, err)
		}
		for n, sp := range placed {
			plan.Assignments[n] = sp
		}
	}
	if err := placement.AddRoutes(plan); err != nil {
		return nil, err
	}
	plan.SolveTime = time.Since(start)
	return plan, nil
}

// balancedSplit cuts the topological order into consecutive segments,
// filling each as far as an actual stage packing on a fillFactor-scaled
// reference switch allows (resource-balanced, byte-oblivious — the
// point of the SPEED/MTP models). Every segment holds at least one MAT.
func balancedSplit(g *tdg.Graph, rm program.ResourceModel, ref *network.Switch, fillFactor float64) ([][]string, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	test := *ref
	test.StageCapacity = ref.StageCapacity * fillFactor
	var segments [][]string
	var cur []string
	for _, name := range order {
		cand := append(append([]string(nil), cur...), name)
		if placement.FitsSwitch(g, cand, &test, rm) {
			cur = cand
			continue
		}
		if len(cur) == 0 {
			return nil, fmt.Errorf("baseline: MAT %q alone exceeds the segment target", name)
		}
		segments = append(segments, cur)
		cur = []string{name}
		if !placement.FitsSwitch(g, cur, &test, rm) {
			return nil, fmt.Errorf("baseline: MAT %q alone exceeds the segment target", name)
		}
	}
	if len(cur) > 0 {
		segments = append(segments, cur)
	}
	return segments, nil
}

// Flightplan models Flightplan [7]: disaggregation at program
// boundaries. Every origin program becomes one segment (split further
// only if it cannot fit a switch), and segments are placed first-fit.
type Flightplan struct{}

var _ placement.Solver = (*Flightplan)(nil)

// Name implements placement.Solver.
func (Flightplan) Name() string { return "FP" }

// Solve implements placement.Solver.
func (Flightplan) Solve(g *tdg.Graph, topo *network.Topology, _ placement.Options) (*placement.Plan, error) {
	start := time.Now()
	rm := program.DefaultResourceModel
	p, err := newPlacer(g, topo, rm)
	if err != nil {
		return nil, err
	}
	for _, group := range programGroups(g) {
		sub, err := g.Subgraph(group)
		if err != nil {
			return nil, fmt.Errorf("baseline: %w", err)
		}
		order, err := sub.TopoSort()
		if err != nil {
			return nil, fmt.Errorf("baseline: %w", err)
		}
		if idx := p.groupFit(order, false); idx >= 0 {
			for _, mat := range order {
				p.place(idx, mat)
			}
			continue
		}
		for _, mat := range order {
			if err := p.firstFit(mat); err != nil {
				return nil, err
			}
		}
	}
	return p.finish("FP", start)
}

// P4All models P4All [59]: modular programs with elastic data
// structures sized to use switch resources as fully as possible. MATs
// are placed on the fullest feasible switch.
type P4All struct{}

var _ placement.Solver = (*P4All)(nil)

// Name implements placement.Solver.
func (P4All) Name() string { return "P4All" }

// Solve implements placement.Solver.
func (P4All) Solve(g *tdg.Graph, topo *network.Topology, _ placement.Options) (*placement.Plan, error) {
	start := time.Now()
	rm := program.DefaultResourceModel
	p, err := newPlacer(g, topo, rm)
	if err != nil {
		return nil, err
	}
	order, err := g.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	for _, mat := range order {
		if err := p.fullestFit(mat); err != nil {
			return nil, err
		}
	}
	return p.finish("P4All", start)
}

// All returns one instance of every baseline, in the paper's order.
func All() []placement.Solver {
	return []placement.Solver{
		MinStage{}, Sonata{}, SPEED{}, MTP{}, Flightplan{}, P4All{}, FFL{}, FFLS{},
	}
}
