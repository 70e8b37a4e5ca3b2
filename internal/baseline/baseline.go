// Package baseline reimplements the comparison frameworks of the
// paper's evaluation (§VI-A) by their published behaviour. None of them
// optimizes the per-packet byte overhead, which is exactly the gap
// Hermes targets:
//
//   - FFL / FFLS [8,6]: first-fit (by level / by level and size)
//     heuristics extended to place programs across switches one by one.
//   - Min-Stage (MS) [8]: per-program single-switch deployment that
//     minimizes occupied stages, extended to deploy programs one by one.
//   - Sonata [4]: per-program single-switch deployment that balances
//     per-switch resource headroom.
//   - SPEED [6]: network-wide deployment optimizing packet-processing
//     performance (end-to-end path latency), with TDG merging.
//   - MTP [57]: SPEED plus control-plane load balancing — it spreads
//     rules across more switches, increasing coordination.
//   - Flightplan (FP) [7]: program disaggregation at program
//     boundaries; each program's tables stay together when they fit.
//   - P4All [59]: modular programming with elastic structures; models
//     as best-fit utilization packing (fill switches as full as
//     possible).
//
// Every baseline returns a placement.Plan so Hermes and the baselines
// are compared with identical metrics and validators.
package baseline

import (
	"fmt"
	"sort"
	"time"

	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

// swState tracks one programmable switch during sequential placement,
// including its per-stage occupancy so feasibility checks and the final
// plan come from the same incremental packing.
type swState struct {
	sw         *network.Switch
	names      []string
	used       float64
	stageUsed  []float64
	placements map[string]placement.StagePlacement
}

// placer performs order-respecting sequential placement: MATs arrive in
// topological order and may land only on the switch hosting their last
// predecessor or a later one, so the contracted switch graph stays
// acyclic by construction. Placement is packed into stages
// incrementally; what fits is what ships.
type placer struct {
	g        *tdg.Graph
	topo     *network.Topology
	rm       program.ResourceModel
	switches []*swState
	// idxOf maps MAT name to its switch index in switches.
	idxOf map[string]int
}

func newPlacer(g *tdg.Graph, topo *network.Topology, rm program.ResourceModel) (*placer, error) {
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
	p := &placer{g: g, topo: topo, rm: rm, idxOf: map[string]int{}}
	for _, id := range prog {
		sw, err := topo.Switch(id)
		if err != nil {
			return nil, err
		}
		p.switches = append(p.switches, &swState{
			sw:         sw,
			stageUsed:  make([]float64, sw.Stages),
			placements: map[string]placement.StagePlacement{},
		})
	}
	return p, nil
}

// minIndex returns the lowest switch index the MAT may use given its
// already-placed predecessors.
func (p *placer) minIndex(name string) int {
	min := 0
	for _, e := range p.g.InEdges(name) {
		if idx, ok := p.idxOf[e.From]; ok && idx > min {
			min = idx
		}
	}
	return min
}

// tryPack computes where the MAT would land on switch idx, honoring
// same-switch predecessor stage order (Eq. 8) and per-stage capacity
// (Eq. 9). ok is false when it does not fit.
func (p *placer) tryPack(idx int, name string) (placement.StagePlacement, bool) {
	const tol = 1e-9
	st := p.switches[idx]
	node, _ := p.g.Node(name)
	req := p.rm.Requirement(node.MAT)
	if st.used+req > st.sw.Capacity()+tol {
		return placement.StagePlacement{}, false
	}
	earliest := 0
	for _, e := range p.g.InEdges(name) {
		if pi, ok := p.idxOf[e.From]; ok && pi == idx {
			if sp, ok := st.placements[e.From]; ok && sp.End+1 > earliest {
				earliest = sp.End + 1
			}
		}
	}
	if earliest >= st.sw.Stages {
		return placement.StagePlacement{}, false
	}
	var perStage []float64
	start, end := -1, -1
	rem := req
	for s := earliest; s < st.sw.Stages && rem > tol; s++ {
		avail := st.sw.StageCapacity - st.stageUsed[s]
		if avail <= tol {
			if start >= 0 {
				perStage = append(perStage, 0)
			}
			continue
		}
		chunk := avail
		if rem < chunk {
			chunk = rem
		}
		if start < 0 {
			start = s
		}
		end = s
		perStage = append(perStage, chunk)
		rem -= chunk
	}
	if rem > tol || start < 0 {
		return placement.StagePlacement{}, false
	}
	perStage = perStage[:end-start+1]
	return placement.StagePlacement{
		Switch:   st.sw.ID,
		Start:    start,
		End:      end,
		PerStage: perStage,
	}, true
}

// fits reports whether adding the MAT to switch idx keeps it packable.
func (p *placer) fits(idx int, name string) bool {
	_, ok := p.tryPack(idx, name)
	return ok
}

// place commits the MAT to switch idx; the MAT must fit (checked by
// tryPack).
func (p *placer) place(idx int, name string) {
	sp, ok := p.tryPack(idx, name)
	if !ok {
		// Callers check fits() first; reaching here is a programming
		// error, surfaced loudly in finish() by the missing placement.
		return
	}
	st := p.switches[idx]
	st.names = append(st.names, name)
	st.placements[name] = sp
	for i, amt := range sp.PerStage {
		st.stageUsed[sp.Start+i] += amt
	}
	node, _ := p.g.Node(name)
	st.used += p.rm.Requirement(node.MAT)
	p.idxOf[name] = idx
}

// firstFit places the MAT on the first feasible switch at or after its
// minimum index.
func (p *placer) firstFit(name string) error {
	for idx := p.minIndex(name); idx < len(p.switches); idx++ {
		if p.fits(idx, name) {
			p.place(idx, name)
			return nil
		}
	}
	return fmt.Errorf("baseline: MAT %q fits no switch", name)
}

// fullestFit places the MAT on the feasible switch with the highest
// utilization (P4All-style packing), at or after its minimum index.
func (p *placer) fullestFit(name string) error {
	best := -1
	for idx := p.minIndex(name); idx < len(p.switches); idx++ {
		if !p.fits(idx, name) {
			continue
		}
		if best < 0 || p.switches[idx].used > p.switches[best].used {
			best = idx
		}
	}
	if best < 0 {
		return fmt.Errorf("baseline: MAT %q fits no switch", name)
	}
	p.place(best, name)
	return nil
}

// finish materializes the accumulated assignment into a Plan.
func (p *placer) finish(solver string, start time.Time) (*placement.Plan, error) {
	plan := &placement.Plan{
		Graph:       p.g,
		Topo:        p.topo,
		Assignments: map[string]placement.StagePlacement{},
		SolverName:  solver,
	}
	for _, st := range p.switches {
		for name, sp := range st.placements {
			plan.Assignments[name] = sp
		}
		if len(st.names) != len(st.placements) {
			return nil, fmt.Errorf("baseline: switch %q has %d names but %d placements",
				st.sw.Name, len(st.names), len(st.placements))
		}
	}
	if err := placement.AddRoutes(plan); err != nil {
		return nil, err
	}
	plan.SolveTime = time.Since(start)
	return plan, nil
}

// levelOrder returns MAT names level by level; within a level, by
// insertion order, or by descending requirement when bySize is set
// (FFL vs FFLS).
func levelOrder(g *tdg.Graph, rm program.ResourceModel, bySize bool) ([]string, error) {
	levels, err := g.Levels()
	if err != nil {
		return nil, err
	}
	names := g.NodeNames()
	sort.SliceStable(names, func(i, j int) bool {
		li, lj := levels[names[i]], levels[names[j]]
		if li != lj {
			return li < lj
		}
		if bySize {
			ni, _ := g.Node(names[i])
			nj, _ := g.Node(names[j])
			return rm.Requirement(ni.MAT) > rm.Requirement(nj.MAT)
		}
		return false // keep insertion order within a level
	})
	return names, nil
}

// programGroups clusters MAT names by their first origin program, in
// first-appearance order; used by the one-by-one frameworks.
func programGroups(g *tdg.Graph) [][]string {
	var order []string
	groups := map[string][]string{}
	for _, n := range g.Nodes() {
		key := ""
		if len(n.Origin) > 0 {
			key = n.Origin[0]
		}
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], n.Name())
	}
	out := make([][]string, 0, len(order))
	for _, key := range order {
		out = append(out, groups[key])
	}
	return out
}
