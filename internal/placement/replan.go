package placement

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
)

// ReplanMode selects how Replan recomputes a deployment after a drain.
type ReplanMode int

const (
	// ReplanAuto runs the incremental delta repair and falls back to a
	// full solve when the repair is infeasible, violates the ε bounds,
	// or degrades A_max beyond the quality ratio. The default.
	ReplanAuto ReplanMode = iota
	// ReplanIncremental runs only the delta repair and errors out when
	// it cannot produce an acceptable plan (no silent cold solve —
	// callers that budget replan latency want the failure, not a
	// multi-second surprise).
	ReplanIncremental
	// ReplanFull always re-solves from scratch (the pre-incremental
	// behavior).
	ReplanFull
)

// String implements fmt.Stringer.
func (m ReplanMode) String() string {
	switch m {
	case ReplanAuto:
		return "auto"
	case ReplanIncremental:
		return "incremental"
	case ReplanFull:
		return "full"
	default:
		return fmt.Sprintf("ReplanMode(%d)", int(m))
	}
}

// ParseReplanMode converts the CLI spelling of a mode.
func ParseReplanMode(s string) (ReplanMode, error) {
	switch s {
	case "auto", "":
		return ReplanAuto, nil
	case "incremental", "inc", "delta":
		return ReplanIncremental, nil
	case "full", "cold":
		return ReplanFull, nil
	default:
		return 0, fmt.Errorf("placement: unknown replan mode %q (want auto, incremental, or full)", s)
	}
}

// ReplanOptions extends the solver Options with churn-path knobs.
type ReplanOptions struct {
	Options
	// Mode selects the replan strategy; zero value is ReplanAuto.
	Mode ReplanMode
	// Topology, when non-nil, is the live topology to replan against
	// instead of the old plan's snapshot. The supervisor passes the
	// monitored topology here so the replan sees the current fault
	// overlay (down switches/links) — old.Topo is a clone frozen at the
	// previous solve and can be arbitrarily stale. The replan still
	// clones, so the returned plan owns an independent topology carrying
	// the fault state at replan time.
	Topology *network.Topology
	// QualityRatio bounds the repaired plan's A_max at
	// QualityRatio × the warm seed's pre-drain A_max (the constant-time
	// proxy for the cold-solve quality, which the greedy tracks
	// closely). Exceeding it triggers the full-solve fallback under
	// ReplanAuto and an error under ReplanIncremental. 0 means the
	// default of 1.5; negative disables the check.
	QualityRatio float64
	// Partition, when non-nil, makes the repair region-local (DESIGN.md
	// §8): the dirty set is mapped onto the regions it intersects, each
	// dirty region is repaired concurrently on its own compact instance
	// (region candidates + halo hosts), and only quality failures
	// escalate to the sharded solver's reconcile climb before the gated
	// full solve. The partition must describe the replan
	// topology's switch ID space; lookups are by switch ID, so it
	// survives topology clones and fault overlays. nil repairs on a
	// single instance whose candidates are all live programmable
	// switches.
	Partition *network.Partition
}

func (o ReplanOptions) qualityRatio() float64 {
	if o.QualityRatio == 0 {
		return 1.5
	}
	return o.QualityRatio
}

// ReplanPhases splits a replan's wall clock into its sequential
// phases; a zero field means the phase did not run. The repair spends
// Dirty + Regions + Gates, with Exchange covering the reconcile
// escalation of a partitioned repair. Fallback times
// the full solver after an abandoned repair. JSON field names are
// stable — bench baselines diff them across commits.
type ReplanPhases struct {
	// Dirty is the dirty-set construction (displaced MATs plus the
	// bounded TDG frontier).
	Dirty time.Duration `json:"dirty"`
	// Gates is validation and the quality-ratio check on the repaired
	// plan.
	Gates time.Duration `json:"gates"`
	// Regions is the repair-instance fan-out (one instance per touched
	// region, or the single instance of an unpartitioned repair): each
	// instance's re-placement and climb, plus the merge and
	// materialization of the global plan.
	Regions time.Duration `json:"regions"`
	// Exchange is the reconcile escalation.
	Exchange time.Duration `json:"exchange"`
	// Fallback is the full solver run after an abandoned repair (or
	// under ReplanFull).
	Fallback time.Duration `json:"fallback"`
}

// ReplanReport is the churn telemetry of one replan: which path
// produced the plan, why the repair was abandoned (if it was), and the
// migration cost.
type ReplanReport struct {
	// Mode is the requested mode.
	Mode ReplanMode
	// UsedRepair marks plans produced by the delta repair; false means
	// the full solver ran (ReplanFull, or an auto fallback).
	UsedRepair bool
	// FallbackReason is empty when the repair succeeded; otherwise the
	// reason the engine fell back (or, under ReplanIncremental, failed).
	FallbackReason string
	// DirtyMATs counts the MATs the repair re-placed or polished (the
	// drained set plus the dependency frontier).
	DirtyMATs int
	// MovedMATs is Diff(old, new): how many MATs changed hosting switch.
	MovedMATs int
	// RepairTime is the wall-clock spent inside the repair pass
	// (including an abandoned attempt that fell back).
	RepairTime time.Duration
	// TotalTime is the end-to-end replan wall clock.
	TotalTime time.Duration
	// Phases breaks TotalTime into the replan's sequential phases.
	Phases ReplanPhases
	// UsedRegional marks repairs that fanned out by region (a Partition
	// was supplied and the dirty set mapped onto it).
	UsedRegional bool
	// RegionsTouched lists the dirty regions the regional repair
	// operated on, ascending; nil without a partition.
	RegionsTouched []int
	// RegionsWidened counts dirty regions whose local repair could not
	// restore feasibility alone and re-ran with the 2-hop widened
	// candidate set (the overlapping-region neighborhoods).
	RegionsWidened int
	// ExchangeRounds and ExchangeMoves report the reconcile escalation's
	// climb passes and accepted moves; both zero when the per-region
	// repairs held the quality gate on their own.
	ExchangeRounds int
	ExchangeMoves  int
	// PackSteps counts the position-space stage-packing steps the replan
	// ran (one per MAT packed while Alg. 2 tests a range or a repair
	// tests a switch): a deterministic measure of its work. The
	// memoized name-keyed packer is not counted, since its hits depend
	// on what ran before on the same graph.
	PackSteps int
}

// Replan recomputes a deployment after programmable switches are
// drained — taken out of MAT hosting for maintenance or after a
// partial failure, while still forwarding transit traffic (full
// node/link failures change the graph itself and belong to the routing
// layer). It returns a fresh plan over the same TDG with the drained
// switches excluded, repairing the old assignment incrementally when
// possible (ReplanAuto); the solver is only consulted when the repair
// falls back to a from-scratch solve.
//
// Replanning is stateless with respect to the old placement: stateful
// MATs (counters) must be migrated by the operator; the data plane
// simulator models state as per-MAT, so replaying traffic through the
// new plan continues the same register state.
func Replan(old *Plan, solver Solver, opts Options, drained ...network.SwitchID) (*Plan, error) {
	plan, _, err := ReplanWithOptions(old, solver, ReplanOptions{Options: opts}, drained...)
	return plan, err
}

// ReplanWithOptions is Replan with an explicit mode and churn
// telemetry.
func ReplanWithOptions(old *Plan, solver Solver, ropts ReplanOptions, drained ...network.SwitchID) (*Plan, *ReplanReport, error) {
	start := time.Now()
	if old == nil || old.Graph == nil || old.Topo == nil {
		return nil, nil, fmt.Errorf("placement: replan of nil or incomplete plan")
	}
	if solver == nil {
		solver = Greedy{}
	}
	if err := ropts.canceled(); err != nil {
		return nil, nil, fmt.Errorf("placement: replan canceled: %w", err)
	}
	base := ropts.Topology
	if base == nil {
		base = old.Topo
	}
	// A replan must have something to route around: explicit drains, or a
	// fault overlay on the live topology (the supervisor's case — down
	// switches displace their MATs exactly like drains, but reversibly).
	if len(drained) == 0 && !base.HasFaults() {
		return nil, nil, fmt.Errorf("placement: replan with no drained switches")
	}
	topo := base.Clone()
	drainedSet := make(map[network.SwitchID]bool, len(drained))
	for _, id := range drained {
		sw, err := topo.Switch(id)
		if err != nil {
			return nil, nil, fmt.Errorf("placement: replan: %w", err)
		}
		if !sw.Programmable {
			return nil, nil, fmt.Errorf("placement: replan: switch %q is not programmable", sw.Name)
		}
		sw.Programmable = false
		sw.Stages = 0
		sw.StageCapacity = 0
		drainedSet[id] = true
	}
	if topo.NumProgrammable() == 0 {
		return nil, nil, fmt.Errorf("placement: replan drains every programmable switch")
	}

	if ropts.Partition != nil && ropts.Partition.Topology().NumSwitches() != topo.NumSwitches() {
		return nil, nil, fmt.Errorf("placement: replan partition covers %d switches, topology has %d",
			ropts.Partition.Topology().NumSwitches(), topo.NumSwitches())
	}

	rep := &ReplanReport{Mode: ropts.Mode}
	var steps atomic.Int64
	ropts.packSteps = &steps
	finish := func() {
		rep.PackSteps = int(steps.Load())
		rep.TotalTime = time.Since(start)
	}
	if ropts.Mode != ReplanFull {
		repairStart := time.Now()
		plan, dirty, rerr := repair(old, topo, ropts, drainedSet, rep)
		rep.RepairTime = time.Since(repairStart)
		rep.DirtyMATs = dirty
		if rerr == nil {
			rep.UsedRepair = true
			rep.MovedMATs, _ = Diff(old, plan)
			finish()
			plan.SolveTime = rep.TotalTime
			return plan, rep, nil
		}
		rep.FallbackReason = rerr.Error()
		if ropts.Mode == ReplanIncremental {
			finish()
			return nil, rep, fmt.Errorf("placement: incremental replan: %w", rerr)
		}
	}

	fallbackStart := time.Now()
	plan, err := solver.Solve(old.Graph, topo, ropts.Options)
	rep.Phases.Fallback = time.Since(fallbackStart)
	if err != nil {
		finish()
		return nil, rep, fmt.Errorf("placement: replan: %w", err)
	}
	rep.MovedMATs, _ = Diff(old, plan)
	finish()
	return plan, rep, nil
}

// dirtySets computes the repair's working sets as node ids: displaced
// MATs (stranded on drained or down switches), ascending, and the dirty
// set (displaced plus the dependency frontier — the displaced MATs'
// TDG neighbours, which keep their switch as the starting point but
// join the polish, giving the local search room to co-locate across
// the healed cut), each id once.
func dirtySets(old *Plan, topo *network.Topology, drainedSet map[network.SwitchID]bool) (displaced, dirty []int32) {
	g := old.Graph
	hosts := old.Hosts()
	for id, sw := range hosts {
		if sw >= 0 && (drainedSet[sw] || topo.SwitchIsDown(sw)) {
			displaced = append(displaced, int32(id))
		}
	}
	in := make([]bool, len(hosts))
	add := func(id int32) {
		if !in[id] {
			in[id] = true
			dirty = append(dirty, id)
		}
	}
	for _, id := range displaced {
		add(id)
		for _, e := range g.OutEdgesOf(id) {
			_, to := e.Endpoints()
			add(to)
		}
		for _, e := range g.InEdgesOf(id) {
			from, _ := e.Endpoints()
			add(from)
		}
	}
	return displaced, dirty
}

// finishRepairTimed is finishRepair with the gate wall clock recorded
// in the report's phase breakdown.
func finishRepairTimed(plan *Plan, old *Plan, ropts ReplanOptions, dirty int, rep *ReplanReport) (*Plan, int, error) {
	start := time.Now()
	p, d, err := finishRepair(plan, old, ropts, dirty)
	rep.Phases.Gates += time.Since(start)
	return p, d, err
}

// finishRepair applies the ε-bound and quality-ratio gates to a
// repaired plan and stamps its provenance.
func finishRepair(plan *Plan, old *Plan, ropts ReplanOptions, dirty int) (*Plan, int, error) {
	if err := plan.Validate(program.DefaultResourceModel, ropts.Epsilon1, ropts.epsilon2(plan.Topo.NumProgrammable())); err != nil {
		return nil, dirty, fmt.Errorf("repair violates plan invariants: %w", err)
	}
	if ratio := ropts.qualityRatio(); ratio > 0 {
		oldA := old.AMax()
		if newA := plan.AMax(); oldA > 0 && float64(newA) > ratio*float64(oldA) {
			return nil, dirty, fmt.Errorf("repair A_max %dB exceeds %.2g x the %dB warm seed", newA, ratio, oldA)
		}
	}
	name := old.SolverName
	if name == "" {
		name = "Hermes"
	}
	plan.SolverName = name + "+repair"
	return plan, dirty, nil
}

// Diff reports how many MATs changed hosting switch between two plans
// over the same TDG — the migration cost of a replan. The two plans
// must cover the same MAT set by name; equal node counts over
// different MATs are rejected, not silently diffed. It reads the by-id
// stores: by node id when the plans share a graph, else along the two
// graphs' name orders, which hold the same names.
func Diff(a, b *Plan) (moved int, err error) {
	if a == nil || b == nil {
		return 0, fmt.Errorf("placement: diff of nil plan")
	}
	if !sameMATSet(a.Graph, b.Graph) {
		return 0, fmt.Errorf("placement: diff across different TDGs")
	}
	pa, pb := a.Placements(), b.Placements()
	var ia, ib []int32 // nil: one graph, ids match
	if a.Graph != b.Graph {
		ia, ib = a.Graph.Index().ByName, b.Graph.Index().ByName
	}
	//hermes:hot
	for k := range pa {
		i, j := int32(k), int32(k)
		if ia != nil {
			i, j = ia[k], ib[k]
		}
		if !pa[i].Placed() {
			continue
		}
		if !pb[j].Placed() {
			return 0, fmt.Errorf("placement: plan B misses MAT %q", a.Graph.NodeOf(i).Name())
		}
		if pa[i].Switch != pb[j].Switch {
			moved++
		}
	}
	return moved, nil
}
