package placement

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

// Options carries the ε-constraint bounds and solver knobs shared by
// every deployment solver (Hermes and the baselines).
type Options struct {
	// Epsilon1 bounds t_e2e (Eq. 4); zero means unbounded (the paper's
	// evaluation relaxes it).
	Epsilon1 time.Duration
	// Epsilon2 bounds Q_occ (Eq. 5); zero means unbounded.
	Epsilon2 int
	// Deadline caps solver runtime; zero means none. ILP-based solvers
	// return their best incumbent at the deadline, mirroring the
	// paper's two-hour Gurobi cap.
	Deadline time.Time
	// Resources is the MAT resource model; zero value means
	// program.DefaultResourceModel.
	Resources *program.ResourceModel
	// Workers bounds solver-internal parallelism (anchor candidate
	// evaluation, exact-search branch exploration, the per-region repair
	// fan-out of a partitioned replan). Zero or negative means
	// GOMAXPROCS. Every worker count produces the same Plan.
	Workers int
	// Lint, when true, runs the registered PlanLintHook over every
	// solver's final plan and fails the solve on error-severity
	// findings. The internal/lint package registers the hook; with no
	// hook registered the flag is a no-op.
	Lint bool
	// Equiv, when true, runs the registered PlanEquivHook over every
	// solver's final plan: a symbolic proof that the plan's distributed
	// pipeline is equivalent to the single-box reference, rejecting the
	// solve otherwise. The internal/equiv package registers the hook;
	// with no hook registered the flag is a no-op.
	Equiv bool
	// Ctx, when non-nil, allows canceling a solve in flight: the hot
	// loops (local improve, the exact branch search, the MILP branch
	// and bound, the replan repair) poll Ctx.Done() at the same
	// counter-gated cadence as Deadline and abandon the solve with
	// Ctx.Err(). The supervisor uses this to abort a superseded replan
	// when a newer fault arrives. nil means not cancelable.
	Ctx context.Context
	// Shards requests region-sharded solving: when > 1, the facade (and
	// any solver that honors it, i.e. ShardedGreedy) partitions the
	// topology into this many regions, solves them concurrently, and
	// reconciles the boundaries. It is ShardedGreedy's only source of k.
	// Solvers without a sharded mode ignore it. Zero means whole-graph
	// solving.
	Shards int
	// Traffic, when non-nil, switches the solvers to the traffic-
	// weighted objective: minimize Σ w(u,v)·A(u,v) (or the weighted-max
	// variant, per TrafficObjective) where w is the matrix's pair-rate
	// projection, instead of the structural A_max of Eq. 1. The ε
	// constraints are unchanged, and the structural A_max is still
	// bounded at AMaxSlack × the solve's own structural optimum, so a
	// weighted plan never trades unbounded worst-pair bytes for
	// byte-rate. nil means the structural objective.
	Traffic *network.TrafficMatrix
	// TrafficObjective selects the weighted aggregate when Traffic is
	// set; the zero value is TrafficWeightedSum.
	TrafficObjective TrafficObjective
	// AMaxSlack caps the structural A_max inflation a weighted solve
	// may accept, as a ratio of the structural optimum the same solve
	// reaches before weighted refinement. Zero means the default 1.2;
	// values < 1 are treated as 1 (no inflation allowed). Ignored when
	// Traffic is nil.
	AMaxSlack float64
	// Warm seeds the solve with an existing plan over the same TDG.
	// Greedy reuses the warm assignment outright (skipping segmentation)
	// and only polishes it; Exact adopts it as the initial
	// branch-and-bound incumbent, so a warm-started "Optimal" can never
	// report a plan worse than its seed. A warm plan that is infeasible
	// on the solve's topology (drained switches, changed capacities,
	// different MAT set) is ignored and the solver runs cold.
	Warm *Plan
}

// PlanLintHook is the static diagnostics hook solvers invoke on their
// final plan when Options.Lint is set. internal/lint registers its
// independent Eq. 4–9 re-implementation here; keeping the hook a
// variable avoids an import cycle (lint depends on placement).
var PlanLintHook func(*Plan, Options) error

// PlanEquivHook is the symbolic equivalence gate solvers invoke on
// their final plan when Options.Equiv is set. internal/equiv registers
// its checker here; like PlanLintHook, the variable indirection avoids
// an import cycle (equiv depends on placement).
var PlanEquivHook func(*Plan, Options) error

// finishPlan applies the lint and equivalence hooks (when enabled)
// before a solver returns its plan.
func finishPlan(p *Plan, opts Options) (*Plan, error) {
	if opts.Lint && PlanLintHook != nil {
		if err := PlanLintHook(p, opts); err != nil {
			return nil, fmt.Errorf("placement: %s plan rejected by lint: %w", p.SolverName, err)
		}
	}
	if opts.Equiv && PlanEquivHook != nil {
		if err := PlanEquivHook(p, opts); err != nil {
			return nil, fmt.Errorf("placement: %s plan rejected by equivalence check: %w", p.SolverName, err)
		}
	}
	return p, nil
}

// resourceModel resolves the effective model.
func (o Options) resourceModel() program.ResourceModel {
	if o.Resources != nil {
		return *o.Resources
	}
	return program.DefaultResourceModel
}

// done returns the cancellation channel, or nil (never ready) when the
// solve is not cancelable. A nil channel is safe in a select with a
// default branch.
func (o Options) done() <-chan struct{} {
	if o.Ctx != nil {
		return o.Ctx.Done()
	}
	return nil
}

// canceled returns the context's error when the solve has been
// canceled, nil otherwise.
func (o Options) canceled() error {
	if o.Ctx != nil {
		return o.Ctx.Err()
	}
	return nil
}

// amaxSlack resolves the effective structural-inflation cap.
func (o Options) amaxSlack() float64 {
	if o.AMaxSlack == 0 {
		return 1.2
	}
	if o.AMaxSlack < 1 {
		return 1
	}
	return o.AMaxSlack
}

// amaxCap converts a structural baseline into the absolute cap.
func (o Options) amaxCap(baseA int) int {
	return int(math.Ceil(o.amaxSlack() * float64(baseA)))
}

// workers resolves the effective parallelism width.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// epsilon2 resolves the effective occupied-switch bound given the
// number of programmable switches available.
func (o Options) epsilon2(available int) int {
	if o.Epsilon2 <= 0 || o.Epsilon2 > available {
		return available
	}
	return o.Epsilon2
}

// Solver deploys a merged TDG onto a network.
type Solver interface {
	// Name identifies the solver in reports ("Hermes", "FFL", ...).
	Name() string
	// Solve produces a deployment plan or an error when the instance
	// cannot be deployed within the constraints.
	Solve(g *tdg.Graph, topo *network.Topology, opts Options) (*Plan, error)
}

// AddRoutes fills in shortest-path routes for every communicating
// switch pair of the plan's assignment; solvers (including baselines)
// call it after fixing MAT placements.
func AddRoutes(p *Plan) error {
	return addRoutesForCrossPairs(p)
}

// addRoutesForCrossPairs fills in shortest-path routes for every
// communicating switch pair of the assignment, batching the queries
// through the topology's path oracle.
func addRoutesForCrossPairs(p *Plan) error {
	bytes := p.PairBytes()
	keys := make([]RouteKey, 0, len(bytes))
	pairs := make([][2]network.SwitchID, 0, len(bytes))
	for key := range bytes {
		keys = append(keys, key)
		pairs = append(pairs, [2]network.SwitchID{key.From, key.To})
	}
	paths, err := p.Topo.ShortestPaths(pairs)
	if err != nil {
		return err
	}
	p.Routes = make(map[RouteKey]network.Path, len(keys))
	for i, key := range keys {
		p.Routes[key] = paths[i]
	}
	return nil
}
