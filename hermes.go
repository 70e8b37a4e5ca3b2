// Package hermes is the public API of the Hermes network-wide data
// plane program deployment framework (Chen et al., ICDCS 2022).
//
// Hermes deploys a set of data plane programs — collections of
// match-action tables (MATs) — onto a network of programmable
// switches while minimizing the per-packet byte overhead of
// inter-switch coordination: the metadata that must be piggybacked on
// every packet when dependent MATs land on different switches.
//
// The typical flow is:
//
//	progs := []*hermes.Program{buildMyProgram()}
//	topo := buildMyTopology()
//	result, err := hermes.Deploy(progs, topo, hermes.DeployOptions{})
//	// result.Plan places every MAT; result.Deployment carries the
//	// per-switch configs and coordination headers.
//
// The heavy lifting lives in the internal packages; this package
// re-exports the stable surface: program construction (Program, MAT,
// Builder), topology modeling (Topology, Switch), analysis (Analyze),
// the solvers (Greedy heuristic, exact branch & bound, MILP encoding),
// the deployment backend, and the packet-level/flow-level simulators.
package hermes

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/baseline"
	"github.com/hermes-net/hermes/internal/dataplane"
	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/deploy/rollout"
	"github.com/hermes-net/hermes/internal/e2esim"
	"github.com/hermes-net/hermes/internal/equiv"
	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/lint"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/p4lite"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/supervisor"
	"github.com/hermes-net/hermes/internal/tdg"
	"github.com/hermes-net/hermes/internal/workload"
)

// Program model.
type (
	// Program is a data plane program: an ordered set of MATs plus
	// control-flow edges.
	Program = program.Program
	// MAT is a match-action table.
	MAT = program.MAT
	// Builder assembles programs fluently.
	Builder = program.Builder
	// Field is a packet header or metadata field.
	Field = fields.Field
	// ResourceModel converts MAT properties into stage fractions.
	ResourceModel = program.ResourceModel
)

// DefaultResourceModel returns the resource model used across the
// library when none is supplied.
func DefaultResourceModel() ResourceModel { return program.DefaultResourceModel }

// NewProgram starts a program builder.
func NewProgram(name string) *Builder { return program.NewBuilder(name) }

// Match types for MAT keys.
const (
	MatchExact   = program.MatchExact
	MatchLPM     = program.MatchLPM
	MatchTernary = program.MatchTernary
	MatchRange   = program.MatchRange
)

// Op is a primitive action operation.
type Op = program.Op

// Rule is one installed MAT entry.
type Rule = program.Rule

// Pattern matches a field value within a rule.
type Pattern = program.Pattern

// SetOp writes an immediate (or rule parameter) into dst.
func SetOp(dst Field, imm uint64) Op { return program.SetOp(dst, imm) }

// CopyOp copies src into dst.
func CopyOp(dst, src Field) Op { return program.CopyOp(dst, src) }

// AddOp adds src plus imm into dst.
func AddOp(dst, src Field, imm uint64) Op { return program.AddOp(dst, src, imm) }

// HashOp writes a hash of srcs into dst.
func HashOp(dst Field, srcs ...Field) Op { return program.HashOp(dst, srcs...) }

// CountOp increments a counter indexed by idx, storing the count in dst.
func CountOp(dst, idx Field) Op { return program.CountOp(dst, idx) }

// DecOp decrements dst by imm (1 when imm is 0).
func DecOp(dst Field, imm uint64) Op { return program.DecOp(dst, imm) }

// HeaderField constructs a packet header field.
func HeaderField(name string, bits int) Field { return fields.Header(name, bits) }

// MetadataField constructs a pipeline metadata field.
func MetadataField(name string, bits int) Field { return fields.Metadata(name, bits) }

// Network model.
type (
	// Topology is the substrate network.
	Topology = network.Topology
	// Switch is one network node.
	Switch = network.Switch
	// SwitchID identifies a switch.
	SwitchID = network.SwitchID
	// SwitchSpec configures topology generators.
	SwitchSpec = network.SwitchSpec
)

// NewTopology creates an empty topology.
func NewTopology(name string) *Topology { return network.NewTopology(name) }

// LinearTopology builds an n-switch linear chain (the paper's testbed
// shape).
func LinearTopology(n int, spec SwitchSpec) (*Topology, error) {
	return network.Linear(n, spec)
}

// TofinoSpec returns the paper's simulation switch settings.
func TofinoSpec() SwitchSpec { return network.TofinoSpec() }

// TestbedSpec returns the paper's testbed switch settings.
func TestbedSpec() SwitchSpec { return network.TestbedSpec() }

// TableIIITopology returns the i-th (1-based) evaluation WAN of the
// paper's Table III.
func TableIIITopology(i int, spec SwitchSpec) (*Topology, error) {
	return network.TableIII(i, spec)
}

// Traffic model (DESIGN.md §13): seeded demand matrices that turn the
// structural A objective into a byte-rate objective.
type (
	// TrafficMatrix is a set of (src, dst, rate) demands over a
	// topology's switch ID space.
	TrafficMatrix = network.TrafficMatrix
	// TrafficDemand is one end-to-end demand entry.
	TrafficDemand = network.Demand
	// TrafficObjective selects the weighted aggregate the solvers
	// minimize when a matrix is supplied.
	TrafficObjective = placement.TrafficObjective
)

// Weighted objectives: total coordination byte-rate (sum) or the
// hottest pair's byte-rate (max).
const (
	TrafficWeightedSum = placement.TrafficWeightedSum
	TrafficWeightedMax = placement.TrafficWeightedMax
)

// TrafficModels lists the built-in traffic model names (uniform,
// gravity, hotspot, elephants).
func TrafficModels() []string { return network.TrafficModels() }

// GenerateTraffic builds a named seeded traffic model over a topology.
func GenerateTraffic(t *Topology, model string, seed int64) (*TrafficMatrix, error) {
	return network.GenerateTraffic(t, model, seed)
}

// ParseTraffic reads the Format text form of a matrix back, validated
// against t — the `hermes -traffic @file` path.
func ParseTraffic(text string, t *Topology) (*TrafficMatrix, error) {
	return network.ParseTraffic(text, t)
}

// ParseTrafficSpec resolves the "<model>[:<seed>]" CLI spelling.
func ParseTrafficSpec(spec string, t *Topology) (*TrafficMatrix, error) {
	return network.ParseTrafficSpec(spec, t)
}

// Analysis and deployment.
type (
	// TDG is a table dependency graph.
	TDG = tdg.Graph
	// Plan is a complete deployment decision.
	Plan = placement.Plan
	// Deployment is a compiled plan: per-switch configs plus
	// coordination headers.
	Deployment = deploy.Deployment
	// Solver deploys a TDG onto a network.
	Solver = placement.Solver
	// SolveOptions carries the ε-constraint bounds (ε1 latency, ε2
	// switch count) and solver knobs.
	SolveOptions = placement.Options
	// AnalyzeOptions tunes program analysis.
	AnalyzeOptions = analyzer.Options
)

// Solvers.
var (
	// GreedySolver is the paper's Algorithm 2 heuristic.
	GreedySolver Solver = placement.Greedy{}
	// ExactSolver is the branch & bound "Optimal" reference.
	ExactSolver Solver = placement.Exact{}
)

// ShardedSolver is the region-sharded Greedy for very large
// topologies: it partitions the network into SolveOptions.Shards
// regions, solves them concurrently, and reconciles the merged plan
// with one hill climb. On small instances (or Shards <= 1) it
// falls back to whole-graph Greedy.
type ShardedSolver = placement.ShardedGreedy

// ShardStats is the sharded solver's run telemetry (region count,
// reconcile passes, accepted moves, A_max before/after).
type ShardStats = placement.ShardStats

// TopologyPartition is a disjoint cover of a topology's switches by
// connected regions: the sharded solver's decomposition and the
// regional replan's locality structure (DESIGN.md §14).
type TopologyPartition = network.Partition

// PartitionTopology partitions a topology into k capacity-balanced
// connected regions, deterministic in seed — the sharded solver's
// first phase, exposed for offline partition inspection (see
// topogen -partition).
func PartitionTopology(t *Topology, k int, seed int64) (*TopologyPartition, error) {
	return network.PartitionRegions(t, k, seed)
}

// ParsePartition reads a partition's Format text form back, validated
// against t — the `-partition @file` path.
func ParsePartition(text string, t *Topology) (*TopologyPartition, error) {
	return network.ParsePartition(text, t)
}

// CompositeWANTopology builds a large WAN stitched from Table III-sized
// regions — the evaluation substrate for the sharded solver.
func CompositeWANTopology(regions int, spec SwitchSpec, seed int64) (*Topology, error) {
	return network.CompositeWAN(regions, spec, seed)
}

// FatTreeTopology builds a k-ary fat-tree (k even): the standard DCN
// shape, 1.25*k^2 switches.
func FatTreeTopology(k int, spec SwitchSpec, seed int64) (*Topology, error) {
	return network.FatTree(k, spec, seed)
}

// Baselines returns the eight comparison frameworks of the paper's
// evaluation (MS, Sonata, SPEED, MTP, FP, P4All, FFL, FFLS).
func Baselines() []Solver { return baseline.All() }

// ParseP4Lite compiles p4lite source text — the library's small
// P4-inspired table language (see internal/p4lite for the grammar) —
// into a Program.
func ParseP4Lite(src string) (*Program, error) { return p4lite.Parse(src) }

// Analyze converts programs into an annotated merged TDG (the paper's
// program analyzer, Algorithm 1).
func Analyze(progs []*Program, opts AnalyzeOptions) (*TDG, error) {
	return analyzer.Analyze(progs, opts)
}

// DeployOptions configures Deploy.
type DeployOptions struct {
	// Solver picks the placement algorithm; nil means GreedySolver.
	Solver Solver
	// Epsilon1 bounds the end-to-end coordination latency (0 = unbounded).
	Epsilon1 time.Duration
	// Epsilon2 bounds the number of occupied switches (0 = unbounded).
	Epsilon2 int
	// SolverDeadline caps solver runtime (0 = none): ExactSolver returns
	// its best incumbent, unproven, at the deadline.
	SolverDeadline time.Duration
	// Workers bounds the solver's internal parallelism (candidate
	// scoring, branch search). Zero or negative means GOMAXPROCS; every
	// worker count produces the same plan.
	Workers int
	// Shards requests region-sharded placement: when > 1 and Solver is
	// nil, Deploy uses ShardedSolver instead of GreedySolver, splitting
	// the topology into this many regions solved concurrently and
	// reconciled at the boundaries. Explicit Solvers receive the value
	// through SolveOptions.Shards and honor it if they have a sharded
	// mode. Zero means whole-graph solving.
	Shards int
	// Partition, when non-nil, hands sharded placement a precomputed
	// region partition (over this topology, with Shards regions)
	// instead of re-partitioning — operators that replan against a
	// standing partition keep solve-time and replan-time regions
	// aligned.
	Partition *TopologyPartition
	// Traffic switches the solvers to the traffic-weighted objective
	// min Σ w(u,v)·A(u,v) (DESIGN.md §13): coordination bytes are scored
	// by the packet rate that actually carries them. Nil keeps the
	// paper's structural A_max objective.
	Traffic *TrafficMatrix
	// TrafficObjective picks the weighted aggregate (sum or max) when
	// Traffic is set; the zero value is TrafficWeightedSum.
	TrafficObjective TrafficObjective
	// AMaxSlack caps how far a weighted solve may inflate the
	// structural A_max above the structural optimum (e.g. 1.2 = 20%);
	// zero means the default bound. Ignored when Traffic is nil.
	AMaxSlack float64
	// Lint runs the static diagnostics engine (internal/lint) over the
	// merged TDG after analysis and over the solver's plan, whatever
	// the Solver, before compilation, failing Deploy on error-severity
	// findings.
	Lint bool
	// Equiv runs the symbolic plan-equivalence checker (internal/equiv)
	// once, over the compiled deployment's actual coordination headers
	// after Verify. Deploy fails on any error-severity HE finding — the
	// distributed pipeline is then not provably equivalent to the
	// single-box reference.
	Equiv bool
	// Ctx cancels the placement solve when done; nil means not
	// cancelable.
	Ctx context.Context
	// Prior, when non-nil, is the deployment currently serving traffic.
	// Deploy then adopts the new deployment via the transactional
	// make-before-break rollout engine instead of assuming a cold
	// start: new configs are staged next to the old epoch, program
	// groups flip atomically, and the old epoch is retired only after
	// every group committed. Result.Rollout carries the staged report;
	// a mid-rollout failure restores Prior and Deploy returns an error
	// wrapping ErrRolledBack. Prior is taken to serve at epoch 1.
	Prior *Deployment
}

// Result is the outcome of Deploy.
type Result struct {
	// TDG is the analyzed merged table dependency graph.
	TDG *TDG
	// Plan maps every MAT onto switch stages and picks routes.
	Plan *Plan
	// Deployment is the compiled per-switch configuration.
	Deployment *Deployment
	// Rollout reports the transactional adoption when
	// DeployOptions.Prior was set; nil otherwise.
	Rollout *RolloutReport
}

// Deploy runs the full Hermes pipeline: analyze → place → compile.
func Deploy(progs []*Program, topo *Topology, opts DeployOptions) (*Result, error) {
	g, err := analyzer.Analyze(progs, analyzer.Options{})
	if err != nil {
		return nil, fmt.Errorf("hermes: %w", err)
	}
	if opts.Lint {
		if err := lint.LintGraph(g, lint.Options{}).Err(); err != nil {
			return nil, fmt.Errorf("hermes: merged TDG rejected by lint: %w", err)
		}
	}
	solver := opts.Solver
	if solver == nil {
		if opts.Shards > 1 {
			solver = placement.ShardedGreedy{Partition: opts.Partition}
		} else {
			solver = GreedySolver
		}
	}
	popts := placement.Options{
		Epsilon1:         opts.Epsilon1,
		Epsilon2:         opts.Epsilon2,
		Workers:          opts.Workers,
		Ctx:              opts.Ctx,
		Shards:           opts.Shards,
		Traffic:          opts.Traffic,
		TrafficObjective: opts.TrafficObjective,
		AMaxSlack:        opts.AMaxSlack,
	}
	if opts.SolverDeadline > 0 {
		popts.Deadline = time.Now().Add(opts.SolverDeadline)
	}
	plan, err := solver.Solve(g, topo, popts)
	if err != nil {
		return nil, fmt.Errorf("hermes: %w", err)
	}
	if opts.Lint {
		if err := lintPlan(plan, popts); err != nil {
			return nil, err
		}
	}
	dep, err := deploy.Compile(plan, analyzer.Options{})
	if err != nil {
		return nil, fmt.Errorf("hermes: %w", err)
	}
	if err := dep.Verify(); err != nil {
		return nil, fmt.Errorf("hermes: %w", err)
	}
	if opts.Equiv {
		if err := equiv.CheckDeployment(g, dep); err != nil {
			return nil, fmt.Errorf("hermes: %w", err)
		}
	}
	res := &Result{TDG: g, Plan: plan, Deployment: dep}
	if opts.Prior != nil {
		r, err := rollout.New(opts.Prior, dep, RolloutOptions{Topo: topo, Ctx: opts.Ctx})
		if err != nil {
			return nil, fmt.Errorf("hermes: %w", err)
		}
		rep, err := r.Execute()
		res.Rollout = rep
		if err != nil {
			return res, fmt.Errorf("hermes: %w", err)
		}
	}
	return res, nil
}

// lintPlan is the plan gate behind DeployOptions.Lint and
// ReplanOptions.Lint: the lint engine's error-severity findings under
// the default resource model and the solve's ε bounds.
func lintPlan(p *Plan, opts SolveOptions) error {
	if err := lint.LintPlan(p, program.DefaultResourceModel, opts.Epsilon1, opts.Epsilon2).Err(); err != nil {
		return fmt.Errorf("hermes: %s plan rejected by lint: %w", p.SolverName, err)
	}
	return nil
}

// Simulation.
type (
	// Packet is a simulated packet (header fields only; metadata lives
	// inside switch pipelines).
	Packet = dataplane.Packet
	// Engine executes a deployment packet by packet: a BatchPipeline
	// over a batch of one, a Result per packet.
	Engine = dataplane.Engine
	// FlowConfig models a flow for FCT/goodput analysis.
	FlowConfig = e2esim.Config
	// FlowImpact is the normalized FCT/goodput penalty of an overhead.
	FlowImpact = e2esim.Impact
)

// NewEngine compiles a packet-level engine for a deployment. It
// executes the rules installed at that moment; build a new engine after
// a runtime rule change.
func NewEngine(dep *Deployment) (*Engine, error) { return dataplane.NewEngine(dep) }

// High-throughput replay (DESIGN.md §13.2).
type (
	// BatchPipeline executes a deployment over flat packet batches with
	// precompiled per-switch programs: the one interpreter of a
	// deployment, which Engine runs a packet at a time.
	BatchPipeline = dataplane.Pipeline
	// Batch is a column-major block of packets moving through a
	// BatchPipeline.
	Batch = dataplane.Batch
	// ReplayStats aggregates a replay run (packets/sec, coordination
	// bytes, per-pair byte counts).
	ReplayStats = dataplane.ReplayStats
	// TrafficReplayResult is ReplayTraffic's verdict: replay stats plus
	// the weighted byte-rate aggregates and an FCT proxy.
	TrafficReplayResult = dataplane.TrafficResult
)

// NewBatchPipeline compiles a deployment for batched execution.
// extraHeaders names header fields the workload sets beyond the
// deployment's own; batchSize <= 0 picks the default.
func NewBatchPipeline(dep *Deployment, extraHeaders []string, batchSize int) (*BatchPipeline, error) {
	return dataplane.NewPipeline(dep, extraHeaders, batchSize)
}

// ReplayTraffic drives a traffic matrix through a deployment on the
// batched pipeline, apportioning the packet budget over demands by
// rate, and reports goodput plus the measured weighted coordination
// byte-rates. workers is accepted and ignored.
func ReplayTraffic(dep *Deployment, tm *TrafficMatrix, packets, batchSize, workers int) (*TrafficReplayResult, error) {
	return dataplane.ReplayTraffic(dep, tm, packets, batchSize, workers)
}

// VerifyEquivalence checks that the distributed deployment processes
// the packet stream identically to a single unconstrained switch, and
// returns the largest coordination header observed.
func VerifyEquivalence(dep *Deployment, packets []*Packet) (int, error) {
	return dataplane.EquivalentRuns(dep, packets)
}

// EquivReport is the symbolic equivalence checker's full diagnostic
// verdict: HE findings, per-program verdicts, and a replay-confirmed
// counterexample packet on failure.
type EquivReport = equiv.Report

// CheckEquivalence statically proves the deployment's distributed
// pipeline equivalent to its single-box reference (nil error = proven)
// without replaying a single packet. It is the machine-proven superset
// of VerifyEquivalence: a symbolic pass implies the replay passes for
// every packet, not just a sampled stream.
func CheckEquivalence(dep *Deployment) error {
	return equiv.CheckDeployment(nil, dep)
}

// DiagnoseEquivalence builds the full equivalence report for a
// deployment, including non-gating findings (over-carried metadata,
// benign shuffles) and a concrete counterexample when broken.
func DiagnoseEquivalence(dep *Deployment) (*EquivReport, error) {
	return equiv.Diagnose(nil, dep)
}

// DefaultFlow returns the paper's DCN flow configuration for a packet
// size.
func DefaultFlow(packetBytes int) FlowConfig { return e2esim.DefaultDCN(packetBytes) }

// Runtime operations.

// Controller installs and removes rules on a live deployment.
type Controller = deploy.Controller

// NewController wraps a deployment for runtime rule management.
func NewController(dep *Deployment) (*Controller, error) {
	return deploy.NewController(dep)
}

// Replan recomputes a deployment after draining programmable switches
// (maintenance or partial failure); the drained switches keep
// forwarding but host no MATs. By default it repairs the old plan
// incrementally and only falls back to a full solve when the repair
// violates the ε bounds or the quality ratio; use ReplanWithOptions to
// pin the mode or inspect the churn telemetry.
func Replan(old *Plan, solver Solver, opts SolveOptions, drained ...SwitchID) (*Plan, error) {
	return placement.Replan(old, solver, opts, drained...)
}

// Replan strategies.
type (
	// ReplanMode selects incremental repair, full re-solve, or auto.
	ReplanMode = placement.ReplanMode
	// ReplanOptions extends SolveOptions with churn-path knobs.
	ReplanOptions = placement.ReplanOptions
	// ReplanReport is the churn telemetry of one replan.
	ReplanReport = placement.ReplanReport
)

// Replan modes.
const (
	// ReplanAuto repairs incrementally, falling back to a full solve.
	ReplanAuto = placement.ReplanAuto
	// ReplanIncremental repairs incrementally or fails.
	ReplanIncremental = placement.ReplanIncremental
	// ReplanFull always re-solves from scratch.
	ReplanFull = placement.ReplanFull
)

// ParseReplanMode converts the CLI spelling of a replan mode.
func ParseReplanMode(s string) (ReplanMode, error) { return placement.ParseReplanMode(s) }

// ReplanWithOptions is Replan with an explicit mode and churn
// telemetry.
func ReplanWithOptions(old *Plan, solver Solver, opts ReplanOptions, drained ...SwitchID) (*Plan, *ReplanReport, error) {
	return placement.ReplanWithOptions(old, solver, opts, drained...)
}

// Redeploy replans a live deployment around drained switches and
// recompiles the result: replan → compile → verify, then the plan lint
// when opts.Lint is set and the symbolic equivalence proof of the
// compiled deployment when opts.Equiv is set — once each, whichever
// path (repair or full solve) produced the plan. aopts is ignored: no
// analyzer option changes the compiled headers any more, and the
// parameter stays only until benchmark/ moves onto the facade
// (ROADMAP 2(ii)).
func Redeploy(dep *Deployment, solver Solver, opts ReplanOptions, aopts AnalyzeOptions, drained ...SwitchID) (*Deployment, *ReplanReport, error) {
	next, rep, err := deploy.Redeploy(dep, solver, opts, drained...)
	if err != nil {
		return nil, rep, err
	}
	if opts.Lint {
		if err := lintPlan(next.Plan, opts.Options); err != nil {
			return nil, rep, err
		}
	}
	if opts.Equiv {
		if err := equiv.CheckDeployment(nil, next); err != nil {
			return nil, rep, fmt.Errorf("hermes: %w", err)
		}
	}
	return next, rep, nil
}

// PlanDiff reports how many MATs changed hosting switch between two
// plans over the same TDG — the migration cost of a replan.
func PlanDiff(a, b *Plan) (int, error) { return placement.Diff(a, b) }

// RouteOptions configure OptimizeRoutes.
type RouteOptions = placement.RouteOptions

// OptimizeRoutes re-chooses the plan's inter-switch paths among each
// pair's k shortest (the y(u,v,p) decision variables) to minimize the
// busiest link's piggyback load; it returns that maximum per-link byte
// count.
func OptimizeRoutes(p *Plan, opts RouteOptions) (int, error) {
	return placement.OptimizeRoutes(p, opts)
}

// TrafficSpec generates Zipf-distributed packet workloads with exact
// ground-truth flow counts.
type TrafficSpec = dataplane.TrafficSpec

// DecodePlan rehydrates a JSON-serialized plan (Plan.EncodeJSON)
// against the TDG and topology it was computed for, validating it under
// the default resource model.
func DecodePlan(data []byte, g *TDG, topo *Topology) (*Plan, error) {
	return placement.DecodePlan(data, g, topo, program.DefaultResourceModel)
}

// Fault tolerance.

type (
	// FaultEvent is one scheduled fault-layer mutation (switch or link
	// down/up).
	FaultEvent = network.FaultEvent
	// FaultSchedule is a tick-ordered fault sequence.
	FaultSchedule = network.Schedule
	// FaultScheduleOptions parameterizes GenerateFaultSchedule.
	FaultScheduleOptions = network.ScheduleOptions
	// Supervisor keeps a deployment consistent with the live topology's
	// fault state: health monitoring with K-of-N confirmation,
	// incremental replanning on confirmed failures, graceful program
	// shedding when no feasible plan exists, and restoration on heal.
	Supervisor = supervisor.Supervisor
	// SupervisorOptions configures a Supervisor.
	SupervisorOptions = supervisor.Options
	// MonitorOptions tunes the health monitor (confirmation windows,
	// probe timeout, backoff).
	MonitorOptions = supervisor.MonitorOptions
	// DegradationReport records every shed/restore decision.
	DegradationReport = supervisor.DegradationReport
	// SupervisorStats are the supervisor's lifetime counters.
	SupervisorStats = supervisor.Stats
	// SupervisorPollResult describes what one supervision tick did.
	SupervisorPollResult = supervisor.PollResult
	// RetryPolicy configures the rollout engine's per-op retries
	// against transiently down switches.
	RetryPolicy = deploy.RetryPolicy
)

// ErrSwitchDown marks rule and rollout operations that failed because
// the hosting switch is down; it is the only error the rollout engine
// retries.
var ErrSwitchDown = deploy.ErrSwitchDown

// Transactional rollout (make-before-break plan adoption).
type (
	// Rollout is one prepared old→new transactional transition: new
	// configs staged under a fresh epoch, per-program atomic flips,
	// journaled ops with automatic rollback to the last-good plan.
	Rollout = rollout.Rollout
	// RolloutOptions configure one rollout (live topology, retry
	// policy, fabric, resume journal, op hook).
	RolloutOptions = rollout.Options
	// RolloutReport is the staged record of one rollout execution
	// (stable JSON field names; String renders the CLI output).
	RolloutReport = rollout.Report
	// RolloutJournal is the durable op-by-op record that lets an
	// interrupted rollout resume or roll back after a crash.
	RolloutJournal = rollout.Journal
	// RolloutFabric abstracts the switch config store rollout ops are
	// applied to.
	RolloutFabric = rollout.Fabric
	// RolloutMemFabric is the in-memory fabric tracking per-switch
	// installed epochs against a live topology's fault overlay.
	RolloutMemFabric = rollout.MemFabric
	// RolloutHook observes every rollout op boundary (fault injection
	// in chaos tests, progress reporting in tools).
	RolloutHook = rollout.Hook
	// ServingView is the rollout's live program→epoch serving state.
	ServingView = rollout.ServingView
)

// ErrRolledBack marks a rollout that could not complete and restored
// the last-good plan; the wrapped cause names the op that failed.
var ErrRolledBack = rollout.ErrRolledBack

// Rollout outcomes (RolloutReport.Outcome).
const (
	RolloutCommitted   = rollout.OutcomeCommitted
	RolloutRolledBack  = rollout.OutcomeRolledBack
	RolloutInterrupted = rollout.OutcomeInterrupted
	RolloutDegraded    = rollout.OutcomeDegraded
)

// NewRollout diffs old → next and prepares (or, with opts.Journal,
// resumes) a transactional make-before-break rollout between them.
func NewRollout(old, next *Deployment, opts RolloutOptions) (*Rollout, error) {
	return rollout.New(old, next, opts)
}

// ExecuteRollout is the one-shot path: prepare and run a rollout from
// old to next over the live topology, returning the staged report.
func ExecuteRollout(old, next *Deployment, opts RolloutOptions) (*RolloutReport, error) {
	r, err := rollout.New(old, next, opts)
	if err != nil {
		return nil, err
	}
	return r.Execute()
}

// NewRolloutFabric builds an in-memory rollout fabric over topo.
func NewRolloutFabric(topo *Topology) *RolloutMemFabric {
	return rollout.NewMemFabric(topo)
}

// ParseRolloutJournal reads a journal's text form (Journal.Format)
// back for resume after an interrupted rollout.
func ParseRolloutJournal(text string) (*RolloutJournal, error) {
	return rollout.ParseJournal(text)
}

// GenerateFaultSchedule produces a deterministic fault schedule for a
// topology: crashes, link cuts, flapping, and correlated regional
// outages, with matching heals. Every prefix leaves the surviving
// subgraph connected.
func GenerateFaultSchedule(topo *Topology, opts FaultScheduleOptions) (*FaultSchedule, error) {
	return network.GenerateSchedule(topo, opts)
}

// ParseFaultSchedule reads the text schedule form (one
// `<tick> <op> <args>` event per line).
func ParseFaultSchedule(r io.Reader) (*FaultSchedule, error) {
	return network.ParseSchedule(r)
}

// NewSupervisor deploys progs on topo (progs[0] has the highest
// priority and is shed last) and wraps the deployment in a supervisor.
func NewSupervisor(progs []*Program, topo *Topology, opts SupervisorOptions) (*Supervisor, error) {
	return supervisor.New(progs, topo, opts)
}

// Workloads.

// RealPrograms returns the ten switch.p4-style evaluation programs.
func RealPrograms() []*Program { return workload.RealPrograms() }

// SyntheticPrograms generates n synthetic programs with the paper's
// published parameters, deterministic in seed.
func SyntheticPrograms(n int, seed int64) ([]*Program, error) {
	return workload.SyntheticSet(n, workload.PaperSyntheticSpec(), seed)
}

// Sketches generates the Exp#6 software-defined-measurement workload.
func Sketches(n int, seed int64) ([]*Program, error) {
	return workload.SketchSet(n, seed)
}
