// Package experiments reproduces every experiment of the paper's
// evaluation (§VI): the motivation sweep of Figure 2, the testbed study
// Exp#1 (Fig. 5), the large-scale simulation Exp#2–Exp#4 (Fig. 6–8),
// the scalability study Exp#5 (Fig. 9), and the resource-consumption
// study Exp#6. The cmd/hermes-bench binary and the top-level Go
// benchmarks drive these functions and print the same rows and series
// the paper reports.
package experiments

import (
	"fmt"
	"runtime"
	"time"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/baseline"
	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/e2esim"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

// Config bundles the knobs shared by experiments.
type Config struct {
	// Seed makes workloads and topologies deterministic.
	Seed int64
	// SolverDeadline caps each Optimal (exact branch & bound) solve. The
	// paper caps Gurobi at two hours; we default to 3 s per instance so
	// the full suite stays laptop-sized. A run the deadline stops
	// reports its best incumbent, marked Capped, with its measured time.
	SolverDeadline time.Duration
	// TestbedStageCapacity calibrates Exp#1's per-stage capacity so the
	// largest program (the count-min sketch) overflows a single switch,
	// as on the paper's Tofinos (whose pipelines the ten switch.p4
	// variants saturate); 0.15 puts the ten-program workload at ~2.4
	// switch loads on the 3-switch testbed.
	TestbedStageCapacity float64
	// PacketBytes is the packet size for end-to-end impact (the paper
	// uses 1024-byte packets in Exp#4).
	PacketBytes int
	// Workers bounds the number of concurrently evaluated experiment
	// cells (one solver on one instance). With a single worker the
	// value is forwarded to the solver's internal parallelism instead;
	// concurrent cells run their solvers serially so the two levels
	// never multiply. Zero or negative means GOMAXPROCS. Every worker
	// count yields the same rows in the same order; the ExecTime
	// fields (and the incumbents of deadline-capped Optimal cells) are
	// timing-dependent, exactly as under the paper's wall-clock caps.
	Workers int
}

// workers resolves the effective worker count.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// DefaultConfig returns the settings used throughout EXPERIMENTS.md.
func DefaultConfig() Config {
	return Config{
		Seed:                 1,
		SolverDeadline:       3 * time.Second,
		TestbedStageCapacity: 0.15,
		PacketBytes:          1024,
	}
}

// SolverResult is one solver's outcome on one instance.
type SolverResult struct {
	Solver string
	// Err is non-empty when the solver failed outright or its plan did
	// not compile.
	Err string
	// AMax is the per-packet byte overhead by Eq. 1 (per-pair sums of
	// A(a,b); shared fields count once per edge).
	AMax int
	// HeaderBytes is the realized overhead: the largest compiled
	// coordination header, with fields shared by several dependencies
	// deduplicated — what a testbed would measure on the wire.
	HeaderBytes int
	// TotalCross is the summed cross-switch metadata.
	TotalCross int
	// QOcc is the number of occupied switches.
	QOcc int
	// ExecTime is the solver's measured wall-clock time.
	ExecTime time.Duration
	// Capped marks an Optimal run that hit Config.SolverDeadline (or its
	// node cap) before proving its incumbent optimal.
	Capped bool
	// FCTOverhead and GoodputLoss are the end-to-end penalties of AMax
	// under the Exp#4 flow model (fractions, e.g. 0.15 = +15% FCT).
	FCTOverhead float64
	GoodputLoss float64
}

// instance bundles the analyzed workload for one experiment point.
type instance struct {
	merged *tdg.Graph // SPEED-merged TDG (network-wide frameworks)
	union  *tdg.Graph // per-program union (one-by-one frameworks)
	topo   *network.Topology
}

// buildInstance analyzes the programs both ways.
func buildInstance(progs []*program.Program, topo *network.Topology) (*instance, error) {
	merged, err := analyzer.Analyze(progs, analyzer.Options{})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	union, err := analyzer.Analyze(progs, analyzer.Options{SkipMerge: true})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return &instance{merged: merged, union: union, topo: topo}, nil
}

// solverSpec describes how to run one comparison point.
type solverSpec struct {
	name string
	// useMerged picks the merged TDG (network-wide frameworks merge;
	// one-by-one frameworks deploy per-program graphs).
	useMerged bool
	// run executes the solver.
	run func(g *tdg.Graph, topo *network.Topology, opts placement.Options) (*placement.Plan, error)
	// deadlined marks the exact Optimal search: it runs under
	// Config.SolverDeadline and reports Capped when it stops unproven.
	// Exact seeds its incumbent with a deadline-free Greedy solve, so a
	// capped Optimal never reports a worse A_max than the Hermes column.
	deadlined bool
}

// solverSpecs returns the comparison lineup of §VI-A: Hermes, Optimal,
// then the eight behavioural baselines in baseline.All() order — the
// same lineup as `hermes -solver all`.
func solverSpecs() []solverSpec {
	specs := []solverSpec{
		{
			name:      "Hermes",
			useMerged: true,
			run:       placement.Greedy{}.Solve,
		},
		{
			name:      "Optimal",
			useMerged: true,
			deadlined: true,
			run:       placement.Exact{}.Solve,
		},
	}
	for _, b := range baseline.All() {
		specs = append(specs, solverSpec{
			name:      b.Name(),
			useMerged: usesMergedTDG(b.Name()),
			run:       b.Solve,
		})
	}
	return specs
}

// usesMergedTDG reports whether the named baseline merges input
// programs (the network-wide SPEED and MTP do; the single-switch
// one-by-one frameworks do not).
func usesMergedTDG(name string) bool {
	return name == "SPEED" || name == "MTP"
}

// runSolver executes one spec on one instance and post-processes the
// metrics.
func runSolver(spec solverSpec, inst *instance, cfg Config) SolverResult {
	g := inst.union
	if spec.useMerged {
		g = inst.merged
	}
	opts := placement.Options{Workers: cfg.Workers}
	if spec.deadlined && cfg.SolverDeadline > 0 {
		opts.Deadline = time.Now().Add(cfg.SolverDeadline)
	}

	res := SolverResult{Solver: spec.name}
	start := time.Now()
	plan, err := spec.run(g, inst.topo, opts)
	res.ExecTime = time.Since(start)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	dep, err := deploy.Compile(plan, analyzer.Options{})
	if err != nil {
		res.Err = err.Error()
		return res
	}

	res.AMax = plan.AMax()
	res.HeaderBytes = dep.MaxHeaderBytes()
	res.TotalCross = plan.TotalCrossBytes()
	res.QOcc = plan.QOcc()
	res.Capped = spec.deadlined && !plan.Proven

	flow := e2esim.DefaultDCN(cfg.PacketBytes)
	if impact, ierr := flow.ImpactOf(res.HeaderBytes); ierr == nil {
		res.FCTOverhead = impact.FCTIncrease
		res.GoodputLoss = impact.GoodputDecrease
	}
	return res
}
