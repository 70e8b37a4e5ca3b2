package experiments

import (
	"fmt"
	"runtime"
	"sort"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/baseline"
	"github.com/hermes-net/hermes/internal/e2esim"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
	"github.com/hermes-net/hermes/internal/workload"
)

// --- Figure 2: motivation sweep ---

// Fig2Point is one point of Figure 2.
type Fig2Point struct {
	PacketBytes     int
	OverheadBytes   int
	FCTIncrease     float64
	GoodputDecrease float64
}

// Figure2 sweeps the per-packet overhead for the paper's three packet
// sizes. The (size, overhead) grid evaluates concurrently; the
// returned points keep the serial order (sizes outer, overheads
// inner).
func Figure2() ([]Fig2Point, error) {
	sizes := e2esim.Figure2PacketSizes()
	overheads := e2esim.Figure2Overheads()
	out := make([]Fig2Point, len(sizes)*len(overheads))
	errs := make([]error, len(out))
	runParallel(len(out), runtime.GOMAXPROCS(0), func(i int) {
		size := sizes[i/len(overheads)]
		h := overheads[i%len(overheads)]
		imp, err := e2esim.DefaultDCN(size).ImpactOf(h)
		if err != nil {
			errs[i] = fmt.Errorf("experiments: figure 2: %w", err)
			return
		}
		out[i] = Fig2Point{
			PacketBytes:     size,
			OverheadBytes:   h,
			FCTIncrease:     imp.FCTIncrease,
			GoodputDecrease: imp.GoodputDecrease,
		}
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// runGrid evaluates the (row × solver) cell grid concurrently and
// returns per-row result slices in row order. Cells are claimed
// work-stealing style so one slow Optimal cell does not serialize a
// whole row behind it. When cells run concurrently each solver runs with
// Workers=1 — the outer level already saturates the machine, and
// nesting would multiply goroutines and starve the wall-clock-budgeted
// solvers; with a single worker the full budget flows to the solver
// instead.
func runGrid(insts []*instance, specs []solverSpec, cfg Config) [][]SolverResult {
	cellCfg := cfg
	if cfg.workers() > 1 {
		cellCfg.Workers = 1
	}
	results := make([][]SolverResult, len(insts))
	for i := range results {
		results[i] = make([]SolverResult, len(specs))
	}
	// Claim the deadline-capped Optimal cells first: they are anytime
	// searches pinned to a wall-clock cap, so overlapping them costs
	// nothing and hides their waits behind the heuristic cells.
	order := make([]int, len(insts)*len(specs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return specs[order[a]%len(specs)].deadlined && !specs[order[b]%len(specs)].deadlined
	})
	runParallel(len(order), cfg.workers(), func(c int) {
		i, j := order[c]/len(specs), order[c]%len(specs)
		results[i][j] = runSolver(specs[j], insts[i], cellCfg)
	})
	return results
}

// --- Exp#1: testbed (Figure 5) ---

// Exp1Row is one x-axis point of Figure 5: all solvers at a program
// count.
type Exp1Row struct {
	Programs int
	Results  []SolverResult
}

// testbedTopology builds the paper's 3-Tofino linear testbed with the
// calibrated stage capacity.
func testbedTopology(cfg Config) (*network.Topology, error) {
	spec := network.TestbedSpec()
	spec.StageCapacity = cfg.TestbedStageCapacity
	return network.Linear(3, spec)
}

// Exp1 deploys 2..10 real programs on the testbed with every solver.
// Instance analysis and the (program count × solver) cells run
// concurrently under cfg.Workers; rows come back in program-count
// order.
func Exp1(cfg Config) ([]Exp1Row, error) {
	topo, err := testbedTopology(cfg)
	if err != nil {
		return nil, err
	}
	real := workload.RealPrograms()
	var counts []int
	for n := 2; n <= len(real); n += 2 {
		counts = append(counts, n)
	}
	insts := make([]*instance, len(counts))
	errs := make([]error, len(counts))
	runParallel(len(counts), cfg.workers(), func(i int) {
		insts[i], errs[i] = buildInstance(real[:counts[i]], topo)
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	results := runGrid(insts, solverSpecs(), cfg)
	rows := make([]Exp1Row, len(counts))
	for i, n := range counts {
		rows[i] = Exp1Row{Programs: n, Results: results[i]}
	}
	return rows, nil
}

// --- Exp#2/#3/#4: large-scale simulation (Figures 6, 7, 8) ---

// TopoRow is one topology's results (Exp#2 overhead, Exp#3 time, Exp#4
// end-to-end impact all read off the same solver runs).
type TopoRow struct {
	Topology int
	Nodes    int
	Edges    int
	Results  []SolverResult
}

// Exp2 deploys `programs` concurrent programs (the paper uses 50) on
// each of the ten Table III topologies. Topology construction and the
// (topology × solver) cells run concurrently under cfg.Workers; rows
// come back in topology order.
func Exp2(cfg Config, programs int) ([]TopoRow, error) {
	progs, err := workload.EvaluationPrograms(programs, cfg.Seed)
	if err != nil {
		return nil, err
	}
	nRows := network.NumTableIII()
	rows := make([]TopoRow, nRows)
	insts := make([]*instance, nRows)
	errs := make([]error, nRows)
	runParallel(nRows, cfg.workers(), func(i int) {
		topoIdx := i + 1
		topo, err := network.TableIII(topoIdx, network.TofinoSpec())
		if err != nil {
			errs[i] = err
			return
		}
		inst, err := buildInstance(progs, topo)
		if err != nil {
			errs[i] = err
			return
		}
		nodes, edges, err := network.TableIIISize(topoIdx)
		if err != nil {
			errs[i] = err
			return
		}
		insts[i] = inst
		rows[i] = TopoRow{Topology: topoIdx, Nodes: nodes, Edges: edges}
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	results := runGrid(insts, solverSpecs(), cfg)
	for i := range rows {
		rows[i].Results = results[i]
	}
	return rows, nil
}

// --- Exp#5: scalability (Figure 9) ---

// ScaleRow is one program-count point on topology 10.
type ScaleRow struct {
	Programs int
	Results  []SolverResult
}

// Exp5 varies the number of concurrent programs from 10 to 50 on the
// tenth topology. Workload analysis and the (program count × solver)
// cells run concurrently under cfg.Workers; rows come back in
// program-count order.
func Exp5(cfg Config) ([]ScaleRow, error) {
	topo, err := network.TableIII(10, network.TofinoSpec())
	if err != nil {
		return nil, err
	}
	var counts []int
	for n := 10; n <= 50; n += 10 {
		counts = append(counts, n)
	}
	insts := make([]*instance, len(counts))
	errs := make([]error, len(counts))
	runParallel(len(counts), cfg.workers(), func(i int) {
		progs, err := workload.EvaluationPrograms(counts[i], cfg.Seed)
		if err != nil {
			errs[i] = err
			return
		}
		insts[i], errs[i] = buildInstance(progs, topo)
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	results := runGrid(insts, solverSpecs(), cfg)
	rows := make([]ScaleRow, len(counts))
	for i, n := range counts {
		rows[i] = ScaleRow{Programs: n, Results: results[i]}
	}
	return rows, nil
}

// --- Exp#6: switch resource consumption ---

// Exp6Result reports resource accounting for the SDM scenario.
type Exp6Result struct {
	// GroundTruth is the summed per-sketch resource requirement when
	// each sketch is deployed alone (no coordination active).
	GroundTruth float64
	// HermesUsed is the total resources consumed by the Hermes
	// deployment of all sketches at once.
	HermesUsed float64
	// SPEEDUsed is the same for SPEED.
	SPEEDUsed float64
	// MergeSavings is the resource amount merging eliminated.
	MergeSavings float64
	// HermesExtra is HermesUsed minus the merged workload's inherent
	// requirement — the coordination overhead Exp#6 claims is zero.
	HermesExtra float64
}

// Exp6 deploys ten sketches and accounts for switch resources. The
// sketch workload is denser than the Exp#1 mix, so Exp#6 uses its own
// testbed calibration (0.3 stage capacity) regardless of cfg.
func Exp6(cfg Config) (*Exp6Result, error) {
	if cfg.TestbedStageCapacity < 0.3 {
		cfg.TestbedStageCapacity = 0.3
	}
	sketches, err := workload.SketchSet(10, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rm := program.DefaultResourceModel

	// Ground truth: each sketch alone.
	ground := 0.0
	for _, s := range sketches {
		g, err := analyzer.Analyze([]*program.Program{s}, analyzer.Options{})
		if err != nil {
			return nil, err
		}
		ground += g.TotalRequirement(rm)
	}

	merged, err := analyzer.Analyze(sketches, analyzer.Options{})
	if err != nil {
		return nil, err
	}
	inherent := merged.TotalRequirement(rm)

	topo, err := testbedTopology(cfg)
	if err != nil {
		return nil, err
	}
	planUsed := func(p *placement.Plan) float64 {
		total := 0.0
		for _, sp := range p.Assignments {
			total += sp.Total()
		}
		return total
	}
	hermesPlan, err := (placement.Greedy{}).Solve(merged, topo, placement.Options{})
	if err != nil {
		return nil, fmt.Errorf("experiments: exp6 hermes: %w", err)
	}
	speedPlan, err := runSpeedForExp6(merged, topo)
	if err != nil {
		return nil, fmt.Errorf("experiments: exp6 speed: %w", err)
	}
	return &Exp6Result{
		GroundTruth:  ground,
		HermesUsed:   planUsed(hermesPlan),
		SPEEDUsed:    planUsed(speedPlan),
		MergeSavings: ground - inherent,
		HermesExtra:  planUsed(hermesPlan) - inherent,
	}, nil
}

func runSpeedForExp6(merged *tdg.Graph, topo *network.Topology) (*placement.Plan, error) {
	return (baseline.SPEED{}).Solve(merged, topo, placement.Options{})
}
