// The "core" experiment measures the compiled placement kernels
// against their retained map-based reference twins, plus the solver
// entry points they serve. Each pair runs over the same solved
// Table III instance, so the map/compiled ratio is a like-for-like
// measurement of the dense instance model — and the dual condition's
// calibrator: it only drops when the compiled kernel lost ground
// against a twin measured seconds apart on the same host.
package main

import (
	"fmt"
	"slices"
	"testing"

	hermes "github.com/hermes-net/hermes"
	"github.com/hermes-net/hermes/internal/experiments"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/workload"
)

const (
	// Each compiled kernel must be this much faster and leaner than its
	// map twin (an allocation-free kernel passes the allocs floor).
	coreNsRatio     = 5.0
	coreAllocsRatio = 10.0
	// coreReps: every kernel number is the best of this many harness
	// runs — the noise-robust point estimate for CPU-bound loops.
	coreReps = 5
)

// kernelPoint is one map-vs-compiled kernel measurement.
type kernelPoint struct {
	name         string
	mapRes, comp testing.BenchmarkResult
}

// ratio is num/den, or 0 when the denominator was not measured.
func ratio[N int | int64](num, den N) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// allocsRatio is map/compiled allocations; when the compiled side is
// allocation-free the ratio is unbounded and the map count stands in.
func (k kernelPoint) allocsRatio() float64 {
	if k.comp.AllocsPerOp() == 0 {
		return float64(k.mapRes.AllocsPerOp())
	}
	return float64(k.mapRes.AllocsPerOp()) / float64(k.comp.AllocsPerOp())
}

// solverPoint is one solver-level measurement.
type solverPoint struct {
	name string
	res  testing.BenchmarkResult
}

var coreExp = experiment{
	name: "core", title: "Core: compiled scoring kernels vs map references",
	baseline: true,
	tables: []table{
		{name: "kernels",
			cols: []column{
				col(key, "name", "kernel", "", func(k kernelPoint) any { return k.name }),
				col(timing, "map_ns_per_op", "map ns/op", "", func(k kernelPoint) any { return k.mapRes.NsPerOp() }),
				col(alloc, "map_allocs_per_op", "map allocs", "", func(k kernelPoint) any { return k.mapRes.AllocsPerOp() }),
				col(timing, "compiled_ns_per_op", "compiled ns/op", "", func(k kernelPoint) any { return k.comp.NsPerOp() }).dual("ns_ratio", 1.10, 1.10),
				col(alloc, "compiled_allocs_per_op", "comp allocs", "", func(k kernelPoint) any { return k.comp.AllocsPerOp() }),
				col(timing, "ns_ratio", "ns ratio", "%.1fx", func(k kernelPoint) any { return ratio(k.mapRes.NsPerOp(), k.comp.NsPerOp()) }).up(),
				col(alloc, "allocs_ratio", "allocs", "%.0fx", func(k kernelPoint) any { return k.allocsRatio() }),
			},
			checks: []check{
				bound("ns_ratio", ">=", coreNsRatio),
				bound("allocs_ratio", ">=", coreAllocsRatio).when("unless allocation-free",
					func(r row) bool { return r.num("compiled_allocs_per_op") > 0 }),
			}},
		{name: "end_to_end",
			cols: []column{
				col(key, "name", "end-to-end", "", func(p solverPoint) any { return p.name }),
				col(timing, "ns_per_op", "ns/op", "", func(p solverPoint) any { return p.res.NsPerOp() }),
				col(alloc, "allocs_per_op", "allocs/op", "", func(p solverPoint) any { return p.res.AllocsPerOp() }),
				col(alloc, "bytes_per_op", "bytes/op", "", func(p solverPoint) any { return p.res.AllocedBytesPerOp() }),
			}},
	},
	run: func(c *runCtx) (result, error) {
		kernelProgs := min(c.programs, 30)
		inst, err := newCoreInstance(kernelProgs, c.cfg.Seed)
		if err != nil {
			return result{}, err
		}
		res := result{
			params: map[string]any{"topology": 1, "programs": kernelProgs},
			points: map[string]any{"kernels": inst.coreKernels()},
		}
		if !c.smoke { // the solver entry points take the better part of a minute
			e2e, err := coreEndToEnd(c)
			if err != nil {
				return result{}, err
			}
			res.points["end_to_end"] = e2e
		}
		return res, nil
	},
}

// coreInstance is the shared measurement fixture: a solved Table III
// instance with both dense and map-keyed views of the same assignment.
type coreInstance struct {
	ci     *placement.CompiledInstance
	assign map[string]network.SwitchID
	dense  []int32
	// partial drops ~30% of the MATs for the place-score kernels.
	partial map[string]network.SwitchID
	pdense  []int32
}

// tableIIIPlan analyzes the programs and places them with Greedy on a
// Table III topology — the fixture every measurement here starts from.
// capacity 0 keeps the Tofino stage capacity.
func tableIIIPlan(progs []*program.Program, topoID int, capacity float64, opts placement.Options) (*placement.Plan, error) {
	merged, err := hermes.Analyze(progs, hermes.AnalyzeOptions{})
	if err != nil {
		return nil, err
	}
	spec := network.TofinoSpec()
	if capacity > 0 {
		spec.StageCapacity = capacity
	}
	topo, err := network.TableIII(topoID, spec)
	if err != nil {
		return nil, err
	}
	return (placement.Greedy{}).Solve(merged, topo, opts)
}

func newCoreInstance(programs int, seed int64) (*coreInstance, error) {
	progs, err := workload.EvaluationPrograms(programs, seed)
	if err != nil {
		return nil, err
	}
	plan, err := tableIIIPlan(progs, 1, 0, placement.Options{})
	if err != nil {
		return nil, err
	}
	ci := placement.Compile(plan.Graph, plan.Topo, program.DefaultResourceModel)
	inst := &coreInstance{
		ci:      ci,
		assign:  make(map[string]network.SwitchID, len(plan.Assignments)),
		dense:   ci.DenseAssign(plan.Hosts()),
		partial: make(map[string]network.SwitchID, len(plan.Assignments)),
	}
	inst.pdense = slices.Clone(inst.dense)
	for name, sp := range plan.Assignments {
		inst.assign[name] = sp.Switch
		// Deterministic subset via the interned index, not map order.
		if x := ci.Index[name]; x%10 < 7 {
			inst.partial[name] = sp.Switch
		} else {
			inst.pdense[x] = -1
		}
	}
	return inst, nil
}

// loop is the benchmark body that runs op b.N times.
func loop(op func(i int) error) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := op(i); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// measureBest repeats a kernel measurement and keeps the fastest run.
// The kernels sit in the tens of nanoseconds where scheduler noise is
// a double-digit percentage of a single run; the minimum is the
// standard noise-robust point estimate for CPU-bound loops, and both
// the baseline writer and the compare gate use it so the 10% slack
// compares like against like.
func measureBest(reps int, fn func(b *testing.B)) testing.BenchmarkResult {
	best := testing.Benchmark(fn)
	for i := 1; i < reps; i++ {
		if r := testing.Benchmark(fn); r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	return best
}

// coreKernels measures the four scoring kernels map-vs-compiled.
func (inst *coreInstance) coreKernels() []kernelPoint {
	ci, g := inst.ci, inst.ci.Graph
	pt := ci.NewPairTable()
	ms := ci.NewMoveScratch()
	pair, total := placement.PairBytesRef(g, inst.assign)
	delta := map[placement.RouteKey]int{}
	ppair, _ := placement.PairBytesRef(g, inst.partial)

	// Move/place probe sets: every MAT cycled over a handful of
	// candidate switches, identical for both sides.
	probes := make([]int32, 0, len(ci.Names))
	for x := range ci.Names {
		probes = append(probes, int32(x))
	}
	var unassigned []int32
	for _, name := range ci.Names {
		if _, ok := inst.partial[name]; !ok {
			unassigned = append(unassigned, ci.Index[name])
		}
	}

	var rows []kernelPoint

	rows = append(rows, kernelPoint{"amax",
		measureBest(coreReps, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				placement.AssignmentAMaxRef(g, inst.assign)
			}
		}),
		measureBest(coreReps, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ci.AssignmentAMax(inst.dense, pt)
			}
		})})

	rows = append(rows, kernelPoint{"pair_bytes",
		measureBest(coreReps, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				placement.PairBytesRef(g, inst.assign)
			}
		}),
		measureBest(coreReps, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ci.FillPairTable(inst.dense, pt)
			}
		})})

	// The move/place kernels cost tens of nanoseconds per call; one
	// measured op is a full sweep over every probe so per-op time sits
	// in the microseconds, where run-to-run jitter is a small fraction.
	ci.FillPairTable(inst.dense, pt)
	rows = append(rows, kernelPoint{"move_delta",
		measureBest(coreReps, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, x := range probes {
					cand := network.SwitchID((int(x) + i) % int(ci.S))
					placement.MoveScoreRef(g, inst.assign, pair, delta, total, ci.Names[x], cand)
				}
			}
		}),
		measureBest(coreReps, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, x := range probes {
					cand := int32((int(x) + i) % int(ci.S))
					ci.MoveScore(inst.dense, pt, ms, x, cand, total)
				}
			}
		})})

	ci.FillPairTable(inst.pdense, pt)
	rows = append(rows, kernelPoint{"place_score",
		measureBest(coreReps, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, x := range unassigned {
					u := network.SwitchID((int(x) + i) % int(ci.S))
					placement.PlaceScoreRef(g, inst.partial, ppair, delta, ci.Names[x], u)
				}
			}
		}),
		measureBest(coreReps, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, x := range unassigned {
					u := int32((int(x) + i) % int(ci.S))
					ci.PlaceScore(inst.pdense, pt, ms, x, u)
				}
			}
		})})

	return rows
}

// coreEndToEnd measures the three solver entry points the kernels
// serve: greedy construction, exact search, and churn replanning.
func coreEndToEnd(c *runCtx) ([]solverPoint, error) {
	var rows []solverPoint

	// Greedy on Table III topology 1 with the full program count.
	progs, err := workload.EvaluationPrograms(c.programs, c.cfg.Seed)
	if err != nil {
		return nil, err
	}
	first, err := tableIIIPlan(progs, 1, 0, placement.Options{})
	if err != nil {
		return nil, err
	}
	merged, topo := first.Graph, first.Topo
	res := testing.Benchmark(loop(func(int) error {
		_, err := (placement.Greedy{}).Solve(merged, topo, placement.Options{})
		return err
	}))
	rows = append(rows, solverPoint{fmt.Sprintf("greedy_tableIII1_%dprog", c.programs), res})

	// Exact branch & bound on the Figure 1 instance.
	exProgs := workload.RealPrograms()[:4]
	exMerged, err := hermes.Analyze(exProgs, hermes.AnalyzeOptions{})
	if err != nil {
		return nil, err
	}
	spec := network.TestbedSpec()
	spec.StageCapacity = 0.15
	exTopo, err := network.Linear(3, spec)
	if err != nil {
		return nil, err
	}
	res = testing.Benchmark(loop(func(int) error {
		_, err := (placement.Exact{}).Solve(exMerged, exTopo, placement.Options{})
		return err
	}))
	rows = append(rows, solverPoint{"exact_figure1", res})

	// Exp#7-style replan study at a reduced program count.
	replanProgs := min(c.programs, 20)
	res = testing.Benchmark(loop(func(int) error {
		_, err := experiments.Exp7(c.cfg, replanProgs)
		return err
	}))
	rows = append(rows, solverPoint{fmt.Sprintf("replan_exp7_%dprog", replanProgs), res})
	return rows, nil
}
