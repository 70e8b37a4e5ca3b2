package placement

import (
	"testing"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
	"github.com/hermes-net/hermes/internal/workload"
)

// Ablation benchmarks for Greedy's three refinements of Algorithm 2:
// coalescing adjacent under-full segments, the DP capacity split and
// the local-search polish. Each reports the A_max achieved with the
// refinement on and off, so `go test -bench Ablation
// ./internal/placement` doubles as the ablation table. Greedy has no
// switches for them: refinedSolve drives the same steps directly.

// refinements picks which of Greedy's refinements refinedSolve runs.
type refinements struct{ coalesce, dpSplit, polish bool }

// allRefinements is what Greedy.Solve runs.
var allRefinements = refinements{coalesce: true, dpSplit: true, polish: true}

// refinedSolve is Greedy's cold path (split, coalesce, DP fallback,
// placement with refinement, polish) with each refinement switchable.
func refinedSolve(g *tdg.Graph, topo *network.Topology, r refinements) (*Plan, error) {
	rm := program.DefaultResourceModel
	ref, err := topo.Switch(topo.ProgrammableSwitches()[0])
	if err != nil {
		return nil, err
	}
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	sp := newSplitScratch(g, 0, len(order), ref, rm)
	segs, err := sp.split(0, len(order), nil)
	if err != nil {
		return nil, err
	}
	if r.coalesce {
		segs = sp.coalesce(segs)
	}
	candidates := [][]segment{segs}
	if r.dpSplit {
		if dp, err := sp.capacitySplit(); err == nil && len(dp) < len(segs) {
			candidates = append(candidates, dp)
		}
	}
	var lastErr error
	for _, c := range candidates {
		assign, err := placeWithRefinement(g, topo, sp, c, Options{}, rm)
		if err != nil {
			lastErr = err
			continue
		}
		if r.polish {
			if err := polish(g, 0, topo, assign, Options{}, rm); err != nil {
				return nil, err
			}
		}
		byID := make([]network.SwitchID, len(order))
		for p, u := range assign {
			byID[indexOf(g, rm).Topo[p]] = u
		}
		return materializeAssignment(g, topo, byID, rm)
	}
	return nil, lastErr
}

// ablationInstance is the Exp#1 testbed at full load: 10 real programs
// on three tight switches. It also checks that refinedSolve with every
// refinement on is Greedy.Solve.
func ablationInstance(b *testing.B) func(refinements) int {
	b.Helper()
	merged, err := analyzer.Analyze(workload.RealPrograms(), analyzer.Options{})
	if err != nil {
		b.Fatal(err)
	}
	spec := network.TestbedSpec()
	spec.StageCapacity = 0.15
	topo, err := network.Linear(3, spec)
	if err != nil {
		b.Fatal(err)
	}
	run := func(r refinements) int {
		plan, err := refinedSolve(merged, topo, r)
		if err != nil {
			return -1 // infeasible without this refinement
		}
		return plan.AMax()
	}
	base, err := (Greedy{}).Solve(merged, topo, Options{})
	if err != nil {
		b.Fatal(err)
	}
	if got := run(allRefinements); got != base.AMax() {
		b.Fatalf("refinedSolve with every refinement: A_max %d, Greedy.Solve %d", got, base.AMax())
	}
	return run
}

// BenchmarkAblationLocalImprove measures the greedy with and without
// the local-search polish.
func BenchmarkAblationLocalImprove(b *testing.B) {
	b.ReportAllocs()
	run := ablationInstance(b)
	var with, without int
	for i := 0; i < b.N; i++ {
		with = run(allRefinements)
		without = run(refinements{coalesce: true, dpSplit: true})
	}
	if with > without {
		b.Fatalf("local improve worsened A_max: %d > %d", with, without)
	}
	b.ReportMetric(float64(with), "amax-with")
	b.ReportMetric(float64(without), "amax-without")
}

// BenchmarkAblationDPSplit measures the DP capacity-split fallback. On
// this instance bisection alone needs four switches while only three
// exist, so disabling the DP split loses feasibility outright —
// reported as amax-without = -1.
func BenchmarkAblationDPSplit(b *testing.B) {
	b.ReportAllocs()
	run := ablationInstance(b)
	var with, without int
	for i := 0; i < b.N; i++ {
		with = run(refinements{coalesce: true, dpSplit: true})
		without = run(refinements{coalesce: true})
	}
	b.ReportMetric(float64(with), "amax-with")
	b.ReportMetric(float64(without), "amax-without")
}

// BenchmarkAblationCoalesce measures segment coalescing.
func BenchmarkAblationCoalesce(b *testing.B) {
	b.ReportAllocs()
	run := ablationInstance(b)
	var with, without int
	for i := 0; i < b.N; i++ {
		with = run(refinements{coalesce: true, dpSplit: true})
		without = run(refinements{dpSplit: true})
	}
	b.ReportMetric(float64(with), "amax-with")
	b.ReportMetric(float64(without), "amax-without")
}

// BenchmarkAblationRouteOptimizer compares shortest-path-only routing
// against the k-shortest-path load spreader on a Table III WAN.
func BenchmarkAblationRouteOptimizer(b *testing.B) {
	b.ReportAllocs()
	progs, err := workload.EvaluationPrograms(30, 1)
	if err != nil {
		b.Fatal(err)
	}
	merged, err := analyzer.Analyze(progs, analyzer.Options{})
	if err != nil {
		b.Fatal(err)
	}
	topo, err := network.TableIII(1, network.TofinoSpec())
	if err != nil {
		b.Fatal(err)
	}
	plan, err := refinedSolve(merged, topo, refinements{coalesce: true, dpSplit: true})
	if err != nil {
		b.Fatal(err)
	}
	var before, after int
	for i := 0; i < b.N; i++ {
		if err := AddRoutes(plan); err != nil {
			b.Fatal(err)
		}
		before = maxWireBytes(plan)
		opt, err := OptimizeRoutes(plan, RouteOptions{K: 4})
		if err != nil {
			b.Fatal(err)
		}
		after = opt
	}
	if after > before {
		b.Fatalf("route optimizer worsened the busiest link: %d > %d", after, before)
	}
	b.ReportMetric(float64(before), "maxlink-shortest")
	b.ReportMetric(float64(after), "maxlink-optimized")
}
