package lint

import (
	"sync"
	"testing"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/workload"
)

var (
	compositeOnce sync.Once
	compositePlan *placement.Plan
	compositeErr  error
)

// compositeSmokePlan is the benchmark's composite60 program set on its
// smoke-size topology: SyntheticSet(200) sharded four ways over
// CompositeWAN(10) — 2,822 MATs and 6,783 edges over ~100 switches.
func compositeSmokePlan(tb testing.TB) *placement.Plan {
	tb.Helper()
	compositeOnce.Do(func() {
		progs, err := workload.SyntheticSet(200, workload.PaperSyntheticSpec(), 1)
		if err != nil {
			compositeErr = err
			return
		}
		topo, err := network.CompositeWAN(10, network.TofinoSpec(), 1)
		if err != nil {
			compositeErr = err
			return
		}
		part, err := network.PartitionRegions(topo, 4, 1)
		if err != nil {
			compositeErr = err
			return
		}
		g, err := analyzer.Analyze(progs, analyzer.Options{})
		if err != nil {
			compositeErr = err
			return
		}
		compositePlan, compositeErr = placement.ShardedGreedy{Partition: part}.Solve(g, topo, placement.Options{Shards: 4})
	})
	if compositeErr != nil {
		tb.Fatal(compositeErr)
	}
	return compositePlan
}

// TestLintPlanAllocationCeiling pins LintPlan's allocations on the
// composite plan: a linear pass allocates its per-node and per-pair
// tables once, whatever the edge count, and a clean route allocates
// nothing. It measures 71 (104 with the stage loads in a map and the
// pairs found through one), and 80 under the race detector, which this
// test does not skip; the ceiling is the latter plus 5%. The three
// sorted Edges() copies and per-route object strings it replaced cost
// 3,272.
func TestLintPlanAllocationCeiling(t *testing.T) {
	p := compositeSmokePlan(t)
	allocs := testing.AllocsPerRun(3, func() { LintPlan(p, rm(), 0, 0) })
	t.Logf("LintPlan: %.0f allocs", allocs)
	const ceiling = 84
	if allocs > ceiling {
		t.Fatalf("LintPlan allocates %.0f times on the composite plan, ceiling %d", allocs, ceiling)
	}
}

func BenchmarkLintPlan(b *testing.B) {
	p := compositeSmokePlan(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fs := LintPlan(p, rm(), 0, 0); fs.HasErrors() {
			b.Fatal(fs.Text())
		}
	}
}
