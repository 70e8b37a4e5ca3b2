package experiments

import (
	"testing"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/workload"
)

// BenchmarkExp11Regional isolates the regional replan at the Exp#11
// headline cell (composite:30, busiest-switch drain) so the healing
// path can be profiled without the cold solves and equivalence checks
// around it in the acceptance test.
func BenchmarkExp11Regional(b *testing.B) {
	cfg := fastConfig()
	topo, err := network.CompositeWAN(30, network.TofinoSpec(), cfg.Seed)
	if err != nil {
		b.Fatal(err)
	}
	progs, err := workload.SyntheticSet(50, workload.PaperSyntheticSpec(), cfg.Seed)
	if err != nil {
		b.Fatal(err)
	}
	merged, err := analyzer.Analyze(progs, analyzer.Options{})
	if err != nil {
		b.Fatal(err)
	}
	part, err := network.PartitionRegions(topo, 8, cfg.Seed)
	if err != nil {
		b.Fatal(err)
	}
	solver := placement.ShardedGreedy{Seed: cfg.Seed, Partition: part}
	opts := placement.Options{Workers: cfg.Workers, Shards: 8}
	base, err := solver.Solve(merged, topo, opts)
	if err != nil {
		b.Fatal(err)
	}
	drain, _ := busiestSwitch(base)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, err := placement.ReplanWithOptions(base, solver, placement.ReplanOptions{
			Options:      opts,
			Partition:    part,
			QualityRatio: RegionReplanQualityRatio,
		}, drain)
		if err != nil {
			b.Fatal(err)
		}
	}
}
