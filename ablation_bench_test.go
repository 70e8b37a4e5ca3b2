// Ablation benchmark for TDG merging, one of the design choices
// DESIGN.md calls out; Greedy's three refinements have theirs in
// internal/placement, next to the steps they switch.
package hermes_test

import (
	"testing"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/workload"
)

// BenchmarkAblationMerging compares the SPEED-merged TDG against the
// unmerged union on the sketch workload (whose shared hash stages are
// exactly the redundancy merging exists for): merging eliminates
// redundant MATs, freeing resources and reducing forced splits.
func BenchmarkAblationMerging(b *testing.B) {
	b.ReportAllocs()
	progs, err := workload.SketchSet(10, 1)
	if err != nil {
		b.Fatal(err)
	}
	var mergedReq, unionReq float64
	for i := 0; i < b.N; i++ {
		merged, err := analyzer.Analyze(progs, analyzer.Options{})
		if err != nil {
			b.Fatal(err)
		}
		union, err := analyzer.Analyze(progs, analyzer.Options{SkipMerge: true})
		if err != nil {
			b.Fatal(err)
		}
		mergedReq = merged.TotalRequirement(program.DefaultResourceModel)
		unionReq = union.TotalRequirement(program.DefaultResourceModel)
	}
	// The ten sketches share nine redundant hash stages; allow float
	// summation noise but demand real savings.
	if mergedReq > unionReq-1e-3 {
		b.Fatalf("merging saved nothing: %g vs %g", mergedReq, unionReq)
	}
	b.ReportMetric(unionReq-mergedReq, "stage-units-saved")
}
