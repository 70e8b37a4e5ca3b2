package experiments

import "testing"

// TestExp11RegionalReplanAcceptance gates the smoke sweep: every cell
// heals through the regional path (zero full-solve fallbacks), holds
// the quality bound, and the repaired plan is proven equivalent; the
// headline composite:30 drain must heal at least 5x faster than the
// sharded cold re-solve.
func TestExp11RegionalReplanAcceptance(t *testing.T) {
	pts, err := Exp11(fastConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("smoke sweep has %d cells, want 2", len(pts))
	}
	var headline *RegionReplanPoint
	for i := range pts {
		pt := &pts[i]
		t.Logf("%s: cold %.2fms regional %.2fms (dirty %.3f regions %.3f exchange %.3f gates %.3f) touched %d widened %d exMoves %d displaced %d",
			pt.Topology, pt.ColdMs, pt.RegionalMs, pt.DirtyMs, pt.RegionsMs, pt.ExchangeMs, pt.GatesMs,
			pt.RegionsTouched, pt.RegionsWidened, pt.ExchangeMoves, pt.DisplacedMATs)
		if pt.FellBack {
			t.Errorf("%s: regional replan fell back to a full solve", pt.Topology)
		}
		if pt.RegionsTouched == 0 {
			t.Errorf("%s: no regions touched", pt.Topology)
		}
		if pt.DisplacedMATs == 0 || pt.MovedRegional == 0 {
			t.Errorf("%s: drain displaced %d MATs, regional moved %d — no churn exercised",
				pt.Topology, pt.DisplacedMATs, pt.MovedRegional)
		}
		// Quality: within the ratio of the cold re-solve, except when the
		// pre-drain seed was already worse (the warm-seed bound — an
		// incremental repair cannot out-solve its seed's global structure).
		if pt.AMaxRatio > RegionReplanQualityRatio && pt.RegionalAMax > pt.SeedAMax {
			t.Errorf("%s: regional A_max %dB is %.2fx the %dB cold re-solve (seed %dB)",
				pt.Topology, pt.RegionalAMax, pt.AMaxRatio, pt.ColdAMax, pt.SeedAMax)
		}
		if !pt.EquivOK {
			t.Errorf("%s: repaired plan not proven equivalent", pt.Topology)
		}
		if pt.Topology == "composite:30" {
			headline = pt
		}
	}
	if headline == nil {
		t.Fatal("smoke sweep missing the composite:30 headline cell")
	}
	// The tentpole claim: busiest-switch churn on the 2k-switch WAN
	// heals regionally >=5x faster than re-solving the shard sweep
	// cold. Both sides are min-of-reps deterministic replans measured
	// in the same process (15–16 ms cold over 1.5–1.7 ms regional,
	// 6.8–10.8x over 14 runs; EXPERIMENTS.md Exp#11 records why the
	// floor is not the 10x it was while the cold side re-sorted the edge
	// list per segment). The race detector's per-access
	// instrumentation compresses the ratio
	// (6.7–8.3x observed — the cold solve's bulk allocations amortize
	// instrumentation better than the regional path's pointer-chasing),
	// so the floor drops to 3x there; the un-instrumented bound is the
	// one `make check` also enforces via smoke-regionreplan.
	floor := 5.0
	if raceDetectorEnabled {
		floor = 3.0
	}
	if headline.Speedup < floor {
		t.Errorf("composite:30 regional replan speedup %.1fx < %.0fx (cold %.2fms, regional %.2fms)",
			headline.Speedup, floor, headline.ColdMs, headline.RegionalMs)
	}
}
