package experiments

import "testing"

// TestExp11RegionalReplanAcceptance gates the smoke sweep: every cell
// heals through the regional path (zero full-solve fallbacks), holds
// the quality bound, and the repaired plan is proven equivalent; on the
// headline composite:30 drain the sharded cold re-solve must do at
// least RegionReplanWorkRatio times the regional replan's packing work.
// No check reads a clock.
// regionalStepsPerMAT bounds Exp#11's regional packing steps per MAT
// hosted in the touched regions, so a cheaper cold path cannot hide a
// costlier heal behind the cold/regional ratio.
const regionalStepsPerMAT = 15

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
		t.Logf("%s: pack steps cold %d regional %d over %d region MATs, touched %d widened %d exMoves %d displaced %d",
			pt.Topology, pt.ColdPackSteps, pt.RegionalPackSteps, pt.RegionMATs,
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
		if pt.RegionalPackSteps == 0 {
			t.Errorf("%s: the regional replan counted no packing steps", pt.Topology)
		}
		// Absolute work bound: the regional replan's packing steps scale
		// with the MATs of the regions it touched, whatever the cold
		// re-solve costs. Measured (deterministic): composite:10 1,410
		// steps over 423 region MATs (3.3 each), composite:30 1,911 over
		// 190 (10.1 each).
		if pt.RegionalPackSteps > regionalStepsPerMAT*pt.RegionMATs {
			t.Errorf("%s: regional replan ran %d packing steps, over %d per MAT of its %d region MATs",
				pt.Topology, pt.RegionalPackSteps, regionalStepsPerMAT, pt.RegionMATs)
		}
		if pt.Topology == "composite:30" {
			headline = pt
		}
	}
	if headline == nil {
		t.Fatal("smoke sweep missing the composite:30 headline cell")
	}
	// The tentpole claim: busiest-switch churn on the 2k-switch WAN heals
	// regionally with at least 5x less work than re-solving the shard
	// sweep cold. Both counts are deterministic, so the floor holds on any
	// host and under the race detector; EXPERIMENTS.md Exp#11 records the
	// wall-clock ratio next to it.
	if float64(headline.ColdPackSteps) < RegionReplanWorkRatio*float64(headline.RegionalPackSteps) {
		t.Errorf("composite:30 cold re-solve ran %d packing steps, under %.0fx the regional replan's %d",
			headline.ColdPackSteps, RegionReplanWorkRatio, headline.RegionalPackSteps)
	}
}
