package experiments

import (
	"fmt"
	"time"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/equiv"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/workload"
)

// RegionReplanQualityRatio is Exp#11's acceptance bound: the regional
// replan's A_max may exceed the sharded cold re-solve's by at most this
// factor (unless the pre-drain seed was already worse — an incremental
// repair cannot out-solve the pre-drain plan's global structure).
const RegionReplanQualityRatio = 1.2

// RegionReplanWorkRatio is Exp#11's speed claim as a work count: on the
// headline cell the sharded cold re-solve runs at least this many times
// the regional replan's stage-packing steps (ReplanReport.PackSteps).
// Unlike the wall-clock ratio it does not depend on the host, the load
// or the race detector.
const RegionReplanWorkRatio = 5.0

// RegionReplanPoint is one Exp#11 cell: the busiest-switch drain on a
// composite WAN healed by the region-local replan versus the sharded
// cold re-solve, off the same pre-drain sharded plan.
type RegionReplanPoint struct {
	// Topology names the substrate ("composite:30", ...).
	Topology     string
	Switches     int
	Programmable int
	Programs     int
	MATs         int
	Shards       int
	// Drained is the pre-drain plan's busiest switch; DisplacedMATs is
	// how many MATs the drain stranded.
	Drained       network.SwitchID
	DisplacedMATs int
	// ColdMs/RegionalMs are the full sharded re-solve and region-local
	// replan latencies (min of reps); Speedup is their ratio.
	ColdMs     float64
	RegionalMs float64
	Speedup    float64
	// ColdPackSteps/RegionalPackSteps are the two replans' stage-packing
	// steps (ReplanReport.PackSteps): the deterministic work behind
	// ColdMs and RegionalMs.
	ColdPackSteps     int
	RegionalPackSteps int
	// RegionMATs counts the MATs the pre-drain plan hosts in the
	// regions the regional replan touched: the size of its problem.
	RegionMATs int
	// SeedAMax is the pre-drain plan's Eq. 1; ColdAMax/RegionalAMax are
	// the two replans'; AMaxRatio is RegionalAMax/ColdAMax.
	SeedAMax     int
	ColdAMax     int
	RegionalAMax int
	AMaxRatio    float64
	// Regional-path telemetry (from the replan report).
	RegionsTouched int
	RegionsWidened int
	ExchangeRounds int
	ExchangeMoves  int
	// MovedCold/MovedRegional count MATs that changed switch versus the
	// pre-drain plan under each strategy (the migration cost).
	MovedCold     int
	MovedRegional int
	// FellBack marks cells whose regional replan abandoned the repair
	// and ran the full solver — the acceptance sweep requires zero.
	FellBack bool
	// DirtyMs/RegionsMs/ExchangeMs/GatesMs split RegionalMs into the
	// replan's phases.
	DirtyMs    float64
	RegionsMs  float64
	ExchangeMs float64
	GatesMs    float64
	// EquivOK reports the symbolic equivalence verdict on the compiled
	// repaired plan; EquivMs is its cost, the compile included.
	EquivOK bool
	EquivMs float64
}

// exp11Case is one sweep size.
type exp11Case struct {
	topoSpec string
	regions  int // CompositeWAN regions
	programs int
	shards   int
}

// exp11Cases returns the sweep. Smoke keeps both replans in the tens
// of milliseconds; full adds the larger composite point.
func exp11Cases(full bool) []exp11Case {
	cases := []exp11Case{
		{topoSpec: "composite:10", regions: 10, programs: 30, shards: 4},
		{topoSpec: "composite:30", regions: 30, programs: 50, shards: 8},
	}
	if full {
		cases = append(cases, exp11Case{topoSpec: "composite:60", regions: 60, programs: 100, shards: 16})
	}
	return cases
}

// Exp11 measures churn-at-scale healing (EXPERIMENTS.md Exp#11): on
// each composite WAN it solves cold with the sharded solver, drains the
// busiest switch of that plan, and replans twice off the same pre-drain
// plan — a full sharded re-solve and the region-local incremental path
// over the solve-time partition. full enables the larger sweep point.
func Exp11(cfg Config, full bool) ([]RegionReplanPoint, error) {
	var out []RegionReplanPoint
	for _, c := range exp11Cases(full) {
		p, err := exp11Point(cfg, c)
		if err != nil {
			return nil, fmt.Errorf("experiments: exp11 %s: %w", c.topoSpec, err)
		}
		out = append(out, p)
	}
	return out, nil
}

func exp11Point(cfg Config, c exp11Case) (RegionReplanPoint, error) {
	topo, err := network.CompositeWAN(c.regions, network.TofinoSpec(), cfg.Seed)
	if err != nil {
		return RegionReplanPoint{}, err
	}
	progs, err := workload.SyntheticSet(c.programs, workload.PaperSyntheticSpec(), cfg.Seed)
	if err != nil {
		return RegionReplanPoint{}, err
	}
	merged, err := analyzer.Analyze(progs, analyzer.Options{})
	if err != nil {
		return RegionReplanPoint{}, err
	}
	part, err := network.PartitionRegions(topo, c.shards, cfg.Seed)
	if err != nil {
		return RegionReplanPoint{}, err
	}
	// The solver reuses the standing partition, keeping solve-time and
	// replan-time regions aligned — the operator setup DESIGN.md §14
	// describes.
	solver := placement.ShardedGreedy{Seed: cfg.Seed, Partition: part}
	opts := placement.Options{Workers: cfg.Workers, Shards: c.shards}
	base, err := solver.Solve(merged, topo, opts)
	if err != nil {
		return RegionReplanPoint{}, fmt.Errorf("base solve: %w", err)
	}
	drain, displaced := busiestSwitch(base)

	pt := RegionReplanPoint{
		Topology:      c.topoSpec,
		Switches:      topo.NumSwitches(),
		Programmable:  topo.NumProgrammable(),
		Programs:      c.programs,
		MATs:          merged.NumNodes(),
		Shards:        c.shards,
		Drained:       drain,
		DisplacedMATs: displaced,
		SeedAMax:      base.AMax(),
	}

	// Both replans are deterministic; min-of-reps is the noise-robust
	// point estimate for latencies in the millisecond range. The
	// regional side finishes in ~2ms, where a single GC pause reads as
	// a 25% regression, so the rep count errs high — the whole sweep
	// still costs well under a second.
	const reps = 7
	var cold *placement.Plan
	for i := 0; i < reps; i++ {
		p, r, err := placement.ReplanWithOptions(base, solver,
			placement.ReplanOptions{Options: opts, Mode: placement.ReplanFull}, drain)
		if err != nil {
			return pt, fmt.Errorf("cold replan: %w", err)
		}
		if elapsed := ms(r.TotalTime); i == 0 || elapsed < pt.ColdMs {
			pt.ColdMs = elapsed
			cold = p
			pt.MovedCold = r.MovedMATs
			pt.ColdPackSteps = r.PackSteps
		}
	}
	pt.ColdAMax = cold.AMax()

	var regional *placement.Plan
	var rep *placement.ReplanReport
	for i := 0; i < reps; i++ {
		p, r, err := placement.ReplanWithOptions(base, solver, placement.ReplanOptions{
			Options:      opts,
			Partition:    part,
			QualityRatio: RegionReplanQualityRatio,
		}, drain)
		if err != nil {
			return pt, fmt.Errorf("regional replan: %w", err)
		}
		if elapsed := ms(r.TotalTime); i == 0 || elapsed < pt.RegionalMs {
			pt.RegionalMs = elapsed
			regional, rep = p, r
		}
	}
	pt.RegionalAMax = regional.AMax()
	pt.MovedRegional = rep.MovedMATs
	pt.RegionalPackSteps = rep.PackSteps
	pt.FellBack = !rep.UsedRepair || !rep.UsedRegional
	pt.RegionsTouched = len(rep.RegionsTouched)
	touched := map[int]bool{}
	for _, r := range rep.RegionsTouched {
		touched[r] = true
	}
	for _, sp := range base.Assignments {
		if touched[part.RegionOf(sp.Switch)] {
			pt.RegionMATs++
		}
	}
	pt.RegionsWidened = rep.RegionsWidened
	pt.ExchangeRounds = rep.ExchangeRounds
	pt.ExchangeMoves = rep.ExchangeMoves
	pt.DirtyMs = ms(rep.Phases.Dirty)
	pt.RegionsMs = ms(rep.Phases.Regions)
	pt.ExchangeMs = ms(rep.Phases.Exchange)
	pt.GatesMs = ms(rep.Phases.Gates)
	if pt.RegionalMs > 0 {
		pt.Speedup = pt.ColdMs / pt.RegionalMs
	}
	if pt.ColdAMax > 0 {
		pt.AMaxRatio = float64(pt.RegionalAMax) / float64(pt.ColdAMax)
	} else if pt.RegionalAMax == 0 {
		pt.AMaxRatio = 1
	}

	start := time.Now()
	if err := equiv.CheckPlanAgainst(merged, regional, analyzer.Options{}); err != nil {
		return pt, fmt.Errorf("repaired plan fails equivalence: %w", err)
	}
	pt.EquivOK = true
	pt.EquivMs = ms(time.Since(start))
	return pt, nil
}
