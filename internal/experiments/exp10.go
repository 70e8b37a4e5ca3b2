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

// ShardPoint is one Exp#10 cell: the region-sharded solver against the
// whole-graph Greedy on the same instance. On sizes past the
// whole-graph solver's practical range only the sharded side runs and
// the comparison fields stay zero.
type ShardPoint struct {
	// Topology names the generated substrate ("composite:30", ...).
	Topology     string
	Switches     int
	Programmable int
	Programs     int
	MATs         int
	Shards       int
	// WholeMs/WholeAMax describe the whole-graph Greedy run; zero when
	// it was skipped for size.
	WholeMs   float64
	WholeAMax int
	// ShardMs/ShardAMax describe the sharded run (partition + regional
	// solves + reconcile + finalize); ShardCross is the shipped plan's
	// total cross-switch bytes, which pins the plan itself.
	ShardMs    float64
	ShardAMax  int
	ShardCross int
	// Speedup is WholeMs/ShardMs; AMaxRatio is ShardAMax/WholeAMax —
	// the quality price of sharding. Both zero when whole was skipped.
	Speedup   float64
	AMaxRatio float64
	// Reconcile telemetry: used hosts, climb passes, accepted moves.
	Hosts    int
	Rounds   int
	Moves    int
	FellBack bool
	// EquivOK reports the symbolic plan-equivalence verdict on the
	// sharded plan (the pre-compilation gate); EquivMs is its cost.
	// Every row runs the check, the 10k-switch scale row included.
	EquivOK bool
	EquivMs float64
	// PartitionMs/RegionMs/ExchangeMs split ShardMs into its phases.
	PartitionMs float64
	RegionMs    float64
	ExchangeMs  float64
}

// exp10Case is one sweep size.
type exp10Case struct {
	topoSpec string
	regions  int // CompositeWAN regions
	programs int
	shards   int
	runWhole bool
}

// exp10Cases returns the sweep. The default sizes keep both solvers in
// range so speedup and quality ratio are measured; full adds the
// 10k-switch / 5k-program point, where only the sharded solver is
// practical end-to-end.
func exp10Cases(full bool) []exp10Case {
	cases := []exp10Case{
		{topoSpec: "composite:10", regions: 10, programs: 30, shards: 4, runWhole: true},
		{topoSpec: "composite:30", regions: 30, programs: 50, shards: 8, runWhole: true},
	}
	if full {
		cases = append(cases,
			exp10Case{topoSpec: "composite:60", regions: 60, programs: 200, shards: 16, runWhole: true},
			exp10Case{topoSpec: "composite:143", regions: 143, programs: 5000, shards: 64, runWhole: false},
		)
	}
	return cases
}

// Exp10 measures region-sharded placement at scale. full enables the
// 10k-switch point (minutes of runtime); otherwise the sweep stays in
// smoke range (a few seconds).
func Exp10(cfg Config, full bool) ([]ShardPoint, error) {
	var out []ShardPoint
	for _, c := range exp10Cases(full) {
		p, err := exp10Point(cfg, c)
		if err != nil {
			return nil, fmt.Errorf("experiments: exp10 %s: %w", c.topoSpec, err)
		}
		out = append(out, p)
	}
	return out, nil
}

func exp10Point(cfg Config, c exp10Case) (ShardPoint, error) {
	topo, err := network.CompositeWAN(c.regions, network.TofinoSpec(), cfg.Seed)
	if err != nil {
		return ShardPoint{}, err
	}
	progs, err := workload.SyntheticSet(c.programs, workload.PaperSyntheticSpec(), cfg.Seed)
	if err != nil {
		return ShardPoint{}, err
	}
	merged, err := analyzer.Analyze(progs, analyzer.Options{})
	if err != nil {
		return ShardPoint{}, err
	}
	pt := ShardPoint{
		Topology:     c.topoSpec,
		Switches:     topo.NumSwitches(),
		Programmable: len(topo.ProgrammableSwitches()),
		Programs:     c.programs,
		MATs:         merged.NumNodes(),
		Shards:       c.shards,
	}
	opts := placement.Options{Workers: cfg.Workers, Shards: c.shards}

	// Comparison rows time the best of seven runs (Exp#11's count): both
	// solvers are deterministic (same plan every run), and the minimum is
	// the noise-robust point estimate the compare gate needs now that
	// either side of the small cells solves in ~10 ms, where one GC pause
	// is a third of the reading. The sharded-only scale row runs once —
	// its wall clock is tens of seconds and no timing gate reads it.
	reps := 1
	if c.runWhole {
		reps = 7
	}
	solver := placement.ShardedGreedy{Seed: cfg.Seed}
	var plan *placement.Plan
	var st placement.ShardStats
	for i := 0; i < reps; i++ {
		start := time.Now()
		p, s, err := solver.SolveStats(merged, topo, opts)
		if err != nil {
			return ShardPoint{}, fmt.Errorf("sharded solve: %w", err)
		}
		if elapsed := ms(time.Since(start)); i == 0 || elapsed < pt.ShardMs {
			pt.ShardMs = elapsed
			plan, st = p, s
		}
	}
	pt.ShardAMax = plan.AMax()
	pt.ShardCross = plan.TotalCrossBytes()
	pt.Hosts = st.Hosts
	pt.Rounds = st.Rounds
	pt.Moves = st.Moves
	pt.FellBack = st.FellBack
	pt.PartitionMs = ms(st.PartitionTime)
	pt.RegionMs = ms(st.RegionTime)
	pt.ExchangeMs = ms(st.ExchangeTime)

	start := time.Now()
	if err := equiv.CheckPlanAgainst(merged, plan, analyzer.Options{}); err != nil {
		return ShardPoint{}, fmt.Errorf("sharded plan fails equivalence: %w", err)
	}
	pt.EquivOK = true
	pt.EquivMs = ms(time.Since(start))

	if c.runWhole {
		var wplan *placement.Plan
		for i := 0; i < reps; i++ {
			start := time.Now()
			p, err := (placement.Greedy{}).Solve(merged, topo, opts)
			if err != nil {
				return ShardPoint{}, fmt.Errorf("whole-graph solve: %w", err)
			}
			if elapsed := ms(time.Since(start)); i == 0 || elapsed < pt.WholeMs {
				pt.WholeMs = elapsed
				wplan = p
			}
		}
		pt.WholeAMax = wplan.AMax()
		if pt.ShardMs > 0 {
			pt.Speedup = pt.WholeMs / pt.ShardMs
		}
		if pt.WholeAMax > 0 {
			pt.AMaxRatio = float64(pt.ShardAMax) / float64(pt.WholeAMax)
		}
	}
	return pt, nil
}

func ms(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}
