// This repo's own experiments over the internal/experiments sweeps:
// Exp#7 replan, Exp#8 survive, Exp#10 shard, Exp#11 regionreplan and
// Exp#12 rollout (Exp#9 traffic measures for itself, in traffic.go).
package main

import "github.com/hermes-net/hermes/internal/experiments"

type (
	replanPt  = experiments.ReplanPoint
	crashPt   = experiments.SingleCrashResult
	survivePt = experiments.SurvivalPoint
	shardPt   = experiments.ShardPoint
	regionPt  = experiments.RegionReplanPoint
	rolloutPt = experiments.RolloutPoint
)

const (
	// latencyCeilingMs bounds recovery (Exp#8: a greedy repair over a
	// handful of displaced MATs) and rollout latency (Exp#12: a few dozen
	// in-memory ops); a loaded CI box sits orders of magnitude below.
	latencyCeilingMs = 5000.0
	// shardAMaxRatio caps the quality price of sharding against the
	// whole-graph result of the same run. shardHeadline is the cell where
	// sharding claims to be faster outright (2,822 MATs; -full only):
	// below ~1k MATs the whole-graph solve, which no longer sorts the
	// parent's edge list per segment, wins or ties at equal workers.
	shardAMaxRatio = 1.5
	shardHeadline  = "composite:60"
	// Exp#11's acceptance cell, where the cold re-solve must run
	// experiments.RegionReplanWorkRatio times the regional replan's
	// packing steps (EXPERIMENTS.md Exp#11 has the wall-clock history).
	regionReplanHeadline = "composite:30"
	rolloutInjections    = 33
)

// Exp#7: incremental replanning after a single-switch drain on
// Table III topology 1 — the same drain replanned from scratch and
// incrementally off the same cold plan. BENCH_replan.json records
// replan latency, migration cost and A_max degradation so regressions
// in the incremental path are diffable across commits.
var replanExp = experiment{
	name: "replan", title: "Exp#7: incremental replanning after a single-switch drain, Table III topology 1",
	all: true, baseline: true,
	tables: []table{{name: "rows",
		cols: []column{
			col(key, "programs", "programs", "", func(p replanPt) any { return p.Programs }),
			col(det, "drained_switch", "drained", "sw%.0f", func(p replanPt) any { return int(p.Drained) }),
			col(det, "displaced_mats", "", "", func(p replanPt) any { return p.DisplacedMATs }),
			col(timing, "cold_ms", "cold", "%.1fms", func(p replanPt) any { return p.ColdMs }),
			col(timing, "incremental_ms", "inc", "%.2fms", func(p replanPt) any { return p.IncMs }),
			col(timing, "speedup", "speedup", "%.1fx", func(p replanPt) any { return p.Speedup }).up(),
			col(det, "moved_mats_full", "moved(full)", "", func(p replanPt) any { return p.MovedFull }),
			col(det, "moved_mats_incremental", "moved(inc)", "", func(p replanPt) any { return p.MovedInc }),
			col(det, "dirty_mats", "dirty", "", func(p replanPt) any { return p.DirtyInc }),
			col(det, "amax_cold_bytes", "A_max(cold)", "%.0fB", func(p replanPt) any { return p.ColdAMax }),
			col(det, "amax_incremental_bytes", "A_max(inc)", "%.0fB", func(p replanPt) any { return p.IncAMax }),
			col(det, "amax_ratio", "", "", func(p replanPt) any { return p.AMaxRatio }),
			col(det, "fell_back", "fallback", "", func(p replanPt) any { return p.FellBack }),
		},
		checks: []check{
			is("fell_back", false), // the drain is repaired, not re-solved
		},
	}},
	run: func(c *runCtx) (result, error) {
		programs := c.programs
		if c.smoke && programs > 10 {
			programs = 10 // the one-row sweep: seconds, not minutes
		}
		pts, err := experiments.Exp7(c.cfg, programs)
		return oneTable(map[string]any{"topology": 1}, pts), err
	},
}

// Exp#8: a supervised deployment under injected faults. Every input is
// seeded (fault schedule, monitor jitter, workload), so the structural
// outcome is reproducible and -compare diffs it exactly; wall-clock
// recovery is only bounded by a generous ceiling.
var surviveExp = experiment{
	name: "survive", title: "Exp#8: survivability under injected faults, Table III topology 1",
	all: true, baseline: true,
	tables: []table{
		{name: "single_crash",
			cols: []column{
				col(key, "crashed_switch", "crashed", "sw%.0f", func(p crashPt) any { return int(p.Crashed) }),
				col(det, "displaced_mats", "displaced", "", func(p crashPt) any { return p.DisplacedMATs }),
				col(det, "used_repair", "repaired", "", func(p crashPt) any { return p.UsedRepair }),
				col(timing, "recovery_ms", "recovery", "%.2fms", func(p crashPt) any { return p.RecoveryMs }),
				col(det, "amax_before_bytes", "A_max before", "%.0fB", func(p crashPt) any { return p.AMaxBefore }),
				col(det, "amax_after_bytes", "A_max after", "%.0fB", func(p crashPt) any { return p.AMaxAfter }),
			},
			checks: []check{
				is("used_repair", true), // incremental repair, not a full solve
				bound("recovery_ms", "<", latencyCeilingMs),
			}},
		{name: "rows",
			cols: []column{
				col(key, "events", "faults", "", func(p survivePt) any { return p.Events }),
				col(det, "schedule_events", "events", "", func(p survivePt) any { return p.ScheduleEvents }),
				col(det, "polls", "polls", "", func(p survivePt) any { return p.Polls }),
				col(det, "replans", "replans", "", func(p survivePt) any { return p.Replans }),
				col(det, "incremental_replans", "inc", "", func(p survivePt) any { return p.IncrementalReplans }),
				col(det, "full_replans", "full", "", func(p survivePt) any { return p.FullReplans }),
				col(det, "shed_events", "shed", "", func(p survivePt) any { return p.ShedEvents }),
				col(det, "restore_events", "restored", "", func(p survivePt) any { return p.RestoreEvents }),
				col(det, "final_shed", "left", "", func(p survivePt) any { return p.FinalShed }),
				col(det, "violations", "violations", "", func(p survivePt) any { return p.Violations }),
				col(timing, "max_recovery_ms", "maxrec", "%.2fms", func(p survivePt) any { return p.MaxRecoveryMs }),
				col(timing, "mean_recovery_ms", "", "", func(p survivePt) any { return p.MeanRecoveryMs }),
				col(det, "base_amax_bytes", "A_max base", "%.0fB", func(p survivePt) any { return p.BaseAMax }),
				col(det, "max_amax_bytes", "A_max worst", "%.0fB", func(p survivePt) any { return p.MaxAMax }),
				col(det, "amax_inflation", "inflation", "%.3f", func(p survivePt) any { return p.AMaxInflation }).within(0.10),
			},
			checks: []check{
				bound("violations", "==", 0), // the oracle stack accepts every quiescent state
				bound("final_shed", "==", 0), // nothing left shed after the full heal
				bound("max_recovery_ms", "<", latencyCeilingMs),
				// A schedule that never replans proves nothing.
				{col: "replans", want: "> 0", some: true, ok: func(r row) bool { return r.num("replans") > 0 }},
			}},
	},
	run: func(c *runCtx) (result, error) {
		rates := []int{10, 20, 40}
		if c.smoke {
			rates = []int{20} // shortest schedule that deterministically replans
		}
		res, err := experiments.Exp8(c.cfg, rates)
		if err != nil {
			return result{}, err
		}
		return result{
			params: map[string]any{"topology": 1, "programs": 6},
			points: map[string]any{"single_crash": []crashPt{res.Single}, "rows": res.Rows},
		}, nil
	},
}

// compared selects the rows that have a whole-graph side; the
// sharded-only scale row has no quality ratio to bound.
func compared(r row) bool { return r.num("whole_ms") > 0 }

// Exp#10: the sharded solver against the whole-graph Greedy on seeded
// composite WANs, same merged TDG and Options on both sides. -full adds
// composite:60 — the headline, the only row held to shard_ms < whole_ms
// — and the 10,000-switch / 5,000-program point where only the sharded
// side is practical: that row's comparison columns are zero, its dual
// condition has no calibrator, and it is held to A_max and to the
// equivalence proof every row passes. The small cells
// solve in ~10 ms on either side, where one GC pause moves the ratio by
// a third (0.88–1.44× over eight runs of composite:10), so the baseline
// is an envelope of three sweeps, like Exp#11's.
var shardExp = experiment{
	name: "shard", title: "Exp#10: region-sharded placement vs whole-graph Greedy",
	baseline: true, envelope: 3,
	tables: []table{{name: "rows",
		cols: []column{
			col(key, "topology", "topology", "", func(p shardPt) any { return p.Topology }),
			col(det, "switches", "switches", "", func(p shardPt) any { return p.Switches }),
			col(det, "programmable", "", "", func(p shardPt) any { return p.Programmable }),
			col(det, "programs", "progs", "", func(p shardPt) any { return p.Programs }),
			col(det, "mats", "MATs", "", func(p shardPt) any { return p.MATs }),
			col(det, "shards", "shards", "", func(p shardPt) any { return p.Shards }),
			col(timing, "whole_ms", "whole", "%.1fms", func(p shardPt) any { return p.WholeMs }),
			col(det, "whole_amax_bytes", "", "", func(p shardPt) any { return p.WholeAMax }),
			col(timing, "shard_ms", "sharded", "%.1fms", func(p shardPt) any { return p.ShardMs }).dual("speedup", 1.10, 1.10),
			col(det, "shard_amax_bytes", "", "", func(p shardPt) any { return p.ShardAMax }).within(0.10),
			col(det, "shard_cross_bytes", "", "", func(p shardPt) any { return p.ShardCross }),
			col(timing, "speedup", "speedup", "%.2fx", func(p shardPt) any { return p.Speedup }).up(),
			col(det, "amax_ratio", "A_max", "%.3f", func(p shardPt) any { return p.AMaxRatio }),
			col(det, "boundary_hosts", "hosts", "", func(p shardPt) any { return p.Hosts }),
			col(det, "exchange_rounds", "rounds", "", func(p shardPt) any { return p.Rounds }),
			col(det, "exchange_moves", "moves", "", func(p shardPt) any { return p.Moves }),
			col(det, "fell_back", "", "", func(p shardPt) any { return p.FellBack }),
			col(det, "equiv_ok", "", "", func(p shardPt) any { return p.EquivOK }),
			col(timing, "equiv_ms", "equiv", "%.1fms", func(p shardPt) any { return p.EquivMs }),
			col(timing, "partition_ms", "", "", func(p shardPt) any { return p.PartitionMs }),
			col(timing, "region_ms", "", "", func(p shardPt) any { return p.RegionMs }),
			col(timing, "exchange_ms", "", "", func(p shardPt) any { return p.ExchangeMs }),
		},
		checks: []check{
			is("fell_back", false),
			bound("shard_amax_bytes", ">", 0), // a non-empty plan
			check{col: "shard_ms", want: "< whole_ms", ok: func(r row) bool { return r.num("shard_ms") < r.num("whole_ms") }}.when("on the "+shardHeadline+" headline", headline(shardHeadline)),
			bound("amax_ratio", "<=", shardAMaxRatio).when("on comparison rows", compared),
			is("equiv_ok", true),
		},
	}},
	run: func(c *runCtx) (result, error) {
		pts, err := experiments.Exp10(c.cfg, c.full)
		return oneTable(map[string]any{"workers": c.cfg.Workers, "full": c.full}, pts), err
	},
}

// headline selects the one row a speed claim is scoped to.
func headline(key string) func(row) bool {
	return func(r row) bool { return r.Key == key }
}

// Exp#11: the busiest-switch drain on seeded composite WANs healed by
// the region-local repair versus a sharded cold re-solve, both off the
// same pre-drain plan, Options and partition. The cells heal in ~2 ms,
// where a GC pause reads as +40%: the raw regional_ms slack alone is
// meaningless, so the calibrator slack is wider (GC noise does not
// cancel in the ratio — the cold side allocates far more) and the
// baseline is an envelope of three sweeps.
var regionReplanExp = experiment{
	name: "regionreplan", title: "Exp#11: region-local replan vs sharded cold re-solve under churn",
	baseline: true, envelope: 3,
	tables: []table{{name: "rows",
		cols: []column{
			col(key, "topology", "topology", "", func(p regionPt) any { return p.Topology }),
			col(det, "switches", "switches", "", func(p regionPt) any { return p.Switches }),
			col(det, "programmable", "", "", func(p regionPt) any { return p.Programmable }),
			col(det, "programs", "progs", "", func(p regionPt) any { return p.Programs }),
			col(det, "mats", "MATs", "", func(p regionPt) any { return p.MATs }),
			col(det, "shards", "shards", "", func(p regionPt) any { return p.Shards }),
			col(det, "drained_switch", "", "", func(p regionPt) any { return int(p.Drained) }),
			col(det, "displaced_mats", "displaced", "", func(p regionPt) any { return p.DisplacedMATs }),
			col(timing, "cold_ms", "cold", "%.1fms", func(p regionPt) any { return p.ColdMs }),
			col(timing, "regional_ms", "regional", "%.2fms", func(p regionPt) any { return p.RegionalMs }).dual("speedup", 1.10, 1.25),
			col(timing, "speedup", "speedup", "%.1fx", func(p regionPt) any { return p.Speedup }).up(),
			col(det, "cold_pack_steps", "", "", func(p regionPt) any { return p.ColdPackSteps }),
			col(det, "regional_pack_steps", "", "", func(p regionPt) any { return p.RegionalPackSteps }),
			col(det, "seed_amax_bytes", "", "", func(p regionPt) any { return p.SeedAMax }),
			col(det, "cold_amax_bytes", "", "", func(p regionPt) any { return p.ColdAMax }),
			col(det, "regional_amax_bytes", "", "", func(p regionPt) any { return p.RegionalAMax }),
			col(det, "amax_ratio", "A_max", "%.3f", func(p regionPt) any { return p.AMaxRatio }),
			col(det, "regions_touched", "regions", "", func(p regionPt) any { return p.RegionsTouched }),
			col(det, "regions_widened", "widen", "", func(p regionPt) any { return p.RegionsWidened }),
			col(det, "exchange_rounds", "", "", func(p regionPt) any { return p.ExchangeRounds }),
			col(det, "exchange_moves", "", "", func(p regionPt) any { return p.ExchangeMoves }),
			col(det, "moved_cold", "", "", func(p regionPt) any { return p.MovedCold }),
			col(det, "moved_regional", "moves", "", func(p regionPt) any { return p.MovedRegional }),
			col(det, "fell_back", "", "", func(p regionPt) any { return p.FellBack }),
			col(timing, "dirty_ms", "", "", func(p regionPt) any { return p.DirtyMs }),
			col(timing, "regions_ms", "", "", func(p regionPt) any { return p.RegionsMs }),
			col(timing, "exchange_ms", "", "", func(p regionPt) any { return p.ExchangeMs }),
			col(timing, "gates_ms", "", "", func(p regionPt) any { return p.GatesMs }),
			col(det, "equiv_ok", "", "", func(p regionPt) any { return p.EquivOK }),
			col(timing, "equiv_ms", "", "", func(p regionPt) any { return p.EquivMs }),
		},
		checks: []check{
			is("fell_back", false), // every cell heals through the regional path
			bound("regions_touched", ">", 0),
			bound("displaced_mats", ">", 0), // churn was exercised
			bound("moved_regional", ">", 0),
			// An incremental repair cannot out-solve the plan it repairs, so a
			// ratio past the bound is excused when the pre-drain plan was
			// already that bad.
			bound("amax_ratio", "<=", experiments.RegionReplanQualityRatio).when("unless the seed was already worse",
				func(r row) bool { return r.num("regional_amax_bytes") > r.num("seed_amax_bytes") }),
			is("equiv_ok", true), // every repaired plan is proven equivalent
			check{col: "cold_pack_steps", want: ">= " + plain(experiments.RegionReplanWorkRatio) + " x regional_pack_steps", ok: func(r row) bool {
				return r.num("cold_pack_steps") >= experiments.RegionReplanWorkRatio*r.num("regional_pack_steps")
			}}.when("on the "+regionReplanHeadline+" headline", headline(regionReplanHeadline)),
			{col: "topology", want: regionReplanHeadline + " in the sweep", some: true, ok: headline(regionReplanHeadline)},
		},
	}},
	run: func(c *runCtx) (result, error) {
		pts, err := experiments.Exp11(c.cfg, c.full)
		return oneTable(map[string]any{"workers": c.cfg.Workers, "full": c.full}, pts), err
	},
}

// Exp#12: a fixed old→new plan transition executed once per injection
// point, a fault (targeted crash, interrupt with journal resume, seeded
// ambient event) landing at a rotating op boundary. Outcome counts are a
// pure function of the seed (bounded retries, stubbed backoff), so
// -compare diffs them exactly; latency is a timing column.
var rolloutExp = experiment{
	name: "rollout", title: "Exp#12: transactional rollout under mid-flight faults",
	baseline: true,
	tables: []table{{name: "rows",
		cols: []column{
			col(key, "topology", "topology", "", func(p rolloutPt) any { return p.Topology }),
			col(det, "switches", "switches", "", func(p rolloutPt) any { return p.Switches }),
			col(det, "ops", "ops", "", func(p rolloutPt) any { return p.Ops }),
			col(det, "injections", "inject", "", func(p rolloutPt) any { return p.Injections }),
			col(det, "committed", "commit", "", func(p rolloutPt) any { return p.Committed }),
			col(det, "rolled_back", "rollbk", "", func(p rolloutPt) any { return p.RolledBack }),
			col(det, "degraded", "degr", "", func(p rolloutPt) any { return p.Degraded }),
			col(det, "resumed", "resumed", "", func(p rolloutPt) any { return p.Resumed }),
			col(det, "violations", "violations", "", func(p rolloutPt) any { return p.Violations }),
			col(det, "retries", "retries", "", func(p rolloutPt) any { return p.Retries }),
			col(det, "rollback_rate", "", "", func(p rolloutPt) any { return p.RollbackRate }),
			col(timing, "clean_ms", "", "", func(p rolloutPt) any { return p.CleanMs }),
			col(timing, "max_ms", "latency max", "%.2fms", func(p rolloutPt) any { return p.MaxMs }),
			col(timing, "mean_ms", "mean", "%.2fms", func(p rolloutPt) any { return p.MeanMs }),
		},
		checks: []check{
			bound("violations", "==", 0), // no torn serving state, no invariant breach
			bound("committed", ">", 0),   // both terminals exercised
			bound("rolled_back", ">", 0),
			bound("resumed", ">", 0), // interrupted rollouts resume from the journal
			{col: "injections", want: "= committed + rolled_back + degraded", ok: func(r row) bool {
				return r.num("committed")+r.num("rolled_back")+r.num("degraded") == r.num("injections")
			}},
			bound("max_ms", "<", latencyCeilingMs),
		},
	}},
	run: func(c *runCtx) (result, error) {
		topologies := []string{"table3:1", "table3:2", "composite:2"}
		if c.smoke {
			topologies = topologies[:1]
		}
		res, err := experiments.Exp12(c.cfg, topologies, rolloutInjections)
		if err != nil {
			return result{}, err
		}
		return oneTable(map[string]any{"injections": rolloutInjections}, res.Rows), nil
	},
}
