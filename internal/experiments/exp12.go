package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/deploy/rollout"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/workload"
)

// --- Exp#12: transactional rollout under mid-flight faults ---

// rolloutStageCapacity spreads the workload over several switches so a
// plan change touches a meaningful switch set (full Tofino capacity
// would pack one switch and trivialize the rollout).
const rolloutStageCapacity = 0.05

// rolloutMinUp keeps every generated fault schedule survivable.
const rolloutMinUp = 3

// rolloutPrograms is the workload size, matching Exp#8.
const rolloutPrograms = 6

// RolloutPoint is one topology row of the rollout fault sweep: a fixed
// old→new plan transition executed once cleanly and then once per
// injection point, with a seeded fault-schedule event (and, on every
// third injection, a process interrupt plus journal resume) applied at
// a rotating op boundary.
type RolloutPoint struct {
	// Topology names the substrate; Switches is its size.
	Topology string
	Switches int
	// Ops is the clean rollout's forward op count (the number of
	// distinct injection boundaries); CleanMs its latency.
	Ops     int
	CleanMs float64
	// Injections is the number of faulted executions; Committed,
	// RolledBack and Degraded partition their terminal outcomes, and
	// Resumed counts the interrupted runs that completed via journal
	// resume (their terminal outcome is also counted).
	Injections int
	Committed  int
	RolledBack int
	Degraded   int
	Resumed    int
	// RollbackRate is RolledBack / Injections.
	RollbackRate float64
	// Violations counts invariant breaches: a torn serving state at any
	// op boundary, a non-terminal outcome, or a serving plan that fails
	// Validate/Verify after the rollout settled. Any value above zero is
	// a rollout-engine bug.
	Violations int
	// Retries is the total per-op retry count across all executions.
	Retries int
	// MaxMs and MeanMs aggregate per-execution rollout latency.
	MaxMs  float64
	MeanMs float64
}

// RolloutResult is the full Exp#12 outcome.
type RolloutResult struct {
	Rows []RolloutPoint
}

// rolloutTopology builds the named substrate with rollout capacity.
func rolloutTopology(spec string, seed int64) (*network.Topology, error) {
	sw := network.TofinoSpec()
	sw.StageCapacity = rolloutStageCapacity
	switch spec {
	case "table3:1":
		return network.TableIII(1, sw)
	case "table3:2":
		return network.TableIII(2, sw)
	case "composite:2":
		return network.CompositeWAN(2, sw, seed)
	default:
		return nil, fmt.Errorf("experiments: unknown rollout topology %q", spec)
	}
}

// rolloutInstance builds the fixed old→new transition for one
// topology: deploy the evaluation workload, then drain the busiest
// switch and redeploy around it — the canonical maintenance-driven
// plan change a rollout adopts.
func rolloutInstance(cfg Config, spec string) (*network.Topology, *deploy.Deployment, *deploy.Deployment, error) {
	topo, err := rolloutTopology(spec, cfg.Seed)
	if err != nil {
		return nil, nil, nil, err
	}
	progs, err := workload.EvaluationPrograms(rolloutPrograms, cfg.Seed)
	if err != nil {
		return nil, nil, nil, err
	}
	g, err := analyzer.Analyze(progs, analyzer.Options{})
	if err != nil {
		return nil, nil, nil, err
	}
	plan, err := (placement.Greedy{}).Solve(g, topo, placement.Options{Workers: cfg.Workers})
	if err != nil {
		return nil, nil, nil, err
	}
	old, err := deploy.Compile(plan, analyzer.Options{})
	if err != nil {
		return nil, nil, nil, err
	}
	if err := old.Verify(); err != nil {
		return nil, nil, nil, err
	}
	busiest, _ := busiestSwitch(plan)
	next, _, err := deploy.Redeploy(old, nil, placement.ReplanOptions{}, busiest)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("experiments: exp12 %s redeploy: %w", spec, err)
	}
	return topo, old, next, nil
}

// rolloutQuickRetry keeps retries deterministic and fast: attempts are
// bounded and backoff sleeps are a no-op hook, so outcome counts are a
// pure function of the seed.
func rolloutQuickRetry() deploy.RetryPolicy {
	return deploy.RetryPolicy{Attempts: 2, Backoff: time.Microsecond, Sleep: func(time.Duration) {}}
}

// rolloutSweep drives one topology through the full injection matrix.
func rolloutSweep(cfg Config, spec string, injections int) (*RolloutPoint, error) {
	topo, old, next, err := rolloutInstance(cfg, spec)
	if err != nil {
		return nil, err
	}
	pt := &RolloutPoint{Topology: spec, Switches: topo.NumSwitches(), Injections: injections}

	// Clean run: counts the op boundaries and must commit.
	cleanFab := rollout.NewMemFabric(topo.Clone())
	cleanFab.Bootstrap(old, 1)
	clean, err := rollout.New(old, next, rollout.Options{Topo: topo, Fabric: cleanFab, Retry: rolloutQuickRetry()})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	cleanRep, err := clean.Execute()
	if err != nil || cleanRep.Outcome != rollout.OutcomeCommitted {
		return nil, fmt.Errorf("experiments: exp12 %s clean rollout = %s, %v", spec, cleanRep.Outcome, err)
	}
	pt.Ops = cleanRep.Ops
	pt.CleanMs = float64(time.Since(start)) / float64(time.Millisecond)
	if pt.Ops == 0 {
		return nil, fmt.Errorf("experiments: exp12 %s clean rollout issued no ops", spec)
	}

	sched, err := network.GenerateSchedule(topo, network.ScheduleOptions{
		Seed:              cfg.Seed*1000 + int64(len(spec)),
		Events:            injections,
		MinUpProgrammable: rolloutMinUp,
	})
	if err != nil {
		return nil, err
	}
	if len(sched.Events) == 0 {
		return nil, fmt.Errorf("experiments: exp12 %s empty fault schedule", spec)
	}

	var totalMs float64
	for i := 0; i < injections; i++ {
		ev := sched.Events[i%len(sched.Events)]
		b := (i * 7) % pt.Ops
		// Three injection archetypes, rotating: a targeted crash of the
		// boundary op's own dependency (forces the rollback machinery),
		// a process interrupt resumed from the journal, and an ambient
		// seeded-schedule event (which may or may not intersect the
		// rollout's switch set — misses exercise the clean path).
		targeted := i%3 == 0
		interrupt := i%3 == 1

		live := topo.Clone()
		fab := rollout.NewMemFabric(live)
		fab.Bootstrap(old, 1)
		ctx, cancel := context.WithCancel(context.Background())
		boundary := 0
		hook := func(phase string, op rollout.Op, view *rollout.ServingView) {
			if err := view.CheckInstalled(fab); err != nil {
				pt.Violations++
			}
			if boundary == b {
				switch {
				case targeted:
					victim, ok := op.Switch, op.Kind != rollout.OpCommit
					if op.Kind == rollout.OpCommit {
						// Commits target groups; crash a switch the
						// flipped-to plan hosts the group on.
						if hosts := view.HostsOf(op.Group, op.Epoch); len(hosts) > 0 {
							victim, ok = hosts[len(hosts)-1], true
						}
					}
					if ok {
						_ = live.SetSwitchDown(victim)
					}
				case interrupt:
					cancel()
				default:
					_ = ev.Apply(live)
				}
			}
			boundary++
		}
		r, err := rollout.New(old, next, rollout.Options{
			Topo: live, Ctx: ctx, Fabric: fab, Retry: rolloutQuickRetry(), Hook: hook,
		})
		if err != nil {
			cancel()
			return nil, err
		}
		start := time.Now()
		rep, xerr := r.Execute()
		if interrupt && errors.Is(xerr, rollout.ErrInterrupted) {
			// Crash-resume through the journal's durable text form.
			j, perr := rollout.ParseJournal(r.Journal().Format())
			if perr != nil {
				cancel()
				return nil, fmt.Errorf("experiments: exp12 %s journal round-trip: %w", spec, perr)
			}
			r2, nerr := rollout.New(old, next, rollout.Options{
				Topo: live, Fabric: fab, Journal: j, Retry: rolloutQuickRetry(),
			})
			if nerr != nil {
				cancel()
				return nil, nerr
			}
			pt.Retries += rep.Retries
			rep, xerr = r2.Execute()
			pt.Resumed++
			r = r2
		}
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		cancel()
		totalMs += ms
		if ms > pt.MaxMs {
			pt.MaxMs = ms
		}
		pt.Retries += rep.Retries

		switch rep.Outcome {
		case rollout.OutcomeCommitted:
			pt.Committed++
		case rollout.OutcomeRolledBack:
			pt.RolledBack++
		case rollout.OutcomeDegraded:
			pt.Degraded++
		default:
			// A resumed rollout must terminate; a lone interrupt without
			// resume cannot happen here (only i%3==1 runs interrupt).
			pt.Violations++
			continue
		}
		// The serving state must be un-torn at the terminal...
		if err := r.View().CheckInstalled(fab); err != nil {
			pt.Violations++
		}
		// ...and the plan now serving must still be Validate+Verify
		// green (for degraded outcomes programs split across both plans,
		// each individually green; the per-boundary checks above already
		// proved no program is torn).
		serving := old
		if rep.Outcome == rollout.OutcomeCommitted {
			serving = next
		}
		if rep.Outcome != rollout.OutcomeDegraded {
			if err := serving.Plan.Validate(program.DefaultResourceModel, 0, 0); err != nil {
				pt.Violations++
			}
			if err := serving.Verify(); err != nil {
				pt.Violations++
			}
		}
		_ = xerr // outcome classification above subsumes the error
	}
	pt.MeanMs = totalMs / float64(injections)
	pt.RollbackRate = float64(pt.RolledBack) / float64(injections)
	return pt, nil
}

// Exp12 is the rollout fault study: a fixed old→new plan transition on
// each substrate, executed once per injection point with a seeded
// fault-schedule event applied at a rotating op boundary (every third
// injection also interrupts the process and resumes from the journal).
// Topologies evaluate concurrently under cfg.Workers; rows come back
// in topology order.
func Exp12(cfg Config, topologies []string, injections int) (*RolloutResult, error) {
	if len(topologies) == 0 {
		topologies = []string{"table3:1", "table3:2", "composite:2"}
	}
	if injections <= 0 {
		injections = 33
	}
	out := &RolloutResult{Rows: make([]RolloutPoint, len(topologies))}
	errs := make([]error, len(topologies))
	runParallel(len(topologies), cfg.workers(), func(i int) {
		pt, err := rolloutSweep(cfg, topologies[i], injections)
		if err != nil {
			errs[i] = err
			return
		}
		out.Rows[i] = *pt
	})
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return out, nil
}
