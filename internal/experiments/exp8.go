package experiments

import (
	"fmt"
	"time"

	"github.com/hermes-net/hermes/internal/lint"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/supervisor"
	"github.com/hermes-net/hermes/internal/workload"
)

// --- Exp#8: survivability under injected faults ---

// surviveStageCapacity spreads the six-program workload over several
// switches of Table III topology 1 so fault events regularly strand
// MATs and cut routes (full Tofino capacity would pack one switch).
const surviveStageCapacity = 0.05

// surviveMinUp keeps every schedule prefix survivable: even fully
// degraded, one program fits on three programmable switches.
const surviveMinUp = 3

// survivePrograms is the workload size; larger counts stop fitting the
// reduced-capacity topologies outright (see the chaos test).
const survivePrograms = 6

// SurvivalPoint is one fault-rate row of the survivability sweep: a
// fresh supervisor driven through a seeded schedule of the given
// length, with the full oracle stack run at every quiescent point.
type SurvivalPoint struct {
	// Events is the requested fault-injection count; ScheduleEvents is
	// the realized schedule length including the generated heals.
	Events         int
	ScheduleEvents int
	// Polls is the total supervision ticks spent, including the
	// quiescence polls after each event.
	Polls int
	// Replans counts redeploys; IncrementalReplans of them repaired the
	// standing plan and FullReplans solved from scratch.
	Replans            int
	IncrementalReplans int
	FullReplans        int
	// ShedEvents and RestoreEvents count graceful-degradation activity;
	// FinalShed is how many programs remained shed after the schedule
	// (the schedules end fully healed, so the target is zero).
	ShedEvents    int
	RestoreEvents int
	FinalShed     int
	// Violations counts quiescent states where Plan.Validate, the lint
	// oracle, or deploy.Verify rejected the live deployment. Any value
	// above zero is a supervisor bug.
	Violations int
	// MaxRecoveryMs and MeanRecoveryMs aggregate the wall-clock time of
	// the polls that replanned, shed, or restored.
	MaxRecoveryMs  float64
	MeanRecoveryMs float64
	// BaseAMax is Eq. 1 of the pre-fault plan; MaxAMax is the worst
	// quiescent A_max over the schedule, and AMaxInflation their ratio —
	// the coordination-overhead price of surviving the faults.
	BaseAMax      int
	MaxAMax       int
	AMaxInflation float64
}

// SingleCrashResult measures the headline recovery event: crashing the
// busiest switch of the deployed plan.
type SingleCrashResult struct {
	Crashed       network.SwitchID
	DisplacedMATs int
	// UsedRepair is true when recovery went through the incremental
	// repair path rather than a cold solve.
	UsedRepair bool
	RecoveryMs float64
	AMaxBefore int
	AMaxAfter  int
}

// SurvivalResult is the full Exp#8 outcome.
type SurvivalResult struct {
	Single SingleCrashResult
	Rows   []SurvivalPoint
}

// surviveInstance builds the shared fixture: a supervised deployment of
// the evaluation workload on Table III topology 1 with tightened stage
// capacity, under a 2-of-2 confirmation monitor.
func surviveInstance(cfg Config) (*network.Topology, *supervisor.Supervisor, error) {
	spec := network.TofinoSpec()
	spec.StageCapacity = surviveStageCapacity
	topo, err := network.TableIII(1, spec)
	if err != nil {
		return nil, nil, err
	}
	progs, err := workload.EvaluationPrograms(survivePrograms, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	sup, err := supervisor.New(progs, topo, supervisor.Options{
		Monitor: supervisor.MonitorOptions{
			Window: 2, FailThreshold: 2, RecoverThreshold: 1,
			BackoffMax: 2, Seed: cfg.Seed,
		},
	})
	if err != nil {
		return nil, nil, err
	}
	return topo, sup, nil
}

// quiesceSupervisor polls until the monitor's confirmed view matches
// the raw fault overlay and the plan is consistent with it. It returns
// the polls spent and the recovery durations observed.
func quiesceSupervisor(topo *network.Topology, sup *supervisor.Supervisor) (int, []time.Duration, error) {
	var recov []time.Duration
	for i := 0; i < 80; i++ {
		res, err := sup.Poll()
		if err != nil {
			return i + 1, recov, err
		}
		if res.RecoveryTime > 0 {
			recov = append(recov, res.RecoveryTime)
		}
		settled := len(res.Down) == 0 && len(res.Up) == 0 &&
			len(res.Shed) == 0 && len(res.Restored) == 0
		if settled && monitorConverged(topo, sup.Monitor()) && !sup.PlanBroken() {
			return i + 1, recov, nil
		}
	}
	return 80, recov, fmt.Errorf("experiments: supervisor failed to quiesce")
}

// monitorConverged reports whether the confirmed-down set equals the
// raw fault overlay.
func monitorConverged(topo *network.Topology, m *supervisor.Monitor) bool {
	raw := map[network.SwitchID]bool{}
	for _, sw := range topo.Switches() {
		if topo.SwitchIsDown(sw.ID) {
			raw[sw.ID] = true
		}
	}
	conf := m.ConfirmedDown()
	if len(conf) != len(raw) {
		return false
	}
	for _, id := range conf {
		if !raw[id] {
			return false
		}
	}
	return true
}

// checkDeployment runs the full oracle stack over the live deployment.
func checkDeployment(sup *supervisor.Supervisor) error {
	dep := sup.Deployment()
	rm := program.DefaultResourceModel
	if err := dep.Plan.Validate(rm, 0, 0); err != nil {
		return err
	}
	if err := lint.CheckPlanOracle(dep.Plan, rm, 0, 0); err != nil {
		return err
	}
	return dep.Verify()
}

// survivalPoint drives one fresh supervisor through one seeded
// schedule of the requested length.
func survivalPoint(cfg Config, events int) (*SurvivalPoint, error) {
	topo, sup, err := surviveInstance(cfg)
	if err != nil {
		return nil, err
	}
	sched, err := network.GenerateSchedule(topo, network.ScheduleOptions{
		Seed:              cfg.Seed*1000 + int64(events),
		Events:            events,
		MinUpProgrammable: surviveMinUp,
	})
	if err != nil {
		return nil, err
	}
	pt := &SurvivalPoint{
		Events:         events,
		ScheduleEvents: len(sched.Events),
		BaseAMax:       sup.Deployment().Plan.AMax(),
	}
	pt.MaxAMax = pt.BaseAMax
	var recov []time.Duration
	for _, ev := range sched.Events {
		if err := ev.Apply(topo); err != nil {
			return nil, err
		}
		polls, r, err := quiesceSupervisor(topo, sup)
		pt.Polls += polls
		recov = append(recov, r...)
		if err != nil {
			return nil, fmt.Errorf("experiments: exp8 at %d events: %w", events, err)
		}
		if err := checkDeployment(sup); err != nil {
			pt.Violations++
		}
		if a := sup.Deployment().Plan.AMax(); a > pt.MaxAMax {
			pt.MaxAMax = a
		}
	}
	st := sup.Stats()
	pt.Replans = st.Replans
	pt.IncrementalReplans = st.IncrementalReplans
	pt.FullReplans = st.FullReplans
	pt.ShedEvents = st.ShedPrograms
	pt.RestoreEvents = st.RestoredPrograms
	pt.FinalShed = len(sup.Report().Shed)
	var sum time.Duration
	for _, d := range recov {
		if ms := float64(d) / float64(time.Millisecond); ms > pt.MaxRecoveryMs {
			pt.MaxRecoveryMs = ms
		}
		sum += d
	}
	if len(recov) > 0 {
		pt.MeanRecoveryMs = float64(sum) / float64(len(recov)) / float64(time.Millisecond)
	}
	if pt.BaseAMax > 0 {
		pt.AMaxInflation = float64(pt.MaxAMax) / float64(pt.BaseAMax)
	} else if pt.MaxAMax == 0 {
		pt.AMaxInflation = 1
	}
	return pt, nil
}

// singleCrash crashes the busiest switch of a fresh deployment and
// measures the recovery.
func singleCrash(cfg Config) (*SingleCrashResult, error) {
	topo, sup, err := surviveInstance(cfg)
	if err != nil {
		return nil, err
	}
	crashed, displaced := busiestSwitch(sup.Deployment().Plan)
	before := sup.Deployment().Plan.AMax()
	if err := topo.SetSwitchDown(crashed); err != nil {
		return nil, err
	}
	out := &SingleCrashResult{Crashed: crashed, DisplacedMATs: displaced, AMaxBefore: before}
	for i := 0; i < 80 && sup.PlanBroken(); i++ {
		res, err := sup.Poll()
		if err != nil {
			return nil, err
		}
		if res.Replanned {
			out.UsedRepair = res.UsedRepair
			out.RecoveryMs += float64(res.RecoveryTime) / float64(time.Millisecond)
		}
	}
	if sup.PlanBroken() {
		return nil, fmt.Errorf("experiments: exp8 single crash never recovered")
	}
	if err := checkDeployment(sup); err != nil {
		return nil, fmt.Errorf("experiments: exp8 post-crash deployment invalid: %w", err)
	}
	out.AMaxAfter = sup.Deployment().Plan.AMax()
	return out, nil
}

// Exp8 is the survivability study: the supervised deployment on Table
// III topology 1 driven through seeded fault schedules of increasing
// length, plus the single-crash headline recovery. Rates evaluate
// concurrently under cfg.Workers; rows come back in rate order.
func Exp8(cfg Config, rates []int) (*SurvivalResult, error) {
	if len(rates) == 0 {
		rates = []int{10, 20, 40}
	}
	out := &SurvivalResult{Rows: make([]SurvivalPoint, len(rates))}
	errs := make([]error, len(rates)+1)
	runParallel(len(rates)+1, cfg.workers(), func(i int) {
		if i == len(rates) {
			sc, err := singleCrash(cfg)
			if err != nil {
				errs[i] = err
				return
			}
			out.Single = *sc
			return
		}
		pt, err := survivalPoint(cfg, rates[i])
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
