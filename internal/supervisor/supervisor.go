package supervisor

import (
	"errors"
	"fmt"
	"time"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/deploy/rollout"
	"github.com/hermes-net/hermes/internal/equiv"
	"github.com/hermes-net/hermes/internal/lint"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
)

// Options configure a Supervisor.
type Options struct {
	// Monitor tunes the health monitor (confirmation, backoff).
	Monitor MonitorOptions
	// Solver runs full solves (cold builds and repair fallbacks); nil
	// means the Greedy heuristic.
	Solver placement.Solver
	// Replan carries the ε bounds and churn knobs for supervised
	// replans. Topology is overridden with the live topology on every
	// redeploy; leave it nil. When Replan.Shards > 1 and
	// Replan.Partition is nil, New partitions the monitored topology
	// once (deterministic, seed 1) and pins it here, so every
	// supervised replan takes the region-local repair path instead of
	// re-deriving regions per churn event. Replan.Deadline is an
	// absolute time reused by every replan over the supervisor's
	// lifetime: once it passes, every later heal and rebuild runs with
	// its polish and climb cut short. Leave it zero for a long-lived
	// supervisor.
	Replan placement.ReplanOptions
	// Equiv gates every deployment the supervisor adopts — the initial
	// build, incremental redeploys, and degraded rebuilds — through the
	// symbolic equivalence proof (equiv.CheckDeployment), once per
	// deployment: the rollout that adopts it does not prove it again.
	// Replan.Equiv does the same, and Replan.Lint runs the plan lint
	// over each adopted plan. A repair that is resource-feasible but
	// not provably equivalent (or not lint-clean) is treated like any
	// other infeasibility: the supervisor degrades instead of adopting
	// it.
	Equiv bool
	// RolloutRetry bounds per-op attempts for the transactional
	// rollouts that adopt repaired deployments; the zero policy gets
	// the rollout defaults (3 attempts, 2ms backoff).
	RolloutRetry deploy.RetryPolicy
	// RolloutHook observes every rollout op boundary (chaos injection
	// in tests, progress reporting in tools).
	RolloutHook rollout.Hook
}

func (o Options) solver() placement.Solver {
	if o.Solver == nil {
		return placement.Greedy{}
	}
	return o.Solver
}

// DegradationEvent records one shed or restore decision.
type DegradationEvent struct {
	// Poll is the supervisor poll sequence number the event happened in
	// (0 = during construction).
	Poll int `json:"poll"`
	// Program is the affected program's name.
	Program string `json:"program"`
	// Shed is true for a shed, false for a restore.
	Shed bool `json:"shed"`
	// Reason is the infeasibility that forced a shed; empty on
	// restores.
	Reason string `json:"reason,omitempty"`
}

// DegradationReport is the cumulative record of graceful degradation:
// every shed/restore event plus the currently shed set. Chaos tests
// and operators audit it to confirm no program silently disappeared.
type DegradationReport struct {
	// Events lists every shed and restore in order.
	Events []DegradationEvent `json:"events"`
	// Shed lists the currently shed program names, highest priority
	// first.
	Shed []string `json:"shed"`
}

// Stats count the supervisor's lifetime activity.
type Stats struct {
	// Polls is how many times Poll ran.
	Polls int
	// ConfirmedDown and ConfirmedUp count monitor transitions.
	ConfirmedDown int
	ConfirmedUp   int
	// Replans counts redeploy attempts triggered by a broken plan;
	// IncrementalReplans of them went through the delta-repair path and
	// FullReplans through a from-scratch solve (fallback or rebuild
	// after shedding).
	Replans            int
	IncrementalReplans int
	FullReplans        int
	// RegionalReplans counts the incremental replans that took the
	// region-local repair path (a partition was pinned on the replan
	// options; subset of IncrementalReplans).
	RegionalReplans int
	// ShedPrograms and RestoredPrograms count degradation events.
	ShedPrograms     int
	RestoredPrograms int
	// FailedPolls counts polls that left the deployment broken (no
	// feasible plan even after shedding to the floor).
	FailedPolls int
	// Rollouts counts transactional adoption attempts;
	// RolledBackRollouts of them failed mid-flight and restored the
	// last-good plan (the supervisor stays on it and retries next
	// poll).
	Rollouts           int
	RolledBackRollouts int
}

// PollResult describes what one poll did.
type PollResult struct {
	// Down and Up are the transitions confirmed this poll.
	Down []network.SwitchID
	Up   []network.SwitchID
	// DirtyMATs lists the MATs stranded on down switches at the start
	// of the redeploy (the replan's displaced seed set).
	DirtyMATs []string
	// Replanned is true when a redeploy ran; UsedRepair marks the
	// incremental path and UsedRegional the region-local repair within
	// it (RegionsTouched lists the dirty regions it operated on).
	Replanned      bool
	UsedRepair     bool
	UsedRegional   bool
	RegionsTouched []int
	// Shed and Restored list programs degraded or brought back this
	// poll.
	Shed     []string
	Restored []string
	// RecoveryTime is the wall clock spent replanning, rebuilding,
	// compiling, and verifying this poll.
	RecoveryTime time.Duration
	// Rollout is the report of the last transactional adoption this
	// poll ran (nil when nothing was adopted make-before-break).
	Rollout *rollout.Report
}

// Supervisor owns a deployment and keeps it consistent with the live
// topology's fault state. It is poll-driven: each Poll heartbeats the
// switches, and confirmed transitions trigger incremental replans,
// graceful degradation, or restoration. Methods must not be called
// concurrently.
type Supervisor struct {
	topo  *network.Topology
	progs []*program.Program // priority order: progs[0] matters most
	shed  map[string]bool    // program name -> currently shed
	opts  Options
	mon   *Monitor
	dep   *deploy.Deployment
	ctrl  *deploy.Controller
	fab   *rollout.MemFabric
	epoch uint64
	rep   DegradationReport
	stats Stats
}

// New builds the initial deployment of progs on topo and wraps it in a
// supervisor. progs is in priority order: progs[0] is the most
// important and is shed last. If even the initial workload does not
// fit, New degrades immediately (recorded in the report) rather than
// failing, as long as the most important program fits.
func New(progs []*program.Program, topo *network.Topology, opts Options) (*Supervisor, error) {
	if len(progs) == 0 {
		return nil, fmt.Errorf("supervisor: no programs")
	}
	if topo == nil {
		return nil, fmt.Errorf("supervisor: nil topology")
	}
	mon, err := NewMonitor(topo, opts.Monitor)
	if err != nil {
		return nil, err
	}
	s := &Supervisor{
		topo:  topo,
		progs: progs,
		shed:  map[string]bool{},
		opts:  opts,
		mon:   mon,
	}
	// Sharded supervision: derive the region partition once from the
	// monitored topology so churn-time replans heal region-locally.
	// Partitioning failures (topology too small or disconnected for k)
	// are not fatal — replans simply keep the whole-topology repair.
	if s.opts.Replan.Partition == nil && s.opts.Replan.Shards > 1 {
		if part, err := network.PartitionRegions(topo, s.opts.Replan.Shards, 1); err == nil {
			s.opts.Replan.Partition = part
		}
	}
	res := &PollResult{}
	if err := s.rebuild(res); err != nil {
		if err = s.shedUntilFit(res, 0, err); err != nil {
			return nil, fmt.Errorf("supervisor: initial deployment: %w", err)
		}
	}
	ctrl, err := deploy.NewController(s.dep)
	if err != nil {
		return nil, err
	}
	s.ctrl = ctrl
	// All later adoptions are transactional make-before-break; the
	// fabric tracks which epoch each switch has installed, starting
	// from the initial deployment at epoch 1.
	s.epoch = 1
	s.fab = rollout.NewMemFabric(topo)
	s.fab.Bootstrap(s.dep, s.epoch)
	return s, nil
}

// Epoch returns the serving deployment's epoch token.
func (s *Supervisor) Epoch() uint64 { return s.epoch }

// Fabric returns the rollout fabric tracking per-switch installed
// epochs across supervised adoptions.
func (s *Supervisor) Fabric() *rollout.MemFabric { return s.fab }

// Deployment returns the live deployment.
func (s *Supervisor) Deployment() *deploy.Deployment { return s.dep }

// Monitor returns the health monitor.
func (s *Supervisor) Monitor() *Monitor { return s.mon }

// Report returns a copy of the degradation report.
func (s *Supervisor) Report() DegradationReport {
	out := DegradationReport{
		Events: append([]DegradationEvent(nil), s.rep.Events...),
	}
	for _, p := range s.progs {
		if s.shed[p.Name] {
			out.Shed = append(out.Shed, p.Name)
		}
	}
	return out
}

// Stats returns the lifetime counters.
func (s *Supervisor) Stats() Stats { return s.stats }

// active returns the currently deployed programs, priority order.
func (s *Supervisor) active() []*program.Program {
	out := make([]*program.Program, 0, len(s.progs))
	for _, p := range s.progs {
		if !s.shed[p.Name] {
			out = append(out, p)
		}
	}
	return out
}

// PlanBroken reports whether the raw fault state invalidates the
// current plan: a hosting switch is down, or a chosen route traverses
// a down switch or link. The poll loop acts on the confirmed variant
// (see brokenConfirmed) so unconfirmed flap blips do not churn.
func (s *Supervisor) PlanBroken() bool {
	return s.broken(func(id network.SwitchID) bool { return s.topo.SwitchIsDown(id) })
}

// brokenConfirmed is the action trigger: a switch counts as failed
// only when it is down in the fault overlay AND the monitor has
// confirmed it (K-of-N), so a single-poll blip never forces a replan.
// Link faults are not heartbeat-confirmed (the monitor probes
// switches) and act immediately.
func (s *Supervisor) brokenConfirmed() bool {
	confirmed := map[network.SwitchID]bool{}
	for _, id := range s.mon.ConfirmedDown() {
		confirmed[id] = true
	}
	return s.broken(func(id network.SwitchID) bool {
		return s.topo.SwitchIsDown(id) && confirmed[id]
	})
}

func (s *Supervisor) broken(downFn func(network.SwitchID) bool) bool {
	if s.dep == nil {
		return true
	}
	for _, sw := range s.dep.Plan.Hosts() {
		if sw >= 0 && downFn(sw) {
			return true
		}
	}
	for _, path := range s.dep.Plan.Routes {
		for i, hop := range path.Switches {
			if downFn(hop) {
				return true
			}
			if i > 0 && s.topo.LinkIsDown(path.Switches[i-1], hop) {
				return true
			}
		}
	}
	return false
}

// dirtyMATs lists the MATs hosted on down switches, in TDG node
// order — the displaced set the replan starts from.
func (s *Supervisor) dirtyMATs() []string {
	if s.dep == nil {
		return nil
	}
	var out []string
	for _, name := range s.dep.Plan.Graph.NodeNames() {
		if u, ok := s.dep.Plan.SwitchOf(name); ok && s.topo.SwitchIsDown(u) {
			out = append(out, name)
		}
	}
	return out
}

// Poll runs one supervision tick: heartbeat every switch, and react to
// confirmed transitions. A broken plan triggers an incremental
// redeploy; infeasibility triggers shedding; heals trigger
// restoration. The returned result describes what happened; the error
// is non-nil only when the deployment could not be made consistent
// (it stays on the last good plan).
func (s *Supervisor) Poll() (*PollResult, error) {
	s.stats.Polls++
	poll := s.stats.Polls
	res := &PollResult{}
	res.Down, res.Up = s.mon.Poll()
	s.stats.ConfirmedDown += len(res.Down)
	s.stats.ConfirmedUp += len(res.Up)

	start := time.Now()
	var err error
	if s.brokenConfirmed() {
		res.DirtyMATs = s.dirtyMATs()
		err = s.redeploy(res, poll)
	}
	// A heal (or a successful redeploy freeing capacity) is the moment
	// to try bringing shed programs back.
	if err == nil && len(res.Up) > 0 {
		s.restore(res, poll)
	}
	if res.Replanned || len(res.Shed) > 0 || len(res.Restored) > 0 {
		res.RecoveryTime = time.Since(start)
	}
	if err != nil {
		s.stats.FailedPolls++
	}
	return res, err
}

// redeploy repairs the deployment around the current fault state:
// first the incremental replan path, then (on infeasibility) graceful
// degradation — shed the lowest-priority active program and rebuild
// cold, repeating until a valid plan fits or the floor is reached.
func (s *Supervisor) redeploy(res *PollResult, poll int) error {
	ropts := s.opts.Replan
	ropts.Topology = s.topo
	s.stats.Replans++
	next, rrep, err := deploy.Redeploy(s.dep, s.opts.solver(), ropts)
	if err == nil {
		err = s.gate(next)
	}
	if err == nil {
		res.Replanned = true
		res.UsedRepair = rrep.UsedRepair
		res.UsedRegional = rrep.UsedRegional
		res.RegionsTouched = rrep.RegionsTouched
		if rrep.UsedRepair {
			s.stats.IncrementalReplans++
			if rrep.UsedRegional {
				s.stats.RegionalReplans++
			}
		} else {
			s.stats.FullReplans++
		}
		return s.adopt(res, next)
	}
	// No feasible plan for the full active set: degrade.
	return s.shedUntilFit(res, poll, err)
}

// shedUntilFit degrades gracefully: shed the lowest-priority active
// program and rebuild cold, repeating until a valid plan fits or the
// floor is reached. cause is the infeasibility that started the loop.
func (s *Supervisor) shedUntilFit(res *PollResult, poll int, cause error) error {
	err := cause
	for {
		act := s.active()
		if len(act) <= 1 { // shedding never drops the last program
			return fmt.Errorf("supervisor: no feasible plan and shed floor reached (%d programs): %w",
				len(act), err)
		}
		victim := act[len(act)-1] // lowest priority
		s.shed[victim.Name] = true
		s.stats.ShedPrograms++
		s.rep.Events = append(s.rep.Events, DegradationEvent{
			Poll: poll, Program: victim.Name, Shed: true, Reason: err.Error(),
		})
		res.Shed = append(res.Shed, victim.Name)
		if rerr := s.rebuild(res); rerr == nil {
			return nil
		} else {
			err = rerr
		}
	}
}

// restore tries to bring shed programs back, highest priority first,
// stopping at the first one that still does not fit (restoring a
// lower-priority program before a higher-priority one would invert
// the policy).
func (s *Supervisor) restore(res *PollResult, poll int) {
	for _, p := range s.progs {
		if !s.shed[p.Name] {
			continue
		}
		s.shed[p.Name] = false
		if err := s.rebuild(res); err != nil {
			s.shed[p.Name] = true
			return
		}
		s.stats.RestoredPrograms++
		s.rep.Events = append(s.rep.Events, DegradationEvent{
			Poll: poll, Program: p.Name, Shed: false,
		})
		res.Restored = append(res.Restored, p.Name)
	}
}

// rebuild solves the active program set cold against the live
// topology and adopts the result. The plan owns a topology snapshot
// (with the fault overlay frozen at solve time), so later fault
// mutations never corrupt a standing plan.
func (s *Supervisor) rebuild(res *PollResult) error {
	act := s.active()
	if len(act) == 0 {
		return fmt.Errorf("supervisor: every program shed")
	}
	g, err := analyzer.Analyze(act, analyzer.Options{})
	if err != nil {
		return err
	}
	popts := s.opts.Replan.Options
	plan, err := s.opts.solver().Solve(g, s.topo.Clone(), popts)
	if err != nil {
		return err
	}
	dep, err := deploy.Compile(plan, analyzer.Options{})
	if err != nil {
		return err
	}
	if err := dep.Verify(); err != nil {
		return err
	}
	if err := s.gate(dep); err != nil {
		return err
	}
	if s.dep != nil {
		res.Replanned = true
		s.stats.FullReplans++
	}
	return s.adopt(res, dep)
}

// gate runs the checks the options ask for over a deployment about to be
// adopted: the plan lint (Replan.Lint) and the symbolic equivalence
// proof (Equiv or Replan.Equiv).
func (s *Supervisor) gate(dep *deploy.Deployment) error {
	r := s.opts.Replan
	if r.Lint {
		if err := lint.LintPlan(dep.Plan, program.DefaultResourceModel, r.Epsilon1, r.Epsilon2).Err(); err != nil {
			return fmt.Errorf("supervisor: plan rejected by lint: %w", err)
		}
	}
	if s.opts.Equiv || r.Equiv {
		return equiv.CheckDeployment(nil, dep)
	}
	return nil
}

// adopt swaps in a new deployment. The initial build (no controller
// yet) binds directly — nothing is serving. Every later adoption runs
// the transactional make-before-break rollout: the new configs are
// staged under a fresh epoch, program groups flip atomically, the
// controller is rebound by the engine after every group committed,
// and only then is the old epoch retired. A failed rollout restores
// the last-good plan (or degrades without tearing) and the supervisor
// keeps serving it; the next poll retries.
func (s *Supervisor) adopt(res *PollResult, dep *deploy.Deployment) error {
	if s.ctrl == nil || s.dep == nil {
		s.dep = dep
		return nil
	}
	r, err := rollout.New(s.dep, dep, rollout.Options{
		Topo:      s.topo,
		Retry:     s.opts.RolloutRetry,
		Fabric:    s.fab,
		Ctrl:      s.ctrl,
		FromEpoch: s.epoch,
		Hook:      s.opts.RolloutHook,
	})
	if err != nil {
		return err
	}
	s.stats.Rollouts++
	rep, err := r.Execute()
	if res != nil {
		res.Rollout = rep
	}
	if err != nil {
		if errors.Is(err, rollout.ErrRolledBack) {
			s.stats.RolledBackRollouts++
		}
		return fmt.Errorf("supervisor: adopt: %w", err)
	}
	s.dep = dep
	s.epoch = rep.ToEpoch
	return nil
}
