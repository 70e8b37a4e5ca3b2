package rollout

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
)

// ErrRolledBack marks an Execute that could not complete and restored
// the last-good plan; the wrapped cause names the op that failed.
var ErrRolledBack = errors.New("rollout: rolled back to last-good plan")

// Hook observes every op just before its first attempt. phase is the
// engine phase issuing the op ("prepare", "commit", "retire",
// "rollback"); view is the live serving state. The chaos harness uses
// this boundary to inject faults and interrupts; the hook runs on the
// Execute goroutine, so it may mutate the live topology but must not
// call back into the rollout.
type Hook func(phase string, op Op, view *ServingView)

// Options configures one rollout.
type Options struct {
	// Topo is the live topology whose fault overlay gates commits; nil
	// falls back to the new plan's own topology snapshot.
	Topo *network.Topology
	// Ctx cancels the rollout between ops and during backoff sleeps; a
	// cancelled rollout reports OutcomeInterrupted and can resume.
	Ctx context.Context
	// Retry bounds per-op attempts. The zero policy gets rollout
	// defaults (3 attempts, 2ms initial backoff); Retry.Ctx defaults
	// to Ctx so backoff sleeps are cancellable.
	Retry deploy.RetryPolicy
	// JitterSeed seeds the deterministic backoff jitter (±50% spread
	// derived per op/attempt); 0 is a valid seed.
	JitterSeed int64
	// Fabric receives the ops; nil builds a fresh MemFabric over Topo
	// bootstrapped with the old deployment at the from-epoch.
	Fabric Fabric
	// Journal resumes a prior interrupted rollout. Its epoch pair and
	// fingerprint must match the old→new deployments handed to New.
	Journal *Journal
	// Ctrl, when non-nil, is rebound to the new deployment after every
	// group has committed (the only sanctioned Rebind call site).
	Ctrl *deploy.Controller
	// FromEpoch is the old deployment's epoch token; 0 means 1.
	// Ignored on resume (the journal fixes both epochs).
	FromEpoch uint64
	// Equiv additionally gates the new deployment through
	// deploy.ProveEquivalent (the symbolic equivalence checker) before
	// any op is issued.
	Equiv bool
	// ResourceModel for the pre-flight plan validation; nil means
	// program.DefaultResourceModel.
	ResourceModel *program.ResourceModel
	// Hook observes op boundaries (chaos injection, CLI progress).
	Hook Hook
}

// Rollout is one prepared old→new transition. Build with New, run
// with Execute; not safe for concurrent use.
type Rollout struct {
	old, next *deploy.Deployment
	opts      Options
	pol       deploy.RetryPolicy
	fab       Fabric
	j         *Journal
	from, to  uint64

	groups    []*commitGroup
	progGroup map[string]*commitGroup
	serving   map[string]uint64 // group id → serving epoch, 0 = none

	ops         []Op // forward op list: prepares, commits, retires
	prepares    int
	commits     int
	resumed     bool
	rollingBack bool
	aborted     map[network.SwitchID]bool // rollback aborts already done
	unchanged   int
	phStart     time.Time
}

// New diffs old → next and prepares (or resumes) a transactional
// rollout between them.
func New(old, next *deploy.Deployment, opts Options) (*Rollout, error) {
	if old == nil || old.Plan == nil || next == nil || next.Plan == nil {
		return nil, fmt.Errorf("rollout: nil deployment")
	}
	r := &Rollout{old: old, next: next, opts: opts}
	r.from = opts.FromEpoch
	if r.from == 0 {
		r.from = 1
	}
	r.to = r.from + 1
	if opts.Journal != nil {
		r.from, r.to = opts.Journal.From, opts.Journal.To
		r.resumed = true
	}
	fp := fingerprint(old, next, r.from, r.to)
	if opts.Journal != nil && opts.Journal.Fingerprint != fp {
		return nil, fmt.Errorf("rollout: journal fingerprint %016x does not match deployments (%016x)", opts.Journal.Fingerprint, fp)
	}

	r.pol = opts.Retry
	if r.pol.Attempts == 0 && r.pol.Backoff == 0 && r.pol.Sleep == nil {
		r.pol.Attempts = 3
		r.pol.Backoff = 2 * time.Millisecond
	}
	if r.pol.Attempts < 1 {
		r.pol.Attempts = 1
	}
	if r.pol.Backoff <= 0 {
		r.pol.Backoff = 2 * time.Millisecond
	}
	if r.pol.Ctx == nil {
		r.pol.Ctx = opts.Ctx
	}

	r.fab = opts.Fabric
	if r.fab == nil {
		mf := NewMemFabric(opts.Topo)
		mf.Bootstrap(old, r.from)
		r.fab = mf
	}

	r.groups, r.progGroup = buildGroups(old, next, r.to)
	r.serving = make(map[string]uint64, len(r.groups))
	for _, g := range r.groups {
		g.initial = 0
		for _, p := range g.progs {
			if servedBy(old.Plan, p) {
				g.initial = r.from
				break
			}
		}
		r.serving[g.id] = g.initial
	}

	r.buildOps()
	r.countUnchanged()

	if opts.Journal != nil {
		if err := r.reconcile(opts.Journal); err != nil {
			return nil, err
		}
		r.j = opts.Journal
	} else {
		r.j = &Journal{From: r.from, To: r.to, Fingerprint: fp}
	}
	return r, nil
}

// buildOps lays out the forward op sequence: stage every new-plan
// switch, flip every group, retire every old-plan switch.
func (r *Rollout) buildOps() {
	seq := 0
	for _, sw := range r.next.Plan.UsedSwitches() {
		r.ops = append(r.ops, Op{Seq: seq, Kind: OpPrepare, Switch: sw, Epoch: r.to})
		seq++
	}
	r.prepares = len(r.ops)
	for _, g := range r.groups {
		r.ops = append(r.ops, Op{Seq: seq, Kind: OpCommit, Group: g.id, Epoch: g.epoch})
		seq++
	}
	r.commits = len(r.groups)
	for _, sw := range r.old.Plan.UsedSwitches() {
		r.ops = append(r.ops, Op{Seq: seq, Kind: OpRetire, Switch: sw, Epoch: r.from})
		seq++
	}
}

// countUnchanged counts new-plan switches whose MAT footprint is
// identical to their old-plan one — informational; staging is uniform.
func (r *Rollout) countUnchanged() {
	type slot struct {
		sw         network.SwitchID
		start, end int
	}
	oldAt := map[network.SwitchID]map[string]slot{}
	for name, sp := range r.old.Plan.Assignments {
		m := oldAt[sp.Switch]
		if m == nil {
			m = map[string]slot{}
			oldAt[sp.Switch] = m
		}
		m[name] = slot{sp.Switch, sp.Start, sp.End}
	}
	newAt := map[network.SwitchID]map[string]slot{}
	for name, sp := range r.next.Plan.Assignments {
		m := newAt[sp.Switch]
		if m == nil {
			m = map[string]slot{}
			newAt[sp.Switch] = m
		}
		m[name] = slot{sp.Switch, sp.Start, sp.End}
	}
	for sw, nm := range newAt {
		om := oldAt[sw]
		if len(om) != len(nm) {
			continue
		}
		same := true
		for name, s := range nm {
			if om[name] != s {
				same = false
				break
			}
		}
		if same {
			r.unchanged++
		}
	}
}

// reconcile replays a resumed journal against the regenerated op list:
// the leading entries must match the forward ops one-for-one; any tail
// beyond that must be rollback ops (aborts and unflip commits). Done
// commits re-apply their serving flips.
func (r *Rollout) reconcile(j *Journal) error {
	r.aborted = map[network.SwitchID]bool{}
	for i, e := range j.Entries {
		if !r.rollingBack && i < len(r.ops) && e.Seq == i && sameOp(e.Op, r.ops[i]) {
			if e.Kind == OpCommit && e.Status == StatusDone {
				r.serving[e.Group] = e.Epoch
			}
			continue
		}
		// Rollback tail: everything from the first divergence on must
		// be an abort or an unflip commit.
		r.rollingBack = true
		switch {
		case e.Kind == OpAbort && e.Epoch == r.to:
			if e.Status == StatusDone {
				r.aborted[e.Switch] = true
			}
		case e.Kind == OpCommit:
			if _, ok := r.serving[e.Group]; !ok {
				return fmt.Errorf("rollout: journal entry %d names unknown group %q", i, e.Group)
			}
			if e.Status == StatusDone {
				r.serving[e.Group] = e.Epoch
			}
		default:
			return fmt.Errorf("rollout: journal entry %d (%s) does not match regenerated op list", i, e.Op.String())
		}
	}
	return nil
}

func sameOp(a, b Op) bool {
	return a.Seq == b.Seq && a.Kind == b.Kind && a.Switch == b.Switch && a.Group == b.Group && a.Epoch == b.Epoch
}

// Journal exposes the live op journal; Format it after an interrupt to
// persist resumable state.
func (r *Rollout) Journal() *Journal { return r.j }

// View returns the live serving state (group → epoch) the invariant
// checks run against.
func (r *Rollout) View() *ServingView { return &ServingView{r: r} }

func (r *Rollout) ctx() context.Context {
	if r.opts.Ctx != nil {
		return r.opts.Ctx
	}
	return context.Background()
}

func (r *Rollout) liveTopo() *network.Topology {
	if r.opts.Topo != nil {
		return r.opts.Topo
	}
	return r.next.Plan.Topo
}

func (r *Rollout) planFor(epoch uint64) *placement.Plan {
	switch epoch {
	case r.from:
		return r.old.Plan
	case r.to:
		return r.next.Plan
	}
	return nil
}

// jittered spreads backoff by a deterministic ±50% derived from the
// seed, op seq, and attempt (splitmix64), so synchronized retries
// against one recovering switch fan out without any global RNG.
func (r *Rollout) jittered(d time.Duration, seq, attempt int) time.Duration {
	x := uint64(r.opts.JitterSeed) ^ uint64(seq)<<32 ^ uint64(attempt)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	frac := float64(x%1024)/1024.0 - 0.5 // [-0.5, 0.5)
	return d + time.Duration(frac*float64(d))
}

// gate pre-flights the new plan before any op is issued: it must
// validate against its resource/fault snapshot, its footprint must be
// alive on the live topology, and (optionally) the equivalence checker
// must prove it.
func (r *Rollout) gate() error {
	rm := program.DefaultResourceModel
	if r.opts.ResourceModel != nil {
		rm = *r.opts.ResourceModel
	}
	if err := r.next.Plan.Validate(rm, 0, 0); err != nil {
		return fmt.Errorf("rollout: new plan invalid: %w", err)
	}
	if topo := r.liveTopo(); topo != r.next.Plan.Topo {
		for _, sw := range r.next.Plan.UsedSwitches() {
			if topo.SwitchIsDown(sw) {
				return fmt.Errorf("rollout: new plan hosts MATs on switch %d, down on live topology: %w", sw, deploy.ErrSwitchDown)
			}
		}
		for key, path := range r.next.Plan.Routes {
			for i, sw := range path.Switches {
				if topo.SwitchIsDown(sw) {
					return fmt.Errorf("rollout: new plan route %v transits down switch %d", key, sw)
				}
				if i > 0 && topo.LinkIsDown(path.Switches[i-1], sw) {
					return fmt.Errorf("rollout: new plan route %v uses down link %d-%d", key, path.Switches[i-1], sw)
				}
			}
		}
	}
	if r.opts.Equiv {
		if err := deploy.ProveEquivalent(r.next); err != nil {
			return fmt.Errorf("rollout: equivalence gate: %w", err)
		}
	}
	return nil
}

// Execute runs (or resumes) the rollout to a terminal outcome. The
// returned Report is non-nil whenever a rollout was attempted; on
// error it records how far things got. Error classes: ErrInterrupted
// (resume with the journal), ErrRolledBack (old plan serving), or a
// degraded-outcome error when rollback was impeded.
func (r *Rollout) Execute() (*Report, error) {
	rep := &Report{
		FromEpoch:         r.from,
		ToEpoch:           r.to,
		Groups:            len(r.groups),
		Resumed:           r.resumed,
		PreparedSwitches:  r.prepares,
		UnchangedSwitches: r.unchanged,
		RetiredSwitches:   len(r.ops) - r.prepares - r.commits,
	}
	start := time.Now()
	defer func() {
		rep.TotalMs = float64(time.Since(start)) / float64(time.Millisecond)
		for _, ph := range rep.Phases {
			rep.Ops += ph.Ops
			rep.Retries += ph.Retries
		}
		for _, g := range r.groups {
			if g.epoch != 0 && r.serving[g.id] == r.to {
				rep.CommittedGroups++
			} else if g.epoch == 0 && g.initial != 0 && r.serving[g.id] == 0 {
				// withdrawn group whose flip-to-none committed
				if r.forwardCommitDone(g.id) {
					rep.CommittedGroups++
				}
			}
		}
	}()

	if r.rollingBack {
		// Resuming an interrupted rollback: finish restoring last-good.
		return r.rollback(rep, fmt.Errorf("resumed interrupted rollback"))
	}

	if err := r.gate(); err != nil {
		if r.resumed && r.anyStaged() {
			return r.rollback(rep, err)
		}
		rep.Outcome = OutcomeRolledBack
		return rep, fmt.Errorf("%w: %v", ErrRolledBack, err)
	}

	// Phase 1: prepare — stage the new epoch on every new-plan switch.
	ph := r.phase(rep, "prepare")
	for i := 0; i < r.prepares; i++ {
		e := r.forwardEntry(i)
		if e.Status == StatusDone {
			continue
		}
		op := e.Op
		err := r.applyOp("prepare", ph, e, func() error { return r.fab.Apply(r.ctx(), op) })
		if err != nil {
			if errors.Is(err, ErrInterrupted) {
				return r.interrupted(rep, err)
			}
			r.sealPhase(rep)
			return r.rollback(rep, err)
		}
	}
	r.sealPhase(rep)

	// Phase 2: commit — flip each group's serving epoch atomically.
	ph = r.phase(rep, "commit")
	for i := 0; i < r.commits; i++ {
		g := r.groups[i]
		e := r.forwardEntry(r.prepares + i)
		if e.Status == StatusDone {
			continue
		}
		op := e.Op
		err := r.applyOp("commit", ph, e, func() error { return r.commitOnce(g, op) })
		if err != nil {
			if errors.Is(err, ErrInterrupted) {
				return r.interrupted(rep, err)
			}
			r.sealPhase(rep)
			return r.rollback(rep, err)
		}
		r.serving[g.id] = g.epoch
	}
	r.sealPhase(rep)

	// All groups now serve the new plan: rebind the controller. A
	// refusal (the plan went invalid under our feet) rolls back.
	if r.opts.Ctrl != nil {
		if err := r.opts.Ctrl.Rebind(r.next); err != nil {
			return r.rollback(rep, err)
		}
	}

	// Phase 3: retire — drop the old epoch. Failures here never
	// endanger serving state: quarantine the switch and move on.
	ph = r.phase(rep, "retire")
	for i := r.prepares + r.commits; i < len(r.ops); i++ {
		e := r.forwardEntry(i)
		if e.Status == StatusDone {
			continue
		}
		op := e.Op
		err := r.applyOp("retire", ph, e, func() error { return r.fab.Apply(r.ctx(), op) })
		if err != nil {
			if errors.Is(err, ErrInterrupted) {
				return r.interrupted(rep, err)
			}
			rep.QuarantinedSwitches = append(rep.QuarantinedSwitches, op.Switch)
		}
	}
	r.sealPhase(rep)

	rep.Outcome = OutcomeCommitted
	return rep, nil
}

// commitOnce validates the flip's preconditions — every switch hosting
// the group in the target plan is up and holds the target epoch — then
// acknowledges the commit on the fabric. Withdrawn groups (epoch 0)
// have nothing to validate.
func (r *Rollout) commitOnce(g *commitGroup, op Op) error {
	if g.epoch != 0 {
		topo := r.liveTopo()
		for _, sw := range hostsOf(r.next.Plan, g.progs) {
			if topo.SwitchIsDown(sw) {
				return fmt.Errorf("rollout: commit %q: hosting switch %d: %w", g.id, sw, deploy.ErrSwitchDown)
			}
			if !r.fab.Installed(sw, r.to) {
				return fmt.Errorf("rollout: commit %q: switch %d lost staged epoch %d: %w", g.id, sw, r.to, deploy.ErrSwitchDown)
			}
		}
	}
	return r.fab.Apply(r.ctx(), op)
}

// rollback restores the last-good plan: unflip every committed group
// (newest first), then abort staged new-epoch configs. A group whose
// old footprint is no longer viable is quarantined-and-degraded: it
// keeps serving the epoch it has, and the staged configs backing it
// are kept. Aborts that fail quarantine the switch.
func (r *Rollout) rollback(rep *Report, cause error) (*Report, error) {
	ph := r.phase(rep, "rollback")
	if r.aborted == nil {
		r.aborted = map[network.SwitchID]bool{}
	}
	for i := len(r.groups) - 1; i >= 0; i-- {
		g := r.groups[i]
		if r.serving[g.id] == g.initial {
			continue
		}
		op := Op{Seq: r.nextSeq(), Kind: OpCommit, Group: g.id, Epoch: g.initial}
		e := r.j.append(op)
		err := r.applyOp("rollback", ph, e, func() error { return r.unflipOnce(g, op) })
		if err != nil {
			if errors.Is(err, ErrInterrupted) {
				return r.interrupted(rep, err)
			}
			rep.DegradedGroups = append(rep.DegradedGroups, g.id)
			continue
		}
		r.serving[g.id] = g.initial
	}

	for i := 0; i < r.prepares; i++ {
		fe := r.existingForward(i)
		if fe == nil || fe.Status != StatusDone {
			continue // never staged
		}
		sw := fe.Switch
		if r.aborted[sw] {
			continue
		}
		if r.epochInUse(r.to, sw) {
			continue // a degraded group still serves the new epoch here
		}
		op := Op{Seq: r.nextSeq(), Kind: OpAbort, Switch: sw, Epoch: r.to}
		e := r.j.append(op)
		err := r.applyOp("rollback", ph, e, func() error { return r.fab.Apply(r.ctx(), op) })
		if err != nil {
			if errors.Is(err, ErrInterrupted) {
				return r.interrupted(rep, err)
			}
			rep.QuarantinedSwitches = append(rep.QuarantinedSwitches, sw)
			continue
		}
		r.aborted[sw] = true
		rep.RolledBackSwitches = append(rep.RolledBackSwitches, sw)
	}
	r.sealPhase(rep)

	if len(rep.DegradedGroups) > 0 {
		rep.Outcome = OutcomeDegraded
		return rep, fmt.Errorf("rollout: degraded, %d groups pinned to a surviving epoch (cause: %v)", len(rep.DegradedGroups), cause)
	}
	rep.Outcome = OutcomeRolledBack
	return rep, fmt.Errorf("%w: %v", ErrRolledBack, cause)
}

// unflipOnce flips a group back to its initial epoch after checking
// the old footprint is still viable.
func (r *Rollout) unflipOnce(g *commitGroup, op Op) error {
	if g.initial != 0 {
		topo := r.liveTopo()
		for _, sw := range hostsOf(r.old.Plan, g.progs) {
			if topo.SwitchIsDown(sw) {
				return fmt.Errorf("rollout: unflip %q: old hosting switch %d: %w", g.id, sw, deploy.ErrSwitchDown)
			}
			if !r.fab.Installed(sw, r.from) {
				return fmt.Errorf("rollout: unflip %q: switch %d lost epoch %d: %w", g.id, sw, r.from, deploy.ErrSwitchDown)
			}
		}
	}
	return r.fab.Apply(r.ctx(), op)
}

// applyOp drives one journaled op through the retry policy. nil means
// done; an ErrInterrupted-wrapped error means stop now (entry stays
// pending); anything else marks the entry failed after exhausting
// retries (only deploy.ErrSwitchDown failures are retried).
func (r *Rollout) applyOp(phase string, ph *PhaseReport, e *Entry, do func() error) error {
	if r.opts.Hook != nil {
		r.opts.Hook(phase, e.Op, r.View())
	}
	ph.Ops++
	backoff := r.pol.Backoff
	var err error
	for i := 0; i < r.pol.Attempts; i++ {
		if i > 0 {
			ph.Retries++
			if werr := r.pol.Wait(r.jittered(backoff, e.Seq, i)); werr != nil {
				return fmt.Errorf("%w: backoff cancelled: %v (last failure: %v)", ErrInterrupted, werr, err)
			}
			backoff *= 2
		}
		err = do()
		e.Attempts++
		if err == nil {
			e.Status = StatusDone
			return nil
		}
		if errors.Is(err, ErrInterrupted) {
			return err
		}
		if ctx := r.opts.Ctx; ctx != nil && ctx.Err() != nil {
			return fmt.Errorf("%w: %v", ErrInterrupted, ctx.Err())
		}
		if !errors.Is(err, deploy.ErrSwitchDown) {
			break
		}
	}
	e.Status = StatusFailed
	ph.Failures++
	return err
}

// forwardEntry returns the journal entry for forward op i, appending a
// fresh pending one the first time the op is reached.
func (r *Rollout) forwardEntry(i int) *Entry {
	if e := r.existingForward(i); e != nil {
		return e
	}
	return r.j.append(r.ops[i])
}

// existingForward returns forward op i's journal entry if it was ever
// issued (entries are a dense prefix of the forward op list).
func (r *Rollout) existingForward(i int) *Entry {
	if i < len(r.j.Entries) && r.j.Entries[i].Seq == i && sameOp(r.j.Entries[i].Op, r.ops[i]) {
		return r.j.Entries[i]
	}
	return nil
}

func (r *Rollout) forwardCommitDone(group string) bool {
	for i := 0; i < r.commits; i++ {
		if e := r.existingForward(r.prepares + i); e != nil && e.Group == group {
			return e.Status == StatusDone
		}
	}
	return false
}

func (r *Rollout) nextSeq() int {
	if n := len(r.j.Entries); n > 0 {
		return r.j.Entries[n-1].Seq + 1
	}
	return 0
}

func (r *Rollout) anyStaged() bool {
	for i := 0; i < r.prepares; i++ {
		if e := r.existingForward(i); e != nil && e.Status == StatusDone {
			return true
		}
	}
	return false
}

// epochInUse reports whether any group currently serves epoch through
// MATs hosted on sw.
func (r *Rollout) epochInUse(epoch uint64, sw network.SwitchID) bool {
	plan := r.planFor(epoch)
	if plan == nil {
		return false
	}
	for _, g := range r.groups {
		if r.serving[g.id] != epoch {
			continue
		}
		for _, host := range hostsOf(plan, g.progs) {
			if host == sw {
				return true
			}
		}
	}
	return false
}

func (r *Rollout) phase(rep *Report, name string) *PhaseReport {
	rep.Phases = append(rep.Phases, PhaseReport{Name: name})
	r.phStart = time.Now()
	return &rep.Phases[len(rep.Phases)-1]
}

func (r *Rollout) sealPhase(rep *Report) {
	if len(rep.Phases) == 0 || r.phStart.IsZero() {
		return
	}
	ph := &rep.Phases[len(rep.Phases)-1]
	ph.Ms = float64(time.Since(r.phStart)) / float64(time.Millisecond)
	r.phStart = time.Time{}
}

func (r *Rollout) interrupted(rep *Report, err error) (*Report, error) {
	r.sealPhase(rep)
	rep.Outcome = OutcomeInterrupted
	return rep, err
}

// ServingView answers "which plan serves this program right now" — the
// observable the make-before-break invariant is stated over.
type ServingView struct {
	r *Rollout
}

// GroupOf names the commit group serving prog ("" if unknown).
func (v *ServingView) GroupOf(prog string) string {
	if g := v.r.progGroup[prog]; g != nil {
		return g.id
	}
	return ""
}

// EpochOf returns prog's serving epoch; 0 means the program is not
// being served (withdrawn, or added but not yet committed).
func (v *ServingView) EpochOf(prog string) uint64 {
	g := v.r.progGroup[prog]
	if g == nil {
		return 0
	}
	e := v.r.serving[g.id]
	if e == 0 {
		return 0
	}
	if plan := v.r.planFor(e); plan == nil || !servedBy(plan, prog) {
		return 0
	}
	return e
}

// PlanFor returns the plan currently serving prog, or nil.
func (v *ServingView) PlanFor(prog string) (*placement.Plan, uint64) {
	e := v.EpochOf(prog)
	if e == 0 {
		return nil, 0
	}
	return v.r.planFor(e), e
}

// HostsOf returns the switches hosting group's programs' MATs in the
// plan of the given epoch (ascending, nil for an unknown group or an
// epoch neither plan owns — including 0, "serve nothing"). Fault
// harnesses use it to aim injections at the switches a commit op
// actually depends on.
func (v *ServingView) HostsOf(group string, epoch uint64) []network.SwitchID {
	g := v.r.progGroup[group]
	if g == nil {
		return nil
	}
	plan := v.r.planFor(epoch)
	if plan == nil {
		return nil
	}
	return hostsOf(plan, g.progs)
}

// Programs lists every program either plan knows, sorted.
func (v *ServingView) Programs() []string {
	out := make([]string, 0, len(v.r.progGroup))
	for p := range v.r.progGroup {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Mixed reports whether different groups currently serve different
// epochs — legal mid-commit (groups are independent), while a single
// program split across epochs never is.
func (v *ServingView) Mixed() bool {
	seen := uint64(0)
	for _, g := range v.r.groups {
		e := v.r.serving[g.id]
		if e == 0 {
			continue
		}
		if seen == 0 {
			seen = e
		} else if seen != e {
			return true
		}
	}
	return false
}

// CheckInstalled asserts the torn-state invariant against a fabric:
// for every group, every switch hosting the group's MATs in its
// serving plan must hold that plan's epoch. Any miss is a torn state.
func (v *ServingView) CheckInstalled(f Fabric) error {
	for _, g := range v.r.groups {
		e := v.r.serving[g.id]
		if e == 0 {
			continue
		}
		plan := v.r.planFor(e)
		if plan == nil {
			return fmt.Errorf("rollout: group %q serves unknown epoch %d", g.id, e)
		}
		for _, sw := range hostsOf(plan, g.progs) {
			if !f.Installed(sw, e) {
				return fmt.Errorf("rollout: torn state: group %q serves epoch %d but switch %d does not hold it", g.id, e, sw)
			}
		}
	}
	return nil
}
