package rollout

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
)

// testProg builds a two-table pipeline (hash → count) with
// program-private field names so the analyzer never merges MATs across
// programs and every commit group stays a singleton.
func testProg(t testing.TB, name string) *program.Program {
	t.Helper()
	idx := fields.Metadata("meta."+name+".idx", 32)
	cnt := fields.Metadata("meta."+name+".cnt", 32)
	src := fields.Header(fields.IPv4Src, 32)
	return program.NewBuilder(name).
		Table("hash", 1).
		ActionDef("h", program.HashOp(idx, src)).
		Default("h").
		Table("count", 1024).
		Key(idx, program.MatchExact).
		ActionDef("c", program.CountOp(cnt, idx)).
		Default("c").
		MustBuild()
}

// fixture deploys nProgs two-MAT programs on an nSw ring sized so each
// program occupies roughly one switch, leaving spare capacity for
// make-before-break moves.
func fixture(t testing.TB, nProgs, nSw int) (*deploy.Deployment, *network.Topology) {
	t.Helper()
	progs := make([]*program.Program, nProgs)
	for i := range progs {
		progs[i] = testProg(t, fmt.Sprintf("p%d", i+1))
	}
	g, err := analyzer.Analyze(progs, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	topo := network.NewTopology("rollout-tb")
	for i := 0; i < nSw; i++ {
		topo.AddSwitch(network.Switch{
			Programmable: true, Stages: 1, StageCapacity: 0.12,
			TransitLatency: time.Microsecond,
		})
	}
	for i := 0; i < nSw; i++ {
		if err := topo.AddLink(network.SwitchID(i), network.SwitchID((i+1)%nSw), time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := (placement.Greedy{}).Solve(g, topo, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := deploy.Compile(plan, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return dep, topo
}

// drained redeploys around the switch hosting prog's count MAT,
// producing the "new plan" side of a rollout.
func drained(t testing.TB, dep *deploy.Deployment, prog string) (*deploy.Deployment, network.SwitchID) {
	t.Helper()
	victim, ok := dep.Plan.SwitchOf(prog + "/count")
	if !ok {
		t.Fatalf("%s/count not placed", prog)
	}
	next, _, err := deploy.Redeploy(dep, nil, placement.ReplanOptions{}, victim)
	if err != nil {
		t.Fatal(err)
	}
	if sw, _ := next.Plan.SwitchOf(prog + "/count"); sw == victim {
		t.Fatalf("drain left %s/count on switch %d", prog, victim)
	}
	return next, victim
}

func quickRetry() deploy.RetryPolicy {
	return deploy.RetryPolicy{Attempts: 2, Backoff: time.Microsecond, Sleep: func(time.Duration) {}}
}

func TestRolloutCommitsCleanly(t *testing.T) {
	old, topo := fixture(t, 3, 6)
	next, _ := drained(t, old, "p3")

	ctl, err := deploy.NewController(old)
	if err != nil {
		t.Fatal(err)
	}
	fab := NewMemFabric(topo)
	fab.Bootstrap(old, 1)

	r, err := New(old, next, Options{Topo: topo, Fabric: fab, Ctrl: ctl, Retry: quickRetry()})
	if err != nil {
		t.Fatal(err)
	}
	// The invariant must hold at every op boundary, not just at the end.
	r.opts.Hook = func(phase string, op Op, view *ServingView) {
		if err := view.CheckInstalled(fab); err != nil {
			t.Fatalf("torn state at %s %s: %v", phase, op.String(), err)
		}
	}
	rep, err := r.Execute()
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if rep.Outcome != OutcomeCommitted {
		t.Fatalf("outcome = %s, want committed", rep.Outcome)
	}
	if rep.Groups != 3 || rep.CommittedGroups != 3 {
		t.Errorf("groups = %d committed = %d, want 3/3", rep.Groups, rep.CommittedGroups)
	}
	if rep.PreparedSwitches != len(next.Plan.UsedSwitches()) {
		t.Errorf("prepared = %d, want %d", rep.PreparedSwitches, len(next.Plan.UsedSwitches()))
	}
	if rep.RetiredSwitches != len(old.Plan.UsedSwitches()) {
		t.Errorf("retired = %d, want %d", rep.RetiredSwitches, len(old.Plan.UsedSwitches()))
	}
	if len(rep.Phases) != 3 {
		t.Errorf("phases = %d, want prepare/commit/retire", len(rep.Phases))
	}

	// Fabric end state: new epoch everywhere the new plan lives, old
	// epoch fully retired.
	for _, sw := range next.Plan.UsedSwitches() {
		if !fab.Installed(sw, 2) {
			t.Errorf("switch %d missing epoch 2", sw)
		}
	}
	for _, sw := range old.Plan.UsedSwitches() {
		if fab.Installed(sw, 1) {
			t.Errorf("switch %d still holds retired epoch 1", sw)
		}
	}
	// Every program serves the new plan; the controller tracked the move.
	view := r.View()
	for _, p := range view.Programs() {
		if e := view.EpochOf(p); e != 2 {
			t.Errorf("program %s serves epoch %d, want 2", p, e)
		}
	}
	wantHost, _ := next.Plan.SwitchOf("p3/count")
	if got, _ := ctl.HostingSwitch("p3/count"); got != wantHost {
		t.Errorf("controller host for p3/count = %d, want %d", got, wantHost)
	}

	// The journal is complete, done, and round-trips through text.
	for _, e := range r.Journal().Entries {
		if e.Status != StatusDone {
			t.Errorf("entry %s left %s", e.Op.String(), e.Status)
		}
	}
	text := r.Journal().Format()
	back, err := ParseJournal(text)
	if err != nil {
		t.Fatalf("ParseJournal: %v", err)
	}
	if back.Format() != text {
		t.Error("journal text does not round-trip")
	}
}

func TestRolloutRollsBackOnPrepareFailure(t *testing.T) {
	old, topo := fixture(t, 3, 6)
	next, _ := drained(t, old, "p3")
	fab := NewMemFabric(topo)
	fab.Bootstrap(old, 1)

	// Kill the second prepare target right before its op lands.
	var prepared int
	var killed network.SwitchID
	r, err := New(old, next, Options{Topo: topo, Fabric: fab, Retry: quickRetry(),
		Hook: func(phase string, op Op, view *ServingView) {
			if phase == "prepare" {
				prepared++
				if prepared == 2 {
					killed = op.Switch
					if err := topo.SetSwitchDown(op.Switch); err != nil {
						t.Fatal(err)
					}
				}
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Execute()
	if !errors.Is(err, ErrRolledBack) {
		t.Fatalf("Execute = %v, want ErrRolledBack", err)
	}
	if rep.Outcome != OutcomeRolledBack {
		t.Fatalf("outcome = %s, want rolled-back", rep.Outcome)
	}
	if rep.CommittedGroups != 0 {
		t.Errorf("committed groups = %d after prepare failure", rep.CommittedGroups)
	}
	// Old plan still serves everything; the one staged switch aborted.
	view := r.View()
	for _, p := range view.Programs() {
		if e := view.EpochOf(p); e != 1 {
			t.Errorf("program %s serves epoch %d, want 1", p, e)
		}
	}
	if err := view.CheckInstalled(fab); err != nil {
		t.Fatalf("rolled-back state torn: %v", err)
	}
	if len(rep.RolledBackSwitches) != 1 {
		t.Errorf("rolled-back switches = %v, want exactly the first prepared one", rep.RolledBackSwitches)
	}
	for _, sw := range next.Plan.UsedSwitches() {
		if sw != killed && fab.Installed(sw, 2) {
			t.Errorf("switch %d still holds staged epoch 2 after rollback", sw)
		}
	}
	// Once the injected fault heals, the last-good plan is gate-green —
	// rollback restored rule state; the outage itself is the
	// supervisor's to repair.
	if err := topo.SetSwitchUp(killed); err != nil {
		t.Fatal(err)
	}
	if err := old.Plan.Validate(program.DefaultResourceModel, 0, 0); err != nil {
		t.Errorf("old plan invalid after rollback: %v", err)
	}
	if err := old.Verify(); err != nil {
		t.Errorf("old deployment fails Verify after rollback: %v", err)
	}
}

func TestRolloutRollsBackOnCommitFailure(t *testing.T) {
	old, topo := fixture(t, 3, 6)
	next, _ := drained(t, old, "p3")
	// p3's MATs moved to a switch the old plan does not use; killing it
	// at p3's commit forces a rollback whose unflips all succeed.
	newHost, _ := next.Plan.SwitchOf("p3/count")
	for _, sw := range old.Plan.UsedSwitches() {
		if sw == newHost {
			t.Fatalf("fixture: p3's new host %d is also an old-plan host", newHost)
		}
	}
	fab := NewMemFabric(topo)
	fab.Bootstrap(old, 1)

	var flips []string
	r, err := New(old, next, Options{Topo: topo, Fabric: fab, Retry: quickRetry(),
		Hook: func(phase string, op Op, view *ServingView) {
			if phase == "commit" {
				flips = append(flips, op.Group)
				if op.Group == "p3" {
					if err := topo.SetSwitchDown(newHost); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := view.CheckInstalled(fab); err != nil {
				t.Fatalf("torn state at %s %s: %v", phase, op.String(), err)
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Execute()
	if !errors.Is(err, ErrRolledBack) {
		t.Fatalf("Execute = %v, want ErrRolledBack", err)
	}
	if rep.Outcome != OutcomeRolledBack {
		t.Fatalf("outcome = %s (degraded groups %v), want rolled-back", rep.Outcome, rep.DegradedGroups)
	}
	if len(flips) != 3 {
		t.Errorf("commit boundaries = %v, want 3", flips)
	}
	// The two committed groups were unflipped; everything serves old.
	view := r.View()
	for _, p := range view.Programs() {
		if e := view.EpochOf(p); e != 1 {
			t.Errorf("program %s serves epoch %d, want 1", p, e)
		}
	}
	if err := view.CheckInstalled(fab); err != nil {
		t.Fatalf("rolled-back state torn: %v", err)
	}
	if rep.CommittedGroups != 0 {
		t.Errorf("committed groups = %d after rollback", rep.CommittedGroups)
	}
	// The dead switch could not drop its staged config: quarantined.
	found := false
	for _, sw := range rep.QuarantinedSwitches {
		if sw == newHost {
			found = true
		}
	}
	if !found {
		t.Errorf("quarantined = %v, want to include dead switch %d", rep.QuarantinedSwitches, newHost)
	}
}

func TestRolloutInterruptAndResume(t *testing.T) {
	old, topo := fixture(t, 3, 6)
	next, _ := drained(t, old, "p3")
	fab := NewMemFabric(topo)
	fab.Bootstrap(old, 1)

	// Cancel mid-commit: after the first group flips.
	ctx, cancel := context.WithCancel(context.Background())
	r, err := New(old, next, Options{Topo: topo, Fabric: fab, Ctx: ctx, Retry: quickRetry(),
		Hook: func(phase string, op Op, view *ServingView) {
			if phase == "commit" && op.Group == "p2" {
				cancel()
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Execute()
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("Execute = %v, want ErrInterrupted", err)
	}
	if rep.Outcome != OutcomeInterrupted {
		t.Fatalf("outcome = %s, want interrupted", rep.Outcome)
	}
	// Mid-rollout state: p1 on the new epoch, the rest still old — mixed
	// across groups is legal, and nothing is torn.
	view := r.View()
	if got := view.EpochOf("p1"); got != 2 {
		t.Errorf("p1 serves %d, want 2", got)
	}
	if got := view.EpochOf("p3"); got != 1 {
		t.Errorf("p3 serves %d, want 1", got)
	}
	if err := view.CheckInstalled(fab); err != nil {
		t.Fatalf("interrupted state torn: %v", err)
	}

	// Resume from the journal's text form on the surviving fabric.
	j, err := ParseJournal(r.Journal().Format())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New(old, next, Options{Topo: topo, Fabric: fab, Journal: j, Retry: quickRetry()})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := r2.Execute()
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if rep2.Outcome != OutcomeCommitted || !rep2.Resumed {
		t.Fatalf("resume outcome = %s resumed=%v, want committed/resumed", rep2.Outcome, rep2.Resumed)
	}
	view = r2.View()
	for _, p := range view.Programs() {
		if e := view.EpochOf(p); e != 2 {
			t.Errorf("program %s serves epoch %d after resume, want 2", p, e)
		}
	}

	// A crashed process can also rebuild fabric state purely from the
	// journal (idempotent replay) and still finish.
	fab3 := NewMemFabric(topo)
	j3, err := ParseJournal(r.Journal().Format())
	if err != nil {
		t.Fatal(err)
	}
	fab3.Replay(j3, old)
	r3, err := New(old, next, Options{Topo: topo, Fabric: fab3, Journal: j3, Retry: quickRetry()})
	if err != nil {
		t.Fatal(err)
	}
	if rep3, err := r3.Execute(); err != nil || rep3.Outcome != OutcomeCommitted {
		t.Fatalf("replayed-fabric resume = %s, %v", rep3.Outcome, err)
	}
}

func TestRolloutJournalFingerprintMismatch(t *testing.T) {
	old, topo := fixture(t, 2, 6)
	next, _ := drained(t, old, "p2")
	r, err := New(old, next, Options{Topo: topo})
	if err != nil {
		t.Fatal(err)
	}
	j := r.Journal()
	j.Fingerprint++
	if _, err := New(old, next, Options{Topo: topo, Journal: j}); err == nil {
		t.Fatal("journal for different plans accepted")
	}
}

func TestRolloutGateRejectsInvalidNewPlan(t *testing.T) {
	old, topo := fixture(t, 3, 6)
	next, _ := drained(t, old, "p3")
	// A fault that lands after the solve but before the rollout: the
	// new plan hosts MATs on a now-dead switch, so the gate refuses
	// before staging anything.
	newHost, _ := next.Plan.SwitchOf("p3/count")
	if err := topo.SetSwitchDown(newHost); err != nil {
		t.Fatal(err)
	}
	fab := NewMemFabric(topo)
	fab.Bootstrap(old, 1)
	r, err := New(old, next, Options{Topo: topo, Fabric: fab, Retry: quickRetry()})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Execute()
	if !errors.Is(err, ErrRolledBack) {
		t.Fatalf("Execute = %v, want ErrRolledBack", err)
	}
	if rep.Ops != 0 {
		t.Errorf("gate failure issued %d ops", rep.Ops)
	}
	view := r.View()
	for _, p := range view.Programs() {
		if e := view.EpochOf(p); e != 1 {
			t.Errorf("program %s serves epoch %d, want 1", p, e)
		}
	}
}

// TestRolloutGateNamesFirstBrokenRoute: with two routes through two
// different down switches, the gate's error names the route first in
// (From, To) order on every run, not whichever the map yields first.
func TestRolloutGateNamesFirstBrokenRoute(t *testing.T) {
	old, topo := fixture(t, 3, 6)
	next, _ := drained(t, old, "p3")
	used := next.Plan.UsedSwitches()
	var idle []network.SwitchID
	for sw := network.SwitchID(0); int(sw) < topo.NumSwitches(); sw++ {
		if _, ok := slices.BinarySearch(used, sw); !ok {
			idle = append(idle, sw)
		}
	}
	if len(idle) < 2 {
		t.Fatalf("need two switches hosting nothing, have %v", idle)
	}
	// Two transit routes, each through one idle switch of the ring,
	// which then fails on the live topology.
	n := network.SwitchID(topo.NumSwitches())
	var keys []placement.RouteKey
	for _, sw := range idle[:2] {
		from, to := (sw+n-1)%n, (sw+1)%n
		key := placement.RouteKey{From: from, To: to}
		next.Plan.Routes[key] = network.Path{Switches: []network.SwitchID{from, sw, to}}
		keys = append(keys, key)
		if err := topo.SetSwitchDown(sw); err != nil {
			t.Fatal(err)
		}
	}
	first := slices.MinFunc(keys, func(a, b placement.RouteKey) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	r, err := New(old, next, Options{Topo: topo, Retry: quickRetry()})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("rollout: new plan route %v transits down switch %d", first, next.Plan.Routes[first].Switches[1])
	for i := 0; i < 20; i++ {
		if err := r.gate(); fmt.Sprint(err) != want {
			t.Fatalf("run %d: gate = %v, want %s", i, err, want)
		}
	}
}

// TestRolloutEquivGateRejectsDroppedCarry: with Equiv set, the gate
// proves the new deployment itself and refuses one whose coordination
// headers no longer carry the metadata its downstream MATs read.
func TestRolloutEquivGateRejectsDroppedCarry(t *testing.T) {
	old, topo := fixture(t, 3, 6)
	next, _ := drained(t, old, "p3")
	dropped := 0
	for _, cfg := range next.Configs {
		for from, hdr := range cfg.Imports {
			dropped += len(hdr.Fields)
			cfg.Imports[from] = deploy.CoordHeader{}
		}
	}
	if dropped == 0 {
		t.Fatal("fixture expects the new deployment to carry metadata across a cut")
	}
	fab := NewMemFabric(topo)
	fab.Bootstrap(old, 1)
	r, err := New(old, next, Options{Topo: topo, Fabric: fab, Retry: quickRetry(), Equiv: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Execute()
	if !errors.Is(err, ErrRolledBack) || !strings.Contains(err.Error(), "[HE004]") {
		t.Fatalf("Execute = %v, want ErrRolledBack with the gate's HE004 finding", err)
	}
	if rep.Ops != 0 {
		t.Errorf("gate failure issued %d ops", rep.Ops)
	}
}

// TestRolloutRetryHealsMidBackoff: a flap — down at the first attempt,
// healed during backoff — must not trigger rollback at all.
func TestRolloutRetryHealsMidBackoff(t *testing.T) {
	old, topo := fixture(t, 3, 6)
	next, _ := drained(t, old, "p3")
	fab := NewMemFabric(topo)
	fab.Bootstrap(old, 1)

	var victim network.SwitchID
	armed := false
	pol := deploy.RetryPolicy{Attempts: 3, Backoff: time.Microsecond,
		Sleep: func(time.Duration) {
			if armed {
				armed = false
				if err := topo.SetSwitchUp(victim); err != nil {
					t.Error(err)
				}
			}
		}}
	r, err := New(old, next, Options{Topo: topo, Fabric: fab, Retry: pol,
		Hook: func(phase string, op Op, view *ServingView) {
			if phase == "prepare" && !armed && victim == 0 && op.Switch != 0 {
				victim = op.Switch
				armed = true
				if err := topo.SetSwitchDown(op.Switch); err != nil {
					t.Fatal(err)
				}
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Execute()
	if err != nil {
		t.Fatalf("Execute = %v, want flap absorbed by retry", err)
	}
	if rep.Outcome != OutcomeCommitted {
		t.Fatalf("outcome = %s, want committed", rep.Outcome)
	}
	if rep.Retries == 0 {
		t.Error("no retries recorded for the flap")
	}
}

func TestRolloutWithdrawAndFreshPrograms(t *testing.T) {
	// Old serves p1+p2; new serves p1+p3: p2 is withdrawn (commits to
	// none), p3 is fresh (starts serving only at its commit).
	p1, p2, p3 := testProg(t, "p1"), testProg(t, "p2"), testProg(t, "p3")
	topo := network.NewTopology("rollout-wd")
	for i := 0; i < 4; i++ {
		topo.AddSwitch(network.Switch{
			Programmable: true, Stages: 1, StageCapacity: 0.12,
			TransitLatency: time.Microsecond,
		})
	}
	for i := 0; i < 4; i++ {
		if err := topo.AddLink(network.SwitchID(i), network.SwitchID((i+1)%4), time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	build := func(progs ...*program.Program) *deploy.Deployment {
		g, err := analyzer.Analyze(progs, analyzer.Options{})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := (placement.Greedy{}).Solve(g, topo, placement.Options{})
		if err != nil {
			t.Fatal(err)
		}
		dep, err := deploy.Compile(plan, analyzer.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return dep
	}
	old := build(p1, p2)
	next := build(p1, p3)

	fab := NewMemFabric(topo)
	fab.Bootstrap(old, 1)
	r, err := New(old, next, Options{Topo: topo, Fabric: fab, Retry: quickRetry(),
		Hook: func(phase string, op Op, view *ServingView) {
			if err := view.CheckInstalled(fab); err != nil {
				t.Fatalf("torn at %s %s: %v", phase, op.String(), err)
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Execute()
	if err != nil || rep.Outcome != OutcomeCommitted {
		t.Fatalf("Execute = %s, %v", rep.Outcome, err)
	}
	view := r.View()
	if e := view.EpochOf("p1"); e != 2 {
		t.Errorf("p1 serves %d, want 2", e)
	}
	if e := view.EpochOf("p2"); e != 0 {
		t.Errorf("withdrawn p2 serves %d, want 0", e)
	}
	if e := view.EpochOf("p3"); e != 2 {
		t.Errorf("fresh p3 serves %d, want 2", e)
	}
}

// Programs lists every program either plan knows, sorted.
func (v *ServingView) Programs() []string {
	out := make([]string, 0, len(v.r.progGroup))
	for p := range v.r.progGroup {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}
