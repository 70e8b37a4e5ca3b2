package supervisor

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/hermes-net/hermes/internal/deploy/rollout"
	"github.com/hermes-net/hermes/internal/equiv"
	"github.com/hermes-net/hermes/internal/lint"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/workload"
)

// immediate disables confirmation: every raw probe result is acted on.
func immediate() MonitorOptions {
	return MonitorOptions{Window: 1, FailThreshold: 1, RecoverThreshold: 1}
}

// ringTopo builds an n-switch ring of testbed-like switches; a ring
// survives any single switch failure without disconnecting.
func ringTopo(t *testing.T, n int, capacity float64) *network.Topology {
	t.Helper()
	tp := network.NewTopology(fmt.Sprintf("ring%d", n))
	for i := 0; i < n; i++ {
		tp.AddSwitch(network.Switch{
			Name: fmt.Sprintf("sw%d", i), Programmable: true,
			Stages: 12, StageCapacity: capacity,
			TransitLatency: time.Microsecond,
		})
	}
	for i := 0; i < n; i++ {
		if err := tp.AddLink(network.SwitchID(i), network.SwitchID((i+1)%n), time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	return tp
}

// hostOf returns one switch hosting at least one MAT of the live plan.
func hostOf(t *testing.T, s *Supervisor) (string, network.SwitchID) {
	t.Helper()
	for _, name := range s.Deployment().Plan.Graph.NodeNames() {
		if sp, ok := s.Deployment().Plan.Assignments[name]; ok {
			return name, sp.Switch
		}
	}
	t.Fatal("no assignments in live plan")
	return "", 0
}

func requireHealthy(t *testing.T, s *Supervisor) {
	t.Helper()
	dep := s.Deployment()
	if err := dep.Plan.Validate(program.DefaultResourceModel, 0, 0); err != nil {
		t.Fatalf("live plan invalid: %v", err)
	}
	if err := dep.Verify(); err != nil {
		t.Fatalf("live deployment fails verify: %v", err)
	}
}

// TestSupervisorReplansOnConfirmedFailure: a confirmed switch failure
// must trigger an incremental redeploy that moves the stranded MATs,
// rebinds the controller, and leaves a valid deployment.
func TestSupervisorReplansOnConfirmedFailure(t *testing.T) {
	tp := ringTopo(t, 4, 1.0)
	sup, err := New(workload.RealPrograms(), tp, Options{Monitor: immediate()})
	if err != nil {
		t.Fatal(err)
	}
	requireHealthy(t, sup)
	mat, host := hostOf(t, sup)

	if err := tp.SetSwitchDown(host); err != nil {
		t.Fatal(err)
	}
	if !sup.PlanBroken() {
		t.Fatal("downing a hosting switch left PlanBroken false")
	}
	res, err := sup.Poll()
	if err != nil {
		t.Fatalf("poll after failure: %v", err)
	}
	if !res.Replanned {
		t.Fatal("confirmed failure did not trigger a replan")
	}
	if !res.UsedRepair {
		t.Error("single-switch failure did not use the incremental repair path")
	}
	found := false
	for _, m := range res.DirtyMATs {
		if m == mat {
			found = true
		}
	}
	if !found {
		t.Errorf("DirtyMATs = %v, missing stranded MAT %q", res.DirtyMATs, mat)
	}
	if res.RecoveryTime <= 0 {
		t.Error("recovery time not recorded")
	}

	// The new plan avoids the dead switch and the controller follows it.
	for name, sp := range sup.Deployment().Plan.Assignments {
		if sp.Switch == host {
			t.Errorf("MAT %q still assigned to down switch %d", name, host)
		}
	}
	newHost, err := sup.ctrl.HostingSwitch(mat)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := sup.Deployment().Plan.SwitchOf(mat)
	if newHost != want {
		t.Errorf("controller host for %q = %d, want rebound %d", mat, newHost, want)
	}
	if sup.PlanBroken() {
		t.Error("plan still broken after redeploy")
	}
	requireHealthy(t, sup)
	st := sup.Stats()
	if st.Replans != 1 || st.IncrementalReplans != 1 {
		t.Errorf("stats = %+v, want exactly one incremental replan", st)
	}
}

// TestGatedSupervisorHeals: a supervisor that lints and proves every
// deployment it adopts builds and heals a clean workload, and what it
// serves after the heal is lint-clean and proven equivalent.
func TestGatedSupervisorHeals(t *testing.T) {
	tp := ringTopo(t, 4, 1.0)
	opts := Options{Monitor: immediate(), Equiv: true}
	opts.Replan.Lint = true
	sup, err := New(workload.RealPrograms(), tp, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, host := hostOf(t, sup)
	if err := tp.SetSwitchDown(host); err != nil {
		t.Fatal(err)
	}
	res, err := sup.Poll()
	if err != nil {
		t.Fatalf("gated heal: %v", err)
	}
	if !res.Replanned || len(res.Shed) > 0 {
		t.Fatalf("gated heal replanned=%v shed=%v, want a replan that sheds nothing", res.Replanned, res.Shed)
	}
	dep := sup.Deployment()
	if err := lint.LintPlan(dep.Plan, program.DefaultResourceModel, 0, 0).Err(); err != nil {
		t.Errorf("adopted plan fails lint: %v", err)
	}
	if err := equiv.CheckDeployment(nil, dep); err != nil {
		t.Errorf("adopted deployment not proven: %v", err)
	}
}

// TestFlapSuppression is the acceptance check for K-of-N confirmation:
// a flapping switch must trigger strictly fewer replans with
// confirmation enabled than with it disabled.
func TestFlapSuppression(t *testing.T) {
	flapReplans := func(mopts MonitorOptions) int {
		tp := ringTopo(t, 4, 1.0)
		sup, err := New(workload.RealPrograms(), tp, Options{Monitor: mopts})
		if err != nil {
			t.Fatal(err)
		}
		_, host := hostOf(t, sup)
		// Six one-poll blips: down for a single poll, then back up.
		for i := 0; i < 6; i++ {
			if err := tp.SetSwitchDown(host); err != nil {
				t.Fatal(err)
			}
			if _, err := sup.Poll(); err != nil {
				t.Fatalf("flap %d down-poll: %v", i, err)
			}
			if err := tp.SetSwitchUp(host); err != nil {
				t.Fatal(err)
			}
			if _, err := sup.Poll(); err != nil {
				t.Fatalf("flap %d up-poll: %v", i, err)
			}
		}
		requireHealthy(t, sup)
		return sup.Stats().Replans
	}

	disabled := flapReplans(immediate())
	enabled := flapReplans(MonitorOptions{Window: 3, FailThreshold: 3, RecoverThreshold: 1})
	if disabled < 1 {
		t.Fatalf("flapping with confirmation disabled caused %d replans, want >= 1", disabled)
	}
	if enabled >= disabled {
		t.Fatalf("confirmation enabled caused %d replans, want strictly fewer than %d", enabled, disabled)
	}
}

// TestShedFloorKeepsOneProgram: shedding stops at the most important
// program; when even that one does not fit, New fails at the floor
// instead of deploying nothing.
func TestShedFloorKeepsOneProgram(t *testing.T) {
	spec := network.TestbedSpec()
	spec.StageCapacity = 0.001
	tp, err := network.Linear(3, spec)
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(workload.RealPrograms()[:3], tp, Options{Monitor: immediate()})
	if err == nil || !strings.Contains(err.Error(), "shed floor reached (1 programs)") {
		t.Fatalf("New on a topology nothing fits = %v; want the one-program shed floor", err)
	}
}

// TestGracefulDegradationAndRestore: when the reduced topology cannot
// fit the full workload, the supervisor sheds whole programs
// lowest-priority-first (recording each in the report), and restores
// them in priority order once the switch heals.
func TestGracefulDegradationAndRestore(t *testing.T) {
	spec := network.TestbedSpec()
	spec.StageCapacity = 0.15 // RealPrograms ~2.4 switch loads: 3 fit, 2 do not
	tp, err := network.Linear(3, spec)
	if err != nil {
		t.Fatal(err)
	}
	progs := workload.RealPrograms()
	sup, err := New(progs, tp, Options{Monitor: immediate()})
	if err != nil {
		t.Fatal(err)
	}
	if shed := sup.Report().Shed; len(shed) != 0 {
		t.Fatalf("initial deployment shed %v; fixture too tight", shed)
	}

	// Fail an endpoint that hosts MATs (an endpoint keeps the chain
	// connected; the middle switch would partition it).
	var victim network.SwitchID = 2
	hosts := func(id network.SwitchID) bool {
		for _, sp := range sup.Deployment().Plan.Assignments {
			if sp.Switch == id {
				return true
			}
		}
		return false
	}
	if !hosts(victim) {
		victim = 0
	}
	if !hosts(victim) {
		t.Fatal("neither endpoint hosts MATs; fixture broken")
	}
	if err := tp.SetSwitchDown(victim); err != nil {
		t.Fatal(err)
	}

	res, err := sup.Poll()
	if err != nil {
		t.Fatalf("poll after endpoint failure: %v", err)
	}
	if len(res.Shed) == 0 {
		t.Fatal("2-switch residue fit the full workload; expected shedding")
	}
	requireHealthy(t, sup)
	for _, sp := range sup.Deployment().Plan.Assignments {
		if sp.Switch == victim {
			t.Fatalf("degraded plan still uses down switch %d", victim)
		}
	}

	// Shedding is lowest-priority-first: the shed set must be exactly
	// the tail of the priority list.
	rep := sup.Report()
	k := len(rep.Shed)
	shedSet := map[string]bool{}
	for _, name := range rep.Shed {
		shedSet[name] = true
	}
	for _, p := range progs[len(progs)-k:] {
		if !shedSet[p.Name] {
			t.Errorf("shed set %v is not the lowest-priority tail (missing %q)", rep.Shed, p.Name)
		}
	}
	for _, name := range rep.Shed {
		found := false
		for _, ev := range rep.Events {
			if ev.Program == name && ev.Shed && ev.Reason != "" {
				found = true
			}
		}
		if !found {
			t.Errorf("shed program %q has no reasoned shed event", name)
		}
	}
	if got := sup.Stats().ShedPrograms; got != k {
		t.Errorf("ShedPrograms = %d, want %d", got, k)
	}

	// Heal and poll until the up transition is confirmed (backoff may
	// skip a few probes); the restore must bring everything back.
	if err := tp.SetSwitchUp(victim); err != nil {
		t.Fatal(err)
	}
	restored := false
	for i := 0; i < 50 && !restored; i++ {
		res, err := sup.Poll()
		if err != nil {
			t.Fatalf("heal poll: %v", err)
		}
		if len(res.Restored) > 0 {
			restored = true
			// Restores run highest-priority-first.
			idx := func(name string) int {
				for i, p := range progs {
					if p.Name == name {
						return i
					}
				}
				return -1
			}
			for j := 1; j < len(res.Restored); j++ {
				if idx(res.Restored[j-1]) > idx(res.Restored[j]) {
					t.Errorf("restore order %v not highest-priority-first", res.Restored)
				}
			}
		}
	}
	if !restored {
		t.Fatal("healed switch never triggered restoration")
	}
	if shed := sup.Report().Shed; len(shed) != 0 {
		t.Errorf("programs still shed after heal: %v", shed)
	}
	if got := sup.Stats().RestoredPrograms; got != k {
		t.Errorf("RestoredPrograms = %d, want %d", got, k)
	}
	requireHealthy(t, sup)
}

// TestSupervisorFaultDuringRollout is the reentry check: a second
// fault lands while a repair adoption is mid-rollout. The rollout must
// fail closed — roll back (or degrade) without tearing, leaving the
// supervisor on the last-good deployment — and the next poll must
// complete the repair transactionally once the second fault heals.
func TestSupervisorFaultDuringRollout(t *testing.T) {
	tp := ringTopo(t, 5, 1.0)
	var sup *Supervisor
	var victim2 network.SwitchID
	struck := false
	opts := Options{
		Monitor: immediate(),
		RolloutHook: func(phase string, op rollout.Op, view *rollout.ServingView) {
			// First prepare of the first repair rollout: kill the op's
			// own target — a switch the NEW plan depends on — before
			// the op runs, as if it died while the adoption was in
			// flight.
			if !struck && phase == "prepare" {
				struck = true
				victim2 = op.Switch
				if err := tp.SetSwitchDown(victim2); err != nil {
					t.Error(err)
				}
			}
		},
	}
	sup, err := New(workload.RealPrograms(), tp, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireHealthy(t, sup)
	if sup.Epoch() != 1 {
		t.Fatalf("initial epoch = %d, want 1", sup.Epoch())
	}
	mat, hostA := hostOf(t, sup)
	before := sup.Deployment()

	if err := tp.SetSwitchDown(hostA); err != nil {
		t.Fatal(err)
	}
	res, err := sup.Poll()
	if err == nil {
		t.Fatal("poll succeeded though a second fault struck mid-rollout")
	}
	if !struck {
		t.Fatal("rollout hook never fired; adoption did not go through the rollout engine")
	}
	if res.Rollout == nil {
		t.Fatal("poll result carries no rollout report")
	}
	if out := res.Rollout.Outcome; out != rollout.OutcomeRolledBack && out != rollout.OutcomeDegraded {
		t.Fatalf("mid-rollout fault outcome = %q, want rolled-back or degraded", out)
	}
	// Fail closed: still the last-good deployment at the old epoch.
	if sup.Deployment() != before {
		t.Fatal("failed rollout swapped the deployment")
	}
	if sup.Epoch() != 1 {
		t.Fatalf("failed rollout advanced the epoch to %d", sup.Epoch())
	}
	st := sup.Stats()
	if st.Rollouts != 1 {
		t.Fatalf("Rollouts = %d, want 1", st.Rollouts)
	}
	if res.Rollout.Outcome == rollout.OutcomeRolledBack && st.RolledBackRollouts != 1 {
		t.Fatalf("RolledBackRollouts = %d, want 1", st.RolledBackRollouts)
	}
	if st.FailedPolls != 1 {
		t.Fatalf("FailedPolls = %d, want 1", st.FailedPolls)
	}

	// Heal the mid-rollout casualty (hostA stays down); the next poll
	// reruns the repair and the rollout commits.
	if err := tp.SetSwitchUp(victim2); err != nil {
		t.Fatal(err)
	}
	res2, err := sup.Poll()
	if err != nil {
		t.Fatalf("reentry poll: %v", err)
	}
	if !res2.Replanned {
		t.Fatal("reentry poll did not replan")
	}
	if res2.Rollout == nil || res2.Rollout.Outcome != rollout.OutcomeCommitted {
		t.Fatalf("reentry rollout = %+v, want committed", res2.Rollout)
	}
	if sup.Epoch() != 2 {
		t.Fatalf("epoch after committed rollout = %d, want 2", sup.Epoch())
	}
	requireHealthy(t, sup)
	for name, sp := range sup.Deployment().Plan.Assignments {
		if sp.Switch == hostA {
			t.Errorf("MAT %q still on dead switch %d after reentry", name, hostA)
		}
	}
	got, err := sup.ctrl.HostingSwitch(mat)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := sup.Deployment().Plan.SwitchOf(mat); got != want {
		t.Errorf("controller host for %q = %d, want rebound %d", mat, got, want)
	}
	if st := sup.Stats(); st.Rollouts != 2 {
		t.Errorf("Rollouts = %d, want 2", st.Rollouts)
	}
}
