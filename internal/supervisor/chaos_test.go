package supervisor

import (
	"fmt"
	"testing"

	"github.com/hermes-net/hermes/internal/equiv"
	"github.com/hermes-net/hermes/internal/lint"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/workload"
)

// rawDown lists the switches down in the fault overlay, the ground
// truth the monitor's confirmed view must converge to.
func rawDown(tp *network.Topology) map[network.SwitchID]bool {
	out := map[network.SwitchID]bool{}
	for _, sw := range tp.Switches() {
		if tp.SwitchIsDown(sw.ID) {
			out[sw.ID] = true
		}
	}
	return out
}

// converged reports whether the monitor's confirmed-down view equals
// the raw fault overlay.
func converged(tp *network.Topology, m *Monitor) bool {
	raw := rawDown(tp)
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

// quiesce polls until the monitor has converged on the raw fault state
// and the plan is consistent with it, bounded so a livelock fails fast.
func quiesce(t *testing.T, tp *network.Topology, sup *Supervisor) {
	t.Helper()
	for i := 0; i < 80; i++ {
		res, err := sup.Poll()
		if err != nil {
			t.Fatalf("quiesce poll: %v", err)
		}
		settled := len(res.Down) == 0 && len(res.Up) == 0 &&
			len(res.Shed) == 0 && len(res.Restored) == 0
		if settled && converged(tp, sup.Monitor()) && !sup.PlanBroken() {
			return
		}
	}
	t.Fatalf("supervisor failed to quiesce: rawDown=%v confirmed=%v broken=%v",
		rawDown(tp), sup.Monitor().ConfirmedDown(), sup.PlanBroken())
}

// assertInvariants runs the full oracle stack over the live deployment
// plus the degradation bookkeeping.
func assertInvariants(t *testing.T, sup *Supervisor, progs int) {
	t.Helper()
	dep := sup.Deployment()
	rm := program.DefaultResourceModel
	if err := dep.Plan.Validate(rm, 0, 0); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if err := lint.CheckPlanOracle(dep.Plan, rm, 0, 0); err != nil {
		t.Fatalf("lint oracle: %v", err)
	}
	if err := dep.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// Symbolic equivalence gate: every adopted deployment — cold solve,
	// incremental repair, or degraded rebuild — must stay provably
	// equivalent to the single-box reference pipeline.
	if err := equiv.CheckDeployment(nil, dep); err != nil {
		t.Fatalf("equiv: %v", err)
	}
	// Degradation bookkeeping: active + shed partition the workload,
	// and every currently-shed program has a recorded shed event.
	rep := sup.Report()
	if got := len(sup.active()) + len(rep.Shed); got != progs {
		t.Fatalf("active(%d) + shed(%d) != %d programs", len(sup.active()), len(rep.Shed), progs)
	}
	for _, name := range rep.Shed {
		found := false
		for _, ev := range rep.Events {
			if ev.Program == name && ev.Shed {
				found = true
			}
		}
		if !found {
			t.Fatalf("shed program %q missing from the degradation report", name)
		}
	}
}

// TestChaosSchedules drives the supervisor through long seeded fault
// schedules on three Table III WAN topologies, asserting after every
// event that the live deployment passes Plan.Validate, the lint
// differential oracle, and deploy.Verify, and that the degradation
// report accounts for every program.
func TestChaosSchedules(t *testing.T) {
	events := 50
	if testing.Short() {
		events = 12
	}
	for _, ti := range []int{1, 2, 3} {
		ti := ti
		t.Run(fmt.Sprintf("tableIII-%d", ti), func(t *testing.T) {
			// Tight stages spread the workload over several switches so
			// fault events regularly strand MATs and cut routes; full
			// Tofino capacity would pack everything onto one switch and
			// the schedule would rarely touch the plan.
			spec := network.TofinoSpec()
			spec.StageCapacity = 0.05
			tp, err := network.TableIII(ti, spec)
			if err != nil {
				t.Fatal(err)
			}
			progs, err := workload.EvaluationPrograms(6, 42)
			if err != nil {
				t.Fatal(err)
			}
			sup, err := New(progs, tp, Options{
				Monitor: MonitorOptions{
					Window: 2, FailThreshold: 2, RecoverThreshold: 1,
					BackoffMax: 2, Seed: int64(ti),
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			// MinUpProgrammable 3 keeps every schedule prefix survivable:
			// even fully degraded, one program fits on three switches.
			sched, err := network.GenerateSchedule(tp, network.ScheduleOptions{
				Seed:              200,
				Events:            events,
				MinUpProgrammable: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(sched.Events) < events {
				t.Fatalf("schedule has %d events, want >= %d", len(sched.Events), events)
			}
			for i, ev := range sched.Events {
				if err := ev.Apply(tp); err != nil {
					t.Fatalf("event %d (%s): %v", i, ev, err)
				}
				quiesce(t, tp, sup)
				assertInvariants(t, sup, len(progs))
			}
			// Schedules end fully healed: nothing may remain shed.
			if down := rawDown(tp); len(down) != 0 {
				t.Fatalf("schedule left faults standing: %v", down)
			}
			if shed := sup.Report().Shed; len(shed) != 0 {
				t.Errorf("fully healed topology left programs shed: %v", shed)
			}
			// The full schedule must actually have exercised the recovery
			// machinery, or the invariant checks above proved nothing.
			// (The -short prefix is too brief to guarantee a hit.)
			if st := sup.Stats(); !testing.Short() && st.Replans == 0 {
				t.Errorf("chaos schedule never triggered a replan: %+v", st)
			}
		})
	}
}
