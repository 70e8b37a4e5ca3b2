package deploy

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
)

// compiled3 is compiled(t) on a 3-switch chain, leaving capacity
// headroom so a single switch failure stays repairable.
func compiled3(t *testing.T) (*Deployment, *placement.Plan) {
	t.Helper()
	g, err := analyzer.Analyze([]*program.Program{pipelineProgram(t)}, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tp := network.NewTopology("tb3")
	for i := 0; i < 3; i++ {
		tp.AddSwitch(network.Switch{
			Programmable: true, Stages: 1, StageCapacity: 0.5,
			TransitLatency: time.Microsecond,
		})
	}
	// A ring, so the survivors stay connected whichever switch fails.
	for i := 0; i < 3; i++ {
		if err := tp.AddLink(network.SwitchID(i), network.SwitchID((i+1)%3), time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := (placement.Greedy{}).Solve(g, tp, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Compile(plan, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return dep, plan
}

// TestControllerRebindAfterRedeploy is the stale-host regression: the
// controller's MAT→switch map was precomputed at construction and
// never updated, so rule installs after a redeploy routed to the old
// hosting switch. Rebind must atomically swap both the deployment and
// the host map.
func TestControllerRebindAfterRedeploy(t *testing.T) {
	dep, plan := compiled3(t)
	ctl, err := NewController(dep)
	if err != nil {
		t.Fatal(err)
	}
	oldHost, err := ctl.HostingSwitch("p/count")
	if err != nil {
		t.Fatal(err)
	}

	// Fail the hosting switch and redeploy around it.
	if err := plan.Topo.SetSwitchDown(oldHost); err != nil {
		t.Fatal(err)
	}
	next, _, err := Redeploy(dep, nil, placement.ReplanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	newHost, ok := next.Plan.SwitchOf("p/count")
	if !ok {
		t.Fatal("p/count missing from redeployed plan")
	}
	if newHost == oldHost {
		t.Fatalf("redeploy left p/count on the down switch %d", oldHost)
	}

	// Without Rebind the controller still reports the stale host (the
	// bug this guards against); after Rebind it must track the move.
	if got, _ := ctl.HostingSwitch("p/count"); got != oldHost {
		t.Fatalf("pre-rebind host = %d, want stale %d", got, oldHost)
	}
	if err := ctl.Rebind(next); err != nil {
		t.Fatal(err)
	}
	if got, _ := ctl.HostingSwitch("p/count"); got != newHost {
		t.Errorf("post-rebind host = %d, want %d", got, newHost)
	}
	// Rule ops now route to the live switch, which is up.
	rule := program.Rule{
		Matches: map[string]program.Pattern{"meta.idx": {Value: 7}},
		Action:  "c",
	}
	if err := ctl.InstallRule("p/count", rule); err != nil {
		t.Fatalf("install after rebind: %v", err)
	}
	if err := ctl.Rebind(nil); err == nil {
		t.Error("rebind to nil deployment accepted")
	}
}

// TestControllerDownSwitch: a rule op against a down hosting switch
// fails with ErrSwitchDown (and only that op's failure carries the
// sentinel), and the same op succeeds once the switch is back up or the
// controller is rebound to a redeployment around it.
func TestControllerDownSwitch(t *testing.T) {
	dep, plan := compiled3(t)
	ctl, err := NewController(dep)
	if err != nil {
		t.Fatal(err)
	}
	host, _ := ctl.HostingSwitch("p/count")
	rule := program.Rule{
		Matches: map[string]program.Pattern{"meta.idx": {Value: 7}},
		Action:  "c",
	}
	if err := ctl.InstallRule("p/count", rule); err != nil {
		t.Fatal(err)
	}

	if err := plan.Topo.SetSwitchDown(host); err != nil {
		t.Fatal(err)
	}
	if err := ctl.InstallRule("p/count", rule); !errors.Is(err, ErrSwitchDown) {
		t.Fatalf("install on down switch = %v, want ErrSwitchDown", err)
	}
	if err := ctl.RemoveRule("p/count", 0); !errors.Is(err, ErrSwitchDown) {
		t.Fatalf("remove on down switch = %v, want ErrSwitchDown", err)
	}
	if err := ctl.InstallRule("nope", rule); err == nil || errors.Is(err, ErrSwitchDown) {
		t.Fatalf("unknown MAT = %v, want a non-ErrSwitchDown error", err)
	}

	// A heal brings the host back.
	if err := plan.Topo.SetSwitchUp(host); err != nil {
		t.Fatal(err)
	}
	if err := ctl.RemoveRule("p/count", 0); err != nil {
		t.Fatalf("remove after heal = %v", err)
	}
	if err := ctl.InstallRule("p/count", rule); err != nil {
		t.Fatalf("install after heal = %v", err)
	}

	// A rebind to a redeployment around the down host.
	if err := plan.Topo.SetSwitchDown(host); err != nil {
		t.Fatal(err)
	}
	next, _, err := Redeploy(dep, nil, placement.ReplanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Rebind(next); err != nil {
		t.Fatal(err)
	}
	if err := ctl.InstallRule("p/count", rule); err != nil {
		t.Fatalf("install after rebind = %v", err)
	}
	if err := ctl.RemoveRule("p/count", 0); err != nil {
		t.Fatalf("remove after rebind = %v", err)
	}
}

// TestRetryBackoffCancellable is the blocking-sleep regression: a
// backoff wait must return the policy context's error as soon as the
// context is done instead of sleeping out the full wait.
func TestRetryBackoffCancellable(t *testing.T) {
	// Pre-cancelled context: a 10-second wait returns at once.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := (RetryPolicy{Ctx: ctx}).Wait(10 * time.Second); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled wait = %v, want context.Canceled", err)
	}

	// A deadline fires mid-sleep and interrupts the timer itself.
	dctx, dcancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer dcancel()
	if err := (RetryPolicy{Ctx: dctx}).Wait(10 * time.Second); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline wait = %v, want context.DeadlineExceeded", err)
	}

	// A live context leaves the wait to the Sleep hook.
	lctx, lcancel := context.WithCancel(context.Background())
	defer lcancel()
	var slept time.Duration
	pol := RetryPolicy{Ctx: lctx, Sleep: func(d time.Duration) { slept = d }}
	if err := pol.Wait(time.Millisecond); err != nil {
		t.Fatalf("live wait = %v, want nil", err)
	}
	if slept != time.Millisecond {
		t.Fatalf("Sleep hook got %v, want 1ms", slept)
	}
}

// TestRebindRejectsInvalidPlan: Rebind must refuse a deployment whose
// plan no longer validates against the live fault overlay, not just a
// nil one — binding it would route rule ops to dead switches the
// gates already know about.
func TestRebindRejectsInvalidPlan(t *testing.T) {
	dep, plan := compiled3(t)
	ctl, err := NewController(dep)
	if err != nil {
		t.Fatal(err)
	}
	host, _ := dep.Plan.SwitchOf("p/count")
	if err := plan.Topo.SetSwitchDown(host); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Rebind(dep); err == nil {
		t.Fatal("rebind accepted a plan hosting MATs on a down switch")
	}
	// The stale binding survives a rejected rebind untouched, and a
	// heal makes the same deployment acceptable again.
	if got, _ := ctl.HostingSwitch("p/count"); got != host {
		t.Errorf("rejected rebind changed binding to %d", got)
	}
	if err := plan.Topo.SetSwitchUp(host); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Rebind(dep); err != nil {
		t.Errorf("rebind after heal = %v", err)
	}
}
