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

// TestControllerRetryOnDownSwitch exercises the retry loop: a rule op
// against a down hosting switch fails with ErrSwitchDown, retries
// under exponential backoff, and succeeds once the switch heals
// between attempts.
func TestControllerRetryOnDownSwitch(t *testing.T) {
	dep, plan := compiled(t)
	ctl, err := NewController(dep)
	if err != nil {
		t.Fatal(err)
	}
	host, _ := ctl.HostingSwitch("p/count")
	rule := program.Rule{
		Matches: map[string]program.Pattern{"meta.idx": {Value: 7}},
		Action:  "c",
	}

	// No policy: the down switch fails immediately with the sentinel.
	if err := plan.Topo.SetSwitchDown(host); err != nil {
		t.Fatal(err)
	}
	err = ctl.InstallRule("p/count", rule)
	if !errors.Is(err, ErrSwitchDown) {
		t.Fatalf("install on down switch = %v, want ErrSwitchDown", err)
	}

	// With retries: heal during the second backoff sleep; the third
	// attempt succeeds. The injected Sleep records the doubling.
	var sleeps []time.Duration
	ctl.SetRetryPolicy(RetryPolicy{
		Attempts: 4,
		Backoff:  10 * time.Millisecond,
		Sleep: func(d time.Duration) {
			sleeps = append(sleeps, d)
			if len(sleeps) == 2 {
				if err := plan.Topo.SetSwitchUp(host); err != nil {
					t.Error(err)
				}
			}
		},
	})
	if err := ctl.InstallRule("p/count", rule); err != nil {
		t.Fatalf("install with retry = %v, want success after heal", err)
	}
	if len(sleeps) != 2 {
		t.Fatalf("slept %d times, want 2", len(sleeps))
	}
	if sleeps[0] != 10*time.Millisecond || sleeps[1] != 20*time.Millisecond {
		t.Errorf("backoff = %v, want doubling from 10ms", sleeps)
	}

	// Exhausted retries surface the sentinel.
	if err := plan.Topo.SetSwitchDown(host); err != nil {
		t.Fatal(err)
	}
	ctl.SetRetryPolicy(RetryPolicy{Attempts: 2, Backoff: time.Microsecond,
		Sleep: func(time.Duration) {}})
	if err := ctl.InstallRule("p/count", rule); !errors.Is(err, ErrSwitchDown) {
		t.Fatalf("exhausted retries = %v, want ErrSwitchDown", err)
	}

	// Non-retryable errors never loop: unknown MAT fails once.
	calls := 0
	ctl.SetRetryPolicy(RetryPolicy{Attempts: 5, Backoff: time.Microsecond,
		Sleep: func(time.Duration) { calls++ }})
	if err := ctl.InstallRule("nope", rule); err == nil || errors.Is(err, ErrSwitchDown) {
		t.Fatalf("unknown MAT = %v", err)
	}
	if calls != 0 {
		t.Errorf("non-retryable error slept %d times", calls)
	}
}

// TestRetryBackoffCancellable is the blocking-sleep regression: a
// retry loop parked in a long backoff must return as soon as the
// policy's context is done instead of sleeping out the full wait.
func TestRetryBackoffCancellable(t *testing.T) {
	dep, plan := compiled(t)
	ctl, err := NewController(dep)
	if err != nil {
		t.Fatal(err)
	}
	host, _ := ctl.HostingSwitch("p/count")
	if err := plan.Topo.SetSwitchDown(host); err != nil {
		t.Fatal(err)
	}
	rule := program.Rule{
		Matches: map[string]program.Pattern{"meta.idx": {Value: 7}},
		Action:  "c",
	}

	// Pre-cancelled context: the first failed attempt would enter a
	// 10-second backoff; cancellation must cut it to ~nothing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctl.SetRetryPolicy(RetryPolicy{Attempts: 5, Backoff: 10 * time.Second, Ctx: ctx})
	start := time.Now()
	err = ctl.InstallRule("p/count", rule)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled retry blocked %v, want immediate return", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled retry = %v, want context.Canceled", err)
	}

	// A deadline fires mid-sleep and interrupts the timer itself.
	dctx, dcancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer dcancel()
	ctl.SetRetryPolicy(RetryPolicy{Attempts: 5, Backoff: 10 * time.Second, Ctx: dctx})
	start = time.Now()
	err = ctl.InstallRule("p/count", rule)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline retry blocked %v, want ~20ms", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline retry = %v, want context.DeadlineExceeded", err)
	}

	// A live context leaves retry semantics untouched: heal during the
	// first backoff — via the Sleep hook, which runs on the retry
	// goroutine (the fault overlay is caller-serialized) — and the
	// second attempt succeeds.
	lctx, lcancel := context.WithCancel(context.Background())
	defer lcancel()
	healed := false
	ctl.SetRetryPolicy(RetryPolicy{Attempts: 3, Backoff: time.Millisecond, Ctx: lctx,
		Sleep: func(time.Duration) {
			if !healed {
				healed = true
				if err := plan.Topo.SetSwitchUp(host); err != nil {
					t.Error(err)
				}
			}
		}})
	if err = ctl.InstallRule("p/count", rule); err != nil {
		t.Fatalf("install after mid-backoff heal = %v, want success", err)
	}
	if !healed {
		t.Fatal("retry succeeded without ever entering the backoff")
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

// TestRemoveRuleRetries covers the RemoveRule retry surface.
func TestRemoveRuleRetries(t *testing.T) {
	dep, plan := compiled(t)
	ctl, err := NewController(dep)
	if err != nil {
		t.Fatal(err)
	}
	rule := program.Rule{
		Matches: map[string]program.Pattern{"meta.idx": {Value: 7}},
		Action:  "c",
	}
	if err := ctl.InstallRule("p/count", rule); err != nil {
		t.Fatal(err)
	}
	host, _ := ctl.HostingSwitch("p/count")
	if err := plan.Topo.SetSwitchDown(host); err != nil {
		t.Fatal(err)
	}
	if err := ctl.RemoveRule("p/count", 0); !errors.Is(err, ErrSwitchDown) {
		t.Fatalf("remove on down switch = %v, want ErrSwitchDown", err)
	}
	healed := false
	ctl.SetRetryPolicy(RetryPolicy{Attempts: 3, Backoff: time.Microsecond,
		Sleep: func(time.Duration) {
			if !healed {
				healed = true
				if err := plan.Topo.SetSwitchUp(host); err != nil {
					t.Error(err)
				}
			}
		}})
	if err := ctl.RemoveRule("p/count", 0); err != nil {
		t.Fatalf("remove with retry = %v", err)
	}
}
