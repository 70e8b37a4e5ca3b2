package deploy

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
)

// ErrSwitchDown marks a rule operation that failed because the MAT's
// hosting switch is marked down in the deployment topology's fault
// state. The condition is transient — a supervised redeploy moves the
// MAT, or a heal brings the switch back — so a caller may retry the op
// once the controller is rebound or the switch is up.
var ErrSwitchDown = errors.New("deploy: hosting switch is down")

// RetryPolicy bounds a retry loop for operations that fail with
// ErrSwitchDown: the rollout engine's per-op attempts.
type RetryPolicy struct {
	// Attempts is the total number of tries; values below 1 mean a
	// single attempt (no retry).
	Attempts int
	// Backoff is the wait before the first retry, doubling on each
	// subsequent one.
	Backoff time.Duration
	// Ctx, when non-nil, makes backoff sleeps cancellable: once the
	// context is done Wait returns the context's error instead of
	// blocking out the full backoff. nil means sleeps run to term.
	Ctx context.Context
	// Sleep replaces the backoff wait in tests; nil means a timer
	// honoring Ctx.
	Sleep func(time.Duration)
}

// Wait blocks for d or until the policy's context is done, whichever
// comes first, returning the context error in the latter case. A
// custom Sleep hook takes precedence (tests inject virtual time) but
// an already-cancelled context still short-circuits it. The rollout
// engine's op retries use this instead of time.Sleep so cancellation
// cuts backoff short.
func (p RetryPolicy) Wait(d time.Duration) error {
	ctx := p.Ctx
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if p.Sleep != nil {
		p.Sleep(d)
		return nil
	}
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Controller is the runtime side of the backend (paper §VI-A: "at
// runtime, it invokes the network controller"): it installs and removes
// user rules on deployed MATs, routing each update to the switch that
// hosts the table and enforcing the table's capacity C_a. It is safe
// for concurrent use.
type Controller struct {
	mu sync.Mutex
	// dep is the bound deployment; its plan's Assignments say which
	// switch hosts each MAT. Rebind swaps it whole, so a rule op sees
	// either the old binding or the new one, not a mix.
	dep *Deployment
}

// NewController wraps a compiled deployment.
func NewController(dep *Deployment) (*Controller, error) {
	if dep == nil || dep.Plan == nil {
		return nil, fmt.Errorf("deploy: controller over nil deployment")
	}
	return &Controller{dep: dep}, nil
}

// Rebind atomically points the controller at a redeployed deployment
// under one lock acquisition, so rule installs issued after a
// supervised redeploy route to the new hosting switches instead of the
// stale ones.
//
// The target must still validate against its (fault-overlaid)
// topology: a plan whose hosting switches died or whose routes broke
// between solve and adoption is rejected rather than bound, so the
// controller never serves rule ops from a deployment the gates would
// fail. Prefer adopting through rollout.Execute, which stages the swap
// make-before-break; a bare Rebind is the engine's final flip.
func (c *Controller) Rebind(dep *Deployment) error {
	if dep == nil || dep.Plan == nil {
		return fmt.Errorf("deploy: rebind to nil deployment")
	}
	if err := dep.Plan.Validate(program.DefaultResourceModel, 0, 0); err != nil {
		return fmt.Errorf("deploy: rebind rejected, plan invalid against live topology: %w", err)
	}
	c.mu.Lock()
	c.dep = dep
	c.mu.Unlock()
	return nil
}

// hostUp returns the MAT's hosting switch after checking the fault
// overlay; a down host yields ErrSwitchDown. Caller holds the lock.
func (c *Controller) hostUp(mat string) (network.SwitchID, error) {
	sp, ok := c.dep.Plan.Assignments[mat]
	if !ok {
		return 0, fmt.Errorf("deploy: MAT %q is not deployed", mat)
	}
	id := sp.Switch
	if c.dep.Plan.Topo.SwitchIsDown(id) {
		return 0, fmt.Errorf("deploy: MAT %q on switch %d: %w", mat, id, ErrSwitchDown)
	}
	return id, nil
}

// HostingSwitch reports which switch runs the named MAT.
func (c *Controller) HostingSwitch(mat string) (network.SwitchID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sp, ok := c.dep.Plan.Assignments[mat]
	if !ok {
		return 0, fmt.Errorf("deploy: MAT %q is not deployed", mat)
	}
	return sp.Switch, nil
}

// lookupMAT returns the live MAT struct shared with the data plane
// engine. Caller holds the lock.
func (c *Controller) lookupMAT(mat string) (*program.MAT, error) {
	node, ok := c.dep.Plan.Graph.Node(mat)
	if !ok {
		return nil, fmt.Errorf("deploy: MAT %q is not deployed", mat)
	}
	return node.MAT, nil
}

// InstallRule adds a rule to the named MAT, enforcing validity and the
// rule capacity C_a. Updates take effect on the next processed packet.
// A down hosting switch fails the op with ErrSwitchDown; a supervised
// Rebind (or a heal) resolves the outage for the next attempt.
func (c *Controller) InstallRule(mat string, r program.Rule) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.hostUp(mat); err != nil {
		return err
	}
	m, err := c.lookupMAT(mat)
	if err != nil {
		return err
	}
	if err := m.ValidateRule(r); err != nil {
		return fmt.Errorf("deploy: %w", err)
	}
	if len(m.Rules) >= m.Capacity {
		return fmt.Errorf("deploy: MAT %q is full (%d/%d rules)", mat, len(m.Rules), m.Capacity)
	}
	m.Rules = append(m.Rules, r)
	return nil
}

// RemoveRule deletes the rule at the given installation index, with the
// same down-switch semantics as InstallRule.
func (c *Controller) RemoveRule(mat string, index int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.hostUp(mat); err != nil {
		return err
	}
	m, err := c.lookupMAT(mat)
	if err != nil {
		return err
	}
	if index < 0 || index >= len(m.Rules) {
		return fmt.Errorf("deploy: MAT %q has no rule %d (have %d)", mat, index, len(m.Rules))
	}
	m.Rules = append(m.Rules[:index], m.Rules[index+1:]...)
	return nil
}

// RuleCount reports how many rules the named MAT holds.
func (c *Controller) RuleCount(mat string) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, err := c.lookupMAT(mat)
	if err != nil {
		return 0, err
	}
	return len(m.Rules), nil
}

// SwitchLoad summarizes one switch's control-plane exposure: how many
// deployed MATs and installed rules it carries (MTP's motivation is
// bounding exactly this).
type SwitchLoad struct {
	Switch network.SwitchID
	MATs   int
	Rules  int
}

// Loads reports the per-switch MAT/rule load, ascending by switch.
func (c *Controller) Loads() []SwitchLoad {
	c.mu.Lock()
	defer c.mu.Unlock()
	agg := map[network.SwitchID]*SwitchLoad{}
	for name, sp := range c.dep.Plan.Assignments {
		l := agg[sp.Switch]
		if l == nil {
			l = &SwitchLoad{Switch: sp.Switch}
			agg[sp.Switch] = l
		}
		l.MATs++
		if node, ok := c.dep.Plan.Graph.Node(name); ok {
			l.Rules += len(node.MAT.Rules)
		}
	}
	out := make([]SwitchLoad, 0, len(agg))
	for _, l := range agg {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Switch < out[j].Switch })
	return out
}
