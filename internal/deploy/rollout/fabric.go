package rollout

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/network"
)

// ErrInterrupted marks a rollout cut short mid-flight — by context
// cancellation or by a fabric that lost its control channel. The
// engine stops issuing ops immediately; the journal plus the fabric's
// surviving state let a later Execute resume or finish rolling back.
var ErrInterrupted = errors.New("rollout: interrupted")

// Fabric is the device-facing side of a rollout: it applies staged
// config ops to switches and answers which epochs a switch currently
// holds. Apply must be idempotent — re-applying a done op is a no-op —
// and must fail with deploy.ErrSwitchDown (wrapped) when the target
// switch is down, so the engine's retry/rollback machinery can tell
// transient outages from hard errors.
type Fabric interface {
	Apply(ctx context.Context, op Op) error
	Installed(sw network.SwitchID, epoch uint64) bool
}

// MemFabric is the in-memory reference fabric: it tracks, per switch,
// the set of config epochs installed, and consults a live Topology's
// fault overlay so ops against a down switch fail exactly like a real
// push would. It is safe for concurrent use and persists across
// rollouts (the supervisor keeps one for the life of a deployment).
type MemFabric struct {
	topo *network.Topology

	mu        sync.Mutex
	installed map[network.SwitchID]map[uint64]bool
}

// NewMemFabric returns an empty fabric over topo's fault overlay; a
// nil topo disables down-switch simulation.
func NewMemFabric(topo *network.Topology) *MemFabric {
	return &MemFabric{topo: topo, installed: map[network.SwitchID]map[uint64]bool{}}
}

// Bootstrap marks dep's hosting switches as holding epoch, seeding the
// fabric with an already-serving deployment (the state a controller
// adopts before its first transactional rollout).
func (f *MemFabric) Bootstrap(dep *deploy.Deployment, epoch uint64) {
	if dep == nil || dep.Plan == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, sw := range dep.Plan.UsedSwitches() {
		f.install(sw, epoch)
	}
}

func (f *MemFabric) install(sw network.SwitchID, epoch uint64) {
	m := f.installed[sw]
	if m == nil {
		m = map[uint64]bool{}
		f.installed[sw] = m
	}
	m[epoch] = true
}

// Apply stages, removes, or acknowledges one op. Prepare installs the
// op's epoch on the switch; retire and abort remove it; commit is a
// pure control-plane acknowledgement (the engine validates the flip's
// preconditions before issuing it). A down target yields
// deploy.ErrSwitchDown; a done context yields its error.
func (f *MemFabric) Apply(ctx context.Context, op Op) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w: %v", ErrInterrupted, err)
		}
	}
	switch op.Kind {
	case OpCommit:
		return nil
	case OpPrepare, OpRetire, OpAbort:
	default:
		return fmt.Errorf("rollout: fabric: unknown op kind %q", op.Kind)
	}
	if f.topo != nil && f.topo.SwitchIsDown(op.Switch) {
		return fmt.Errorf("rollout: %s switch %d epoch %d: %w", op.Kind, op.Switch, op.Epoch, deploy.ErrSwitchDown)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if op.Kind == OpPrepare {
		f.install(op.Switch, op.Epoch)
	} else {
		delete(f.installed[op.Switch], op.Epoch)
	}
	return nil
}

// Installed reports whether sw currently holds epoch's config.
func (f *MemFabric) Installed(sw network.SwitchID, epoch uint64) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.installed[sw][epoch]
}

// Replay reconstructs fabric state from a journal after a process
// crash: bootstrap the old deployment at the journal's from-epoch,
// then re-apply every done switch op in order. Because ops are
// idempotent, replaying over surviving state is also safe.
func (f *MemFabric) Replay(j *Journal, old *deploy.Deployment) {
	if j == nil {
		return
	}
	f.Bootstrap(old, j.From)
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, e := range j.Entries {
		if e.Status != StatusDone {
			continue
		}
		switch e.Kind {
		case OpPrepare:
			f.install(e.Switch, e.Epoch)
		case OpRetire, OpAbort:
			delete(f.installed[e.Switch], e.Epoch)
		}
	}
}
