package network

import (
	"fmt"
	"sort"
)

// Fault layer: an orthogonal, healable overlay over the topology.
//
// A *down* switch or link keeps its struct fields untouched — unlike a
// drain, which rewrites Programmable/Stages/StageCapacity on a clone and
// is permanent for that clone's lifetime, a fault is reversible by
// SetSwitchUp/SetLinkUp/Heal. Path queries, ProgrammableSwitches,
// Connected, and the compiled placement instance all treat down elements
// as absent; Plan.Validate rejects assignments on down switches (paired
// with lint rule HL112).
//
// Every fault mutation bumps FaultEpoch and invalidates the path oracle,
// so memoized shortest paths and compiled latency tables can never leak
// across a fault boundary.

// SwitchIsDown reports whether the fault layer marks id down.
func (t *Topology) SwitchIsDown(id SwitchID) bool {
	return t.downSw[id]
}

// LinkIsDown reports whether the (a,b) link is marked down. Unknown
// links are not down.
func (t *Topology) LinkIsDown(a, b SwitchID) bool {
	if len(t.downLink) == 0 {
		return false
	}
	li, ok := t.linkIndex(a, b)
	return ok && t.downLink[li]
}

// HasFaults reports whether any switch or link is currently down.
func (t *Topology) HasFaults() bool {
	return len(t.downSw) > 0 || len(t.downLink) > 0
}

// FaultEpoch returns the fault-mutation counter. Derived caches keyed on
// the topology pointer (placement.CompiledInstance) store the epoch at
// build time and rebuild when it moves.
func (t *Topology) FaultEpoch() uint64 { return t.faultEpoch }

// faultMutated bumps the epoch and drops memoized paths.
func (t *Topology) faultMutated() {
	t.faultEpoch++
	t.cache.invalidate()
}

// SetSwitchDown marks id as failed. No-op if already down.
func (t *Topology) SetSwitchDown(id SwitchID) error {
	if !t.valid(id) {
		return fmt.Errorf("network: SetSwitchDown: unknown switch %d", id)
	}
	if t.downSw[id] {
		return nil
	}
	if t.downSw == nil {
		t.downSw = make(map[SwitchID]bool)
	}
	t.downSw[id] = true
	t.faultMutated()
	return nil
}

// SetSwitchUp heals a failed switch. No-op if not down.
func (t *Topology) SetSwitchUp(id SwitchID) error {
	if !t.valid(id) {
		return fmt.Errorf("network: SetSwitchUp: unknown switch %d", id)
	}
	if !t.downSw[id] {
		return nil
	}
	delete(t.downSw, id)
	t.faultMutated()
	return nil
}

// SetLinkDown marks the (a,b) link as cut. No-op if already down.
func (t *Topology) SetLinkDown(a, b SwitchID) error {
	li, ok := t.linkIndex(a, b)
	if !ok {
		return fmt.Errorf("network: SetLinkDown: no link %d-%d", a, b)
	}
	if t.downLink[li] {
		return nil
	}
	if t.downLink == nil {
		t.downLink = make(map[int]bool)
	}
	t.downLink[li] = true
	t.faultMutated()
	return nil
}

// SetLinkUp heals a cut link. No-op if not down.
func (t *Topology) SetLinkUp(a, b SwitchID) error {
	li, ok := t.linkIndex(a, b)
	if !ok {
		return fmt.Errorf("network: SetLinkUp: no link %d-%d", a, b)
	}
	if !t.downLink[li] {
		return nil
	}
	delete(t.downLink, li)
	t.faultMutated()
	return nil
}

// Heal clears all fault state. No-op if nothing is down.
func (t *Topology) Heal() {
	if !t.HasFaults() {
		return
	}
	t.downSw = nil
	t.downLink = nil
	t.faultMutated()
}

// DownSwitches returns the failed switch IDs in ascending order.
func (t *Topology) DownSwitches() []SwitchID {
	if len(t.downSw) == 0 {
		return nil
	}
	out := make([]SwitchID, 0, len(t.downSw))
	for id := range t.downSw {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// copyFaultState mirrors src's fault overlay onto t (used by Clone).
func (t *Topology) copyFaultState(src *Topology) {
	if len(src.downSw) > 0 {
		t.downSw = make(map[SwitchID]bool, len(src.downSw))
		for id := range src.downSw {
			t.downSw[id] = true
		}
	}
	if len(src.downLink) > 0 {
		t.downLink = make(map[int]bool, len(src.downLink))
		for li := range src.downLink {
			t.downLink[li] = true
		}
	}
	t.faultEpoch = src.faultEpoch
}
