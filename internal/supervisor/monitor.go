// Package supervisor keeps a Hermes deployment alive through partial
// topology loss. A health monitor heartbeats every switch and applies
// K-of-N confirmation before declaring a failure; the supervisor reacts
// to confirmed transitions by replanning the deployment incrementally
// against the reduced topology, shedding whole programs
// lowest-priority-first when no feasible plan exists, and restoring
// them when switches heal.
package supervisor

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/hermes-net/hermes/internal/network"
)

// ProbeFunc answers one heartbeat: true means the switch responded.
type ProbeFunc func(id network.SwitchID) bool

// MonitorOptions tune the health monitor.
type MonitorOptions struct {
	// Window is N of the K-of-N confirmation: the number of recent
	// probe results kept per switch. Zero means 3. Window 1 with
	// FailThreshold 1 disables confirmation (every failed probe is a
	// confirmed failure — maximally reactive, maximally flap-prone).
	Window int
	// FailThreshold is K: an up switch is confirmed down once its
	// window holds at least this many failures. Zero means Window
	// (unanimous), which tolerates Window-1 consecutive flap blips.
	FailThreshold int
	// RecoverThreshold is the success count a down switch needs in its
	// window to be confirmed up again. Zero means Window.
	RecoverThreshold int
	// BackoffMax caps the skip (before jitter) of a confirmed-down
	// switch: one poll after its first failed probe, doubling on every
	// further failure. Zero means 8.
	BackoffMax int
	// Seed makes the backoff jitter deterministic.
	Seed int64
	// Probe replaces the heartbeat; nil reads the topology's fault
	// overlay (the simulation stand-in for a real heartbeat RPC).
	Probe ProbeFunc
}

func (o MonitorOptions) window() int {
	if o.Window <= 0 {
		return 3
	}
	return o.Window
}

func (o MonitorOptions) failThreshold() int {
	k := o.FailThreshold
	if k <= 0 || k > o.window() {
		return o.window()
	}
	return k
}

func (o MonitorOptions) recoverThreshold() int {
	k := o.RecoverThreshold
	if k <= 0 || k > o.window() {
		return o.window()
	}
	return k
}

func (o MonitorOptions) backoffMax() int {
	if o.BackoffMax <= 0 {
		return 8
	}
	return o.BackoffMax
}

// switchHealth is one switch's probe history and confirmed state.
type switchHealth struct {
	window []bool // ring of recent probe results
	pos    int
	filled int
	down   bool // confirmed state
	skip   int  // polls left to skip (backoff)
	level  int  // backoff exponent
}

func (h *switchHealth) record(ok bool) {
	h.window[h.pos] = ok
	h.pos = (h.pos + 1) % len(h.window)
	if h.filled < len(h.window) {
		h.filled++
	}
}

func (h *switchHealth) failures() int {
	n := 0
	for i := 0; i < h.filled; i++ {
		if !h.window[i] {
			n++
		}
	}
	return n
}

func (h *switchHealth) successes() int {
	return h.filled - h.failures()
}

// Monitor heartbeats every switch of a topology and turns raw probe
// results into confirmed up/down transitions. It is poll-driven: the
// supervisor (or a wall-clock loop) calls Poll once per monitoring
// tick. Confirmed-down switches are probed under jittered exponential
// backoff so a dead switch does not absorb a full probe per tick.
// Monitor is not safe for concurrent use; the owning supervisor
// serializes access.
type Monitor struct {
	topo   *network.Topology
	ids    []network.SwitchID
	per    map[network.SwitchID]*switchHealth
	opts   MonitorOptions
	rng    *rand.Rand
	probes int
}

// NewMonitor builds a monitor over every switch of the topology —
// transit switches matter too: a dead one invalidates routes even
// though it hosts no MATs.
func NewMonitor(topo *network.Topology, opts MonitorOptions) (*Monitor, error) {
	if topo == nil {
		return nil, fmt.Errorf("supervisor: monitor over nil topology")
	}
	m := &Monitor{
		topo: topo,
		per:  map[network.SwitchID]*switchHealth{},
		opts: opts,
		rng:  rand.New(rand.NewSource(opts.Seed)),
	}
	for _, sw := range topo.Switches() {
		m.ids = append(m.ids, sw.ID)
		m.per[sw.ID] = &switchHealth{window: make([]bool, opts.window())}
	}
	sort.Slice(m.ids, func(i, j int) bool { return m.ids[i] < m.ids[j] })
	return m, nil
}

// probe runs one heartbeat.
func (m *Monitor) probe(id network.SwitchID) bool {
	if m.opts.Probe != nil {
		return m.opts.Probe(id)
	}
	return !m.topo.SwitchIsDown(id)
}

// Poll heartbeats every due switch and returns the confirmed
// transitions: switches newly confirmed down and newly confirmed up,
// each ascending by ID.
func (m *Monitor) Poll() (down, up []network.SwitchID) {
	for _, id := range m.ids {
		h := m.per[id]
		if h.skip > 0 {
			h.skip--
			continue
		}
		ok := m.probe(id)
		m.probes++
		h.record(ok)
		if h.down {
			if ok {
				if h.successes() >= m.opts.recoverThreshold() {
					h.down = false
					h.level = 0
					up = append(up, id)
				}
				continue
			}
			// Still dead: back off exponentially with jitter so dead
			// switches cost a vanishing fraction of the probe budget.
			h.level++
			d := 1
			for i := 1; i < h.level && d < m.opts.backoffMax(); i++ {
				d *= 2
			}
			if d > m.opts.backoffMax() {
				d = m.opts.backoffMax()
			}
			h.skip = d + m.rng.Intn(d+1)
			continue
		}
		if !ok && h.failures() >= m.opts.failThreshold() {
			h.down = true
			h.level = 0
			down = append(down, id)
		}
	}
	return down, up
}

// ConfirmedDown lists the switches currently confirmed down,
// ascending.
func (m *Monitor) ConfirmedDown() []network.SwitchID {
	var out []network.SwitchID
	for _, id := range m.ids {
		if m.per[id].down {
			out = append(out, id)
		}
	}
	return out
}

// Probes reports how many heartbeats have been sent; with backoff
// enabled this grows slower than polls × switches during outages.
func (m *Monitor) Probes() int { return m.probes }
