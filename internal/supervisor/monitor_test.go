package supervisor

import (
	"testing"

	"github.com/hermes-net/hermes/internal/network"
)

func monitorTopo(t *testing.T, n int) *network.Topology {
	t.Helper()
	tp, err := network.Linear(n, network.TestbedSpec())
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// TestKofNConfirmation: with a 3-of-3 window, isolated probe failures
// never confirm a failure; only three consecutive failures do, and
// recovery needs RecoverThreshold successes.
func TestKofNConfirmation(t *testing.T) {
	tp := monitorTopo(t, 2)
	alive := true
	m, err := NewMonitor(tp, MonitorOptions{
		Window: 3, FailThreshold: 3, RecoverThreshold: 2,
		BackoffMax: 1, Seed: 1,
		Probe: func(id network.SwitchID) bool {
			if id == 0 {
				return alive
			}
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// A flap pattern — fail, fail, succeed — never reaches 3 failures
	// in the window, so nothing is confirmed.
	for i := 0; i < 3; i++ {
		alive = false
		for j := 0; j < 2; j++ {
			if down, up := m.Poll(); len(down)+len(up) != 0 {
				t.Fatalf("flap round %d poll %d confirmed a transition", i, j)
			}
		}
		alive = true
		if down, up := m.Poll(); len(down)+len(up) != 0 {
			t.Fatalf("flap round %d heal poll confirmed a transition", i)
		}
	}

	// Three consecutive failures confirm the outage.
	alive = false
	var confirmed []network.SwitchID
	for i := 0; i < 3; i++ {
		down, _ := m.Poll()
		confirmed = append(confirmed, down...)
	}
	if len(confirmed) != 1 || confirmed[0] != 0 {
		t.Fatalf("confirmed down = %v, want [0]", confirmed)
	}
	if got := m.ConfirmedDown(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("ConfirmedDown = %v, want [0]", got)
	}

	// Recovery: the down switch is probed under backoff, so allow a
	// bounded number of polls for RecoverThreshold successes.
	alive = true
	recovered := false
	for i := 0; i < 50 && !recovered; i++ {
		_, up := m.Poll()
		for _, id := range up {
			if id == 0 {
				recovered = true
			}
		}
	}
	if !recovered {
		t.Fatal("switch 0 never confirmed up after heal")
	}
	if got := m.ConfirmedDown(); len(got) != 0 {
		t.Fatalf("ConfirmedDown after heal = %v, want empty", got)
	}
}

// TestBackoffReducesProbes: a confirmed-dead switch must not absorb a
// probe on every poll — the exponential backoff caps the probe rate.
func TestBackoffReducesProbes(t *testing.T) {
	tp := monitorTopo(t, 1)
	m, err := NewMonitor(tp, MonitorOptions{
		Window: 1, FailThreshold: 1, Seed: 7,
		Probe: func(network.SwitchID) bool { return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	const polls = 200
	for i := 0; i < polls; i++ {
		m.Poll()
	}
	// With BackoffMax 8 and jitter, steady state is one probe every
	// ~8–16 polls; 3× headroom keeps the bound robust to jitter.
	if m.Probes()*3 >= polls {
		t.Fatalf("dead switch probed %d times over %d polls; backoff not applied", m.Probes(), polls)
	}
}
