package network

import (
	"slices"
	"strings"
	"testing"
	"time"
)

// faultDiamond builds the 4-switch diamond used by the path tests:
// 0-1-3 (fast) and 0-2-3 (slow), all programmable.
func faultDiamond(t *testing.T) *Topology {
	t.Helper()
	tp := NewTopology("fault-diamond")
	for i := 0; i < 4; i++ {
		tp.AddSwitch(Switch{Programmable: true, Stages: 4, StageCapacity: 1, TransitLatency: time.Microsecond})
	}
	mustLink := func(a, b SwitchID, lat time.Duration) {
		t.Helper()
		if err := tp.AddLink(a, b, lat); err != nil {
			t.Fatalf("AddLink(%d,%d): %v", a, b, err)
		}
	}
	mustLink(0, 1, 1*time.Microsecond)
	mustLink(1, 3, 1*time.Microsecond)
	mustLink(0, 2, 10*time.Microsecond)
	mustLink(2, 3, 10*time.Microsecond)
	return tp
}

func TestFaultMutationsInvalidateOracle(t *testing.T) {
	tp := faultDiamond(t)
	fast, err := tp.ShortestPath(0, 3)
	if err != nil {
		t.Fatalf("ShortestPath: %v", err)
	}
	if !slices.Contains(fast.Switches, 1) {
		t.Fatalf("expected fast path via 1, got %v", fast.Switches)
	}
	before := tp.PathCacheStats().Invalidations
	epoch := tp.FaultEpoch()

	if err := tp.SetSwitchDown(1); err != nil {
		t.Fatalf("SetSwitchDown: %v", err)
	}
	if tp.PathCacheStats().Invalidations <= before {
		t.Error("SetSwitchDown did not invalidate the path oracle")
	}
	if tp.FaultEpoch() <= epoch {
		t.Error("SetSwitchDown did not bump FaultEpoch")
	}
	slow, err := tp.ShortestPath(0, 3)
	if err != nil {
		t.Fatalf("ShortestPath after fault: %v", err)
	}
	if slices.Contains(slow.Switches, 1) {
		t.Errorf("path still routes through down switch 1: %v", slow.Switches)
	}

	// No-op mutations must not churn the epoch or cache.
	before = tp.PathCacheStats().Invalidations
	epoch = tp.FaultEpoch()
	if err := tp.SetSwitchDown(1); err != nil {
		t.Fatalf("repeat SetSwitchDown: %v", err)
	}
	if tp.FaultEpoch() != epoch || tp.PathCacheStats().Invalidations != before {
		t.Error("no-op SetSwitchDown mutated epoch or cache")
	}

	if err := tp.SetSwitchUp(1); err != nil {
		t.Fatalf("SetSwitchUp: %v", err)
	}
	again, err := tp.ShortestPath(0, 3)
	if err != nil {
		t.Fatalf("ShortestPath after heal: %v", err)
	}
	if again.Latency != fast.Latency {
		t.Errorf("healed path latency %v, want %v", again.Latency, fast.Latency)
	}
}

func TestLinkFaultReroutesAndHeals(t *testing.T) {
	tp := faultDiamond(t)
	if err := tp.SetLinkDown(1, 3); err != nil {
		t.Fatalf("SetLinkDown: %v", err)
	}
	if !tp.LinkIsDown(3, 1) {
		t.Error("LinkIsDown not symmetric")
	}
	p, err := tp.ShortestPath(0, 3)
	if err != nil {
		t.Fatalf("ShortestPath: %v", err)
	}
	if !slices.Contains(p.Switches, 2) {
		t.Errorf("expected reroute via 2, got %v", p.Switches)
	}
	tp.Heal()
	if tp.HasFaults() {
		t.Error("Heal left fault state")
	}
	p, err = tp.ShortestPath(0, 3)
	if err != nil {
		t.Fatalf("ShortestPath after heal: %v", err)
	}
	if !slices.Contains(p.Switches, 1) {
		t.Errorf("healed path should use fast branch, got %v", p.Switches)
	}
}

func TestDownSwitchExcludedFromProgrammableAndNearest(t *testing.T) {
	tp := faultDiamond(t)
	if err := tp.SetSwitchDown(2); err != nil {
		t.Fatalf("SetSwitchDown: %v", err)
	}
	for _, id := range tp.ProgrammableSwitches() {
		if id == 2 {
			t.Error("down switch listed programmable")
		}
	}
	near, err := tp.NearestProgrammable(0, -1, 0)
	if err != nil {
		t.Fatalf("NearestProgrammable: %v", err)
	}
	for _, id := range near {
		if id == 2 {
			t.Error("down switch returned by NearestProgrammable")
		}
	}
	if got := tp.DownSwitches(); len(got) != 1 || got[0] != 2 {
		t.Errorf("DownSwitches = %v, want [2]", got)
	}
	if _, err := tp.KShortestPaths(2, 2, 1); err == nil {
		t.Error("KShortestPaths(src==dst) on a down switch should fail")
	}
}

func TestConnectedJudgesSurvivingSubgraph(t *testing.T) {
	// Line 0-1-2: dropping the middle switch partitions the survivors.
	tp, err := Linear(3, TofinoSpec())
	if err != nil {
		t.Fatalf("Linear: %v", err)
	}
	if !tp.Connected() {
		t.Fatal("line not connected")
	}
	if err := tp.SetSwitchDown(1); err != nil {
		t.Fatalf("SetSwitchDown: %v", err)
	}
	if tp.Connected() {
		t.Error("survivors {0,2} are partitioned; Connected should be false")
	}
	// Dropping an endpoint leaves a connected 2-line.
	tp.Heal()
	if err := tp.SetSwitchDown(0); err != nil {
		t.Fatalf("SetSwitchDown: %v", err)
	}
	if !tp.Connected() {
		t.Error("survivors {1,2} are connected; Connected should be true")
	}
}

func TestCloneCarriesFaultState(t *testing.T) {
	tp := faultDiamond(t)
	if err := tp.SetSwitchDown(1); err != nil {
		t.Fatalf("SetSwitchDown: %v", err)
	}
	if err := tp.SetLinkDown(0, 2); err != nil {
		t.Fatalf("SetLinkDown: %v", err)
	}
	c := tp.Clone()
	if !c.SwitchIsDown(1) || !c.LinkIsDown(0, 2) {
		t.Fatal("clone lost fault state")
	}
	// Healing the clone must not heal the original.
	c.Heal()
	if !tp.SwitchIsDown(1) {
		t.Error("healing clone healed original")
	}
}

func TestFaultErrors(t *testing.T) {
	tp := faultDiamond(t)
	if err := tp.SetSwitchDown(99); err == nil {
		t.Error("SetSwitchDown(99) accepted")
	}
	if err := tp.SetLinkDown(0, 3); err == nil {
		t.Error("SetLinkDown on missing link accepted")
	}
	if tp.HasFaults() {
		t.Error("failed mutations left fault state")
	}
}

func TestGenerateScheduleDeterministicAndGuarded(t *testing.T) {
	tp, err := TableIII(1, TofinoSpec())
	if err != nil {
		t.Fatalf("TableIII: %v", err)
	}
	opts := ScheduleOptions{Seed: 42, Events: 25, MinUpProgrammable: 2}
	a, err := GenerateSchedule(tp, opts)
	if err != nil {
		t.Fatalf("GenerateSchedule: %v", err)
	}
	b, err := GenerateSchedule(tp, opts)
	if err != nil {
		t.Fatalf("GenerateSchedule (2nd): %v", err)
	}
	if a.Format() != b.Format() {
		t.Fatal("equal seeds produced different schedules")
	}
	c, err := GenerateSchedule(tp, ScheduleOptions{Seed: 43, Events: 25, MinUpProgrammable: 2})
	if err != nil {
		t.Fatalf("GenerateSchedule seed 43: %v", err)
	}
	if a.Format() == c.Format() {
		t.Error("different seeds produced identical schedules")
	}

	// Every prefix must keep the guards.
	sim := tp.Clone()
	lastTick := -1
	for i, e := range a.Events {
		if e.Tick < lastTick {
			t.Fatalf("event %d out of tick order: %d after %d", i, e.Tick, lastTick)
		}
		lastTick = e.Tick
		if err := e.Apply(sim); err != nil {
			t.Fatalf("event %d (%s) failed: %v", i, e, err)
		}
		if got := len(sim.ProgrammableSwitches()); got < 2 {
			t.Fatalf("after event %d only %d programmable switches up", i, got)
		}
		if !sim.Connected() {
			t.Fatalf("after event %d survivors disconnected", i)
		}
	}
	if sim.HasFaults() {
		t.Error("schedule does not end fully healed")
	}
}

func TestScheduleRoundTrip(t *testing.T) {
	tp := faultDiamond(t)
	s, err := GenerateSchedule(tp, ScheduleOptions{Seed: 7, Events: 5})
	if err != nil {
		t.Fatalf("GenerateSchedule: %v", err)
	}
	got, err := ParseSchedule(strings.NewReader("# comment\n\n" + s.Format()))
	if err != nil {
		t.Fatalf("ParseSchedule: %v", err)
	}
	if got.Format() != s.Format() {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", got.Format(), s.Format())
	}
	if _, err := ParseSchedule(strings.NewReader("1 bogus-op 2\n")); err == nil {
		t.Error("unknown op accepted")
	}
	if _, err := ParseSchedule(strings.NewReader("1 link-down 2\n")); err == nil {
		t.Error("one-endpoint link event accepted")
	}
}
