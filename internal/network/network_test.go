package network

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// diamond builds:
//
//	    1
//	  /   \
//	0       3 --- 4
//	  \   /
//	    2
//
// with latencies making 0-1-3 cheaper than 0-2-3.
func diamond(t *testing.T) *Topology {
	t.Helper()
	tp := NewTopology("diamond")
	for i := 0; i < 5; i++ {
		tp.AddSwitch(Switch{
			Programmable:   true,
			Stages:         12,
			StageCapacity:  1,
			TransitLatency: time.Microsecond,
		})
	}
	links := []struct {
		a, b SwitchID
		lat  time.Duration
	}{
		{0, 1, 1 * time.Millisecond},
		{0, 2, 5 * time.Millisecond},
		{1, 3, 1 * time.Millisecond},
		{2, 3, 5 * time.Millisecond},
		{3, 4, 2 * time.Millisecond},
	}
	for _, l := range links {
		if err := tp.AddLink(l.a, l.b, l.lat); err != nil {
			t.Fatal(err)
		}
	}
	return tp
}

func TestTopologyConstruction(t *testing.T) {
	tp := diamond(t)
	if tp.NumSwitches() != 5 || tp.NumLinks() != 5 {
		t.Fatalf("shape = %d/%d, want 5/5", tp.NumSwitches(), tp.NumLinks())
	}
	if err := tp.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !tp.Connected() {
		t.Error("diamond not connected")
	}
	nbrs := tp.Neighbors(3)
	if len(nbrs) != 3 || nbrs[0] != 1 || nbrs[1] != 2 || nbrs[2] != 4 {
		t.Errorf("Neighbors(3) = %v, want [1 2 4]", nbrs)
	}
	if _, ok := tp.LinkBetween(0, 3); ok {
		t.Error("LinkBetween(0,3) = true, want false")
	}
	l, ok := tp.LinkBetween(0, 1)
	if !ok || l.Latency != time.Millisecond {
		t.Errorf("LinkBetween(0,1) = %v/%v", l, ok)
	}
}

func TestAddLinkErrors(t *testing.T) {
	tp := NewTopology("t")
	a := tp.AddSwitch(Switch{TransitLatency: 0})
	b := tp.AddSwitch(Switch{TransitLatency: 0})
	if err := tp.AddLink(a, a, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if err := tp.AddLink(a, 99, 0); err == nil {
		t.Error("link to unknown switch accepted")
	}
	if err := tp.AddLink(a, b, -time.Second); err == nil {
		t.Error("negative latency accepted")
	}
	if err := tp.AddLink(a, b, 0); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddLink(b, a, 0); err == nil {
		t.Error("duplicate link accepted")
	}
}

func TestValidateCatchesBadSwitches(t *testing.T) {
	tp := NewTopology("bad")
	tp.AddSwitch(Switch{Programmable: true, Stages: 0, StageCapacity: 1})
	if err := tp.Validate(); err == nil {
		t.Error("Validate accepted programmable switch without stages")
	}
	tp2 := NewTopology("bad2")
	tp2.AddSwitch(Switch{Programmable: true, Stages: 4, StageCapacity: 0})
	if err := tp2.Validate(); err == nil {
		t.Error("Validate accepted programmable switch without capacity")
	}
	tp3 := NewTopology("disconnected")
	tp3.AddSwitch(Switch{})
	tp3.AddSwitch(Switch{})
	if err := tp3.Validate(); err == nil {
		t.Error("Validate accepted disconnected topology")
	}
}

func TestSwitchCapacity(t *testing.T) {
	s := Switch{Programmable: true, Stages: 12, StageCapacity: 0.5}
	if got := s.Capacity(); got != 6 {
		t.Errorf("Capacity = %g, want 6", got)
	}
	s.Programmable = false
	if got := s.Capacity(); got != 0 {
		t.Errorf("non-programmable Capacity = %g, want 0", got)
	}
}

func TestShortestPath(t *testing.T) {
	tp := diamond(t)
	p, err := tp.ShortestPath(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []SwitchID{0, 1, 3}
	if len(p.Switches) != 3 {
		t.Fatalf("path = %v, want %v", p.Switches, want)
	}
	for i := range want {
		if p.Switches[i] != want[i] {
			t.Fatalf("path = %v, want %v", p.Switches, want)
		}
	}
	// Latency = 3 switch transits (1µs each) + 2 links (1ms each).
	wantLat := 3*time.Microsecond + 2*time.Millisecond
	if p.Latency != wantLat {
		t.Errorf("latency = %v, want %v", p.Latency, wantLat)
	}
	if _, err := tp.ShortestPath(0, 99); err == nil {
		t.Error("ShortestPath to unknown switch succeeded")
	}
}

func TestShortestPathNoRoute(t *testing.T) {
	tp := NewTopology("two islands")
	a := tp.AddSwitch(Switch{})
	tp.AddSwitch(Switch{})
	c := tp.AddSwitch(Switch{})
	if err := tp.AddLink(a, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := tp.ShortestPath(a, c); err == nil {
		t.Error("ShortestPath across disconnected components succeeded")
	}
}

func TestKShortestPaths(t *testing.T) {
	tp := diamond(t)
	paths, err := tp.KShortestPaths(0, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2 (diamond has exactly two 0->3 routes)", len(paths))
	}
	if paths[0].Latency > paths[1].Latency {
		t.Error("paths not sorted by latency")
	}
	if paths[0].Switches[1] != 1 || paths[1].Switches[1] != 2 {
		t.Errorf("paths = %v, want via 1 then via 2", paths)
	}
	// k=1 returns just the shortest.
	one, err := tp.KShortestPaths(0, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 {
		t.Errorf("k=1 returned %d paths", len(one))
	}
	// Same source and destination.
	self, err := tp.KShortestPaths(2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(self) != 1 || len(self[0].Switches) != 1 {
		t.Errorf("self path = %v", self)
	}
	if _, err := tp.KShortestPaths(0, 3, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestKShortestPathsAreSimpleAndDistinct(t *testing.T) {
	tp, err := RandomWAN("w", 20, 35, TofinoSpec(), 7)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := tp.KShortestPaths(0, 19, 5)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, p := range paths {
		key := ""
		visited := map[SwitchID]bool{}
		for _, s := range p.Switches {
			if visited[s] {
				t.Fatalf("path %v revisits switch %d", p.Switches, s)
			}
			visited[s] = true
			key += string(rune(s)) + ","
		}
		if seen[key] {
			t.Fatalf("duplicate path %v", p.Switches)
		}
		seen[key] = true
	}
	for i := 1; i < len(paths); i++ {
		if paths[i].Latency < paths[i-1].Latency {
			t.Error("paths not in increasing latency order")
		}
	}
}

// On a cycle every pair of switches is joined by exactly two simple
// routes, one along each arc, however many are asked for.
func TestKShortestPathsOnCycle(t *testing.T) {
	const n = 6
	tp := NewTopology("cycle")
	for i := 0; i < n; i++ {
		tp.AddSwitch(Switch{Programmable: true, Stages: 12, StageCapacity: 1, TransitLatency: time.Microsecond})
	}
	for i := 0; i < n; i++ {
		if err := tp.AddLink(SwitchID(i), SwitchID((i+1)%n), time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	for dst := SwitchID(1); dst < n; dst++ {
		paths, err := tp.KShortestPaths(0, dst, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(paths) != 2 {
			t.Fatalf("0->%d has %d routes, want 2", dst, len(paths))
		}
		// The two arcs together visit every switch, the endpoints twice.
		if hops := len(paths[0].Switches) + len(paths[1].Switches); hops != n+2 {
			t.Errorf("0->%d routes %v and %v cover %d switches, want %d", dst, paths[0].Switches, paths[1].Switches, hops, n+2)
		}
	}
}

func TestNearestProgrammable(t *testing.T) {
	tp := diamond(t)
	got, err := tp.NearestProgrammable(0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("NearestProgrammable = %v, want [1 3]", got)
	}
	// Latency bound excludes far switches.
	got, err = tp.NearestProgrammable(0, 10, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("bounded NearestProgrammable = %v, want [1]", got)
	}
	if _, err := tp.NearestProgrammable(99, 1, 0); err == nil {
		t.Error("NearestProgrammable from unknown switch succeeded")
	}
}

func TestLinear(t *testing.T) {
	tp, err := Linear(3, TestbedSpec())
	if err != nil {
		t.Fatal(err)
	}
	if tp.NumSwitches() != 3 || tp.NumLinks() != 2 {
		t.Fatalf("linear shape = %d/%d", tp.NumSwitches(), tp.NumLinks())
	}
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tp.ProgrammableSwitches()) != 3 {
		t.Error("testbed switches should all be programmable")
	}
	if _, err := Linear(0, TestbedSpec()); err == nil {
		t.Error("Linear(0) accepted")
	}
}

func TestFatTree(t *testing.T) {
	tp, err := FatTree(4, TofinoSpec(), 42)
	if err != nil {
		t.Fatal(err)
	}
	// k=4: 4 cores + 4 pods * (2 agg + 2 edge) = 20 switches,
	// links: pods 4*4=16 + core 4*4=16 = 32.
	if tp.NumSwitches() != 20 {
		t.Errorf("fat-tree switches = %d, want 20", tp.NumSwitches())
	}
	if tp.NumLinks() != 32 {
		t.Errorf("fat-tree links = %d, want 32", tp.NumLinks())
	}
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	// ~50% programmable.
	got := len(tp.ProgrammableSwitches())
	if got != 10 {
		t.Errorf("programmable = %d, want 10", got)
	}
	if _, err := FatTree(3, TofinoSpec(), 1); err == nil {
		t.Error("odd arity accepted")
	}
}

func TestRandomWANDeterministicAndExactSize(t *testing.T) {
	a, err := RandomWAN("w", 30, 45, TofinoSpec(), 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomWAN("w", 30, 45, TofinoSpec(), 99)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSwitches() != 30 || a.NumLinks() != 45 {
		t.Fatalf("WAN shape = %d/%d, want 30/45", a.NumSwitches(), a.NumLinks())
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// Determinism: identical link sets.
	la, lb := a.Links(), b.Links()
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("link %d differs across equal seeds: %v vs %v", i, la[i], lb[i])
		}
	}
	// Different seed differs somewhere.
	c, err := RandomWAN("w", 30, 45, TofinoSpec(), 100)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	lc := c.Links()
	for i := range la {
		if la[i] != lc[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical topology")
	}
}

func TestRandomWANErrors(t *testing.T) {
	spec := TofinoSpec()
	if _, err := RandomWAN("w", 0, 0, spec, 1); err == nil {
		t.Error("0 nodes accepted")
	}
	if _, err := RandomWAN("w", 5, 3, spec, 1); err == nil {
		t.Error("too few edges accepted")
	}
	if _, err := RandomWAN("w", 5, 11, spec, 1); err == nil {
		t.Error("too many edges accepted")
	}
}

func TestTableIIIMatchesPaper(t *testing.T) {
	wantNodes := []int{65, 70, 75, 66, 73, 72, 68, 71, 74, 69}
	wantEdges := []int{78, 85, 99, 75, 70, 84, 92, 88, 92, 98}
	if NumTableIII() != 10 {
		t.Fatalf("NumTableIII = %d, want 10", NumTableIII())
	}
	for i := 1; i <= 10; i++ {
		n, e, err := TableIIISize(i)
		if err != nil {
			t.Fatal(err)
		}
		if n != wantNodes[i-1] || e != wantEdges[i-1] {
			t.Errorf("TableIIISize(%d) = %d/%d, want %d/%d", i, n, e, wantNodes[i-1], wantEdges[i-1])
		}
		tp, err := TableIII(i, TofinoSpec())
		if err != nil {
			t.Fatal(err)
		}
		if tp.NumSwitches() != wantNodes[i-1] {
			t.Errorf("topology %d switches = %d, want %d", i, tp.NumSwitches(), wantNodes[i-1])
		}
		// Topology 5 is adjusted to stay connected (70 < 73-1).
		wantE := wantEdges[i-1]
		if wantE < wantNodes[i-1]-1 {
			wantE = wantNodes[i-1] - 1
		}
		if tp.NumLinks() != wantE {
			t.Errorf("topology %d links = %d, want %d", i, tp.NumLinks(), wantE)
		}
		if err := tp.Validate(); err != nil {
			t.Errorf("topology %d invalid: %v", i, err)
		}
		// Roughly 50% programmable.
		prog := len(tp.ProgrammableSwitches())
		if prog < tp.NumSwitches()/3 || prog > 2*tp.NumSwitches()/3 {
			t.Errorf("topology %d programmable count %d of %d implausible", i, prog, tp.NumSwitches())
		}
	}
	if _, err := TableIII(0, TofinoSpec()); err == nil {
		t.Error("TableIII(0) accepted")
	}
	if _, err := TableIII(11, TofinoSpec()); err == nil {
		t.Error("TableIII(11) accepted")
	}
}

func TestTableIIILinkLatencyRange(t *testing.T) {
	tp, err := TableIII(1, TofinoSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range tp.Links() {
		if l.Latency < time.Millisecond || l.Latency > 10*time.Millisecond {
			t.Fatalf("link latency %v outside paper's 1-10ms", l.Latency)
		}
	}
}

func TestClonedTopologyIsIndependent(t *testing.T) {
	tp, err := Linear(4, TestbedSpec())
	if err != nil {
		t.Fatal(err)
	}
	c := tp.Clone()
	if c.NumSwitches() != tp.NumSwitches() || c.NumLinks() != tp.NumLinks() {
		t.Fatal("clone shape mismatch")
	}
	orig := len(tp.ProgrammableSwitches())
	cs, err := c.Switch(0)
	if err != nil {
		t.Fatal(err)
	}
	cs.Programmable = false
	if len(tp.ProgrammableSwitches()) != orig {
		t.Error("mutating clone changed original")
	}
}

// topoState is everything a topology answers about its links, faults
// and paths, for comparing a topology before and after a mutation of
// something that must be independent of it.
type topoState struct {
	links     []Link
	neighbors [][]SwitchID
	down      []bool
	linkDown  []bool
	paths     []string
}

func stateOf(t *testing.T, tp *Topology) topoState {
	t.Helper()
	var st topoState
	st.links = tp.Links()
	for a := 0; a < tp.NumSwitches(); a++ {
		id := SwitchID(a)
		st.neighbors = append(st.neighbors, tp.Neighbors(id))
		st.down = append(st.down, tp.SwitchIsDown(id))
		for b := 0; b < tp.NumSwitches(); b++ {
			st.linkDown = append(st.linkDown, tp.LinkIsDown(id, SwitchID(b)))
			p, err := tp.ShortestPath(id, SwitchID(b))
			st.paths = append(st.paths, fmt.Sprint(p.Switches, p.Latency, err))
		}
	}
	return st
}

// TestCloneIsolation: Clone shares its source's link list and adjacency
// rows, so a mutation on either side — new links (appended to rows
// and a link list with spare capacity, the same row on both sides), a
// link or a switch marked down — must leave the other side's links,
// neighbors, fault state and shortest paths as they were, and a second
// clone's too.
func TestCloneIsolation(t *testing.T) {
	src, err := Linear(6, TestbedSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Switch 3's row ends at length 3, capacity 4; the link list at
	// length 6, capacity 8.
	if err := src.AddLink(0, 3, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	mutate := func(tp *Topology, a, b, down SwitchID) {
		t.Helper()
		if err := tp.AddLink(3, a, time.Microsecond); err != nil {
			t.Fatal(err)
		}
		if err := tp.AddLink(b, 5, time.Microsecond); err != nil {
			t.Fatal(err)
		}
		if err := tp.SetLinkDown(1, 2); err != nil {
			t.Fatal(err)
		}
		if err := tp.SetSwitchDown(down); err != nil {
			t.Fatal(err)
		}
	}
	c, bystander := src.Clone(), src.Clone()
	wantBystander := stateOf(t, bystander)

	wantSrc := stateOf(t, src)
	mutate(c, 5, 1, 2)
	if got := stateOf(t, src); !reflect.DeepEqual(got, wantSrc) {
		t.Fatalf("mutating the clone changed the source:\nbefore %+v\nafter  %+v", wantSrc, got)
	}
	wantClone := stateOf(t, c)
	mutate(src, 1, 0, 4)
	if got := stateOf(t, c); !reflect.DeepEqual(got, wantClone) {
		t.Fatalf("mutating the source changed the clone:\nbefore %+v\nafter  %+v", wantClone, got)
	}
	if got := stateOf(t, bystander); !reflect.DeepEqual(got, wantBystander) {
		t.Fatal("mutating the source and a clone changed a second clone")
	}
	for _, tc := range []struct {
		tp   *Topology
		a, b SwitchID
	}{{c, 3, 5}, {src, 3, 1}} {
		if _, ok := tc.tp.LinkBetween(tc.a, tc.b); !ok || tc.tp.NumLinks() != bystander.NumLinks()+2 {
			t.Fatalf("a mutated side lost its link %d-%d", tc.a, tc.b)
		}
	}
}
