package placement

import (
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
)

// solvedChainPlan deploys a->b->c (req 0.5) over n two-stage switches.
func solvedChainPlan(t *testing.T, n int) *Plan {
	t.Helper()
	g := chainTDG(t, []string{"a", "b", "c"}, []int{1, 4}, 0.5)
	plan, err := Greedy{}.Solve(g, twoMATSwitchTopo(t, n), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestReplanMovesOffDrainedSwitch(t *testing.T) {
	old := solvedChainPlan(t, 3)
	used := old.UsedSwitches()
	if len(used) == 0 {
		t.Fatal("fixture must occupy at least one switch")
	}
	drained := used[0]

	fresh, err := Replan(old, nil, Options{}, drained)
	if err != nil {
		t.Fatal(err)
	}
	for name, sp := range fresh.Assignments {
		if sp.Switch == drained {
			t.Errorf("MAT %q still hosted on drained switch %d", name, drained)
		}
	}
	if err := fresh.Validate(program.DefaultResourceModel, 0, 0); err != nil {
		t.Fatalf("replanned deployment must validate: %v", err)
	}
	// The old plan and its topology are untouched (Replan clones).
	sw, err := old.Topo.Switch(drained)
	if err != nil {
		t.Fatal(err)
	}
	if !sw.Programmable {
		t.Error("Replan must not mutate the original topology")
	}

	moved, err := Diff(old, fresh)
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Error("draining an occupied switch must move at least one MAT")
	}
}

// TestDirtySetsFrontierIsOneHop: the repair's dirty set is the
// displaced MATs plus their direct TDG neighbours, whether a switch is
// drained or down, and nothing two hops away.
func TestDirtySetsFrontierIsOneHop(t *testing.T) {
	g := chainTDG(t, []string{"a", "b", "c", "d", "e"}, []int{1, 1, 1, 1}, 0.5)
	tp := twoMATSwitchTopo(t, 3)
	on := map[string]network.SwitchID{"a": 0, "b": 0, "c": 1, "d": 2, "e": 2}
	old := &Plan{Graph: g, Topo: tp, Assignments: map[string]StagePlacement{}}
	for name, sw := range on {
		old.Assignments[name] = StagePlacement{Switch: sw}
	}
	check := func(label string, drained map[network.SwitchID]bool, wantDisplaced, wantDirty string) {
		t.Helper()
		displaced, dirty := dirtySets(old, tp, drained)
		for _, set := range []struct {
			name string
			got  []int32
			want string
		}{{"displaced", displaced, wantDisplaced}, {"dirty", dirty, wantDirty}} {
			var names []string
			for _, id := range set.got {
				names = append(names, g.NodeOf(id).Name())
			}
			sort.Strings(names)
			if got := strings.Join(names, ""); got != set.want {
				t.Errorf("%s: %s = %s, want %s", label, set.name, got, set.want)
			}
		}
	}
	check("drain switch 1", map[network.SwitchID]bool{1: true}, "c", "bcd")
	if err := tp.SetSwitchDown(2); err != nil {
		t.Fatal(err)
	}
	check("switch 2 down", nil, "de", "cde")
}

func TestReplanEdgeCases(t *testing.T) {
	// Draining a non-programmable switch is a caller error.
	tp := twoMATSwitchTopo(t, 3)
	dumb := tp.AddSwitch(network.Switch{Programmable: false, TransitLatency: time.Microsecond})
	if err := tp.AddLink(2, dumb, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	g := chainTDG(t, []string{"a", "b", "c"}, []int{1, 4}, 0.5)
	plan, err := Greedy{}.Solve(g, tp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replan(plan, nil, Options{}, dumb); err == nil {
		t.Error("draining a non-programmable switch must be rejected")
	}

	// Infeasible after drain: 3 MATs of 0.5 need 2 switches; draining
	// one of two leaves capacity for only 2 MATs.
	tight := solvedChainPlan(t, 2)
	if _, err := Replan(tight, nil, Options{}, tight.UsedSwitches()[0]); err == nil {
		t.Error("replan must fail when the drained capacity cannot be absorbed")
	}
}

func TestDiffAcrossDifferentTDGs(t *testing.T) {
	p := solvedChainPlan(t, 3)
	other, err := Greedy{}.Solve(chainTDG(t, []string{"x", "y"}, []int{1}, 0.5), twoMATSwitchTopo(t, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Diff(p, other); err == nil {
		t.Error("diff across different TDGs must be rejected")
	}
}

// TestSwitchOrderNonDAG pins the satellite requirement that ordering
// errors carry switch identifiers: a plan whose contracted switch
// graph is cyclic must name the stuck switches.
func TestSwitchOrderNonDAG(t *testing.T) {
	g := chainTDG(t, []string{"a", "b", "c"}, []int{1, 1}, 0.5)
	tp := twoMATSwitchTopo(t, 2)
	mk := func(sw network.SwitchID, stage int) StagePlacement {
		return StagePlacement{Switch: sw, Start: stage, End: stage, PerStage: []float64{0.5}}
	}
	path01, err := tp.ShortestPath(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	path10, err := tp.ShortestPath(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := &Plan{
		Graph: g, Topo: tp,
		Assignments: map[string]StagePlacement{
			"a": mk(0, 0), "b": mk(1, 0), "c": mk(0, 1),
		},
		Routes: map[RouteKey]network.Path{
			{From: 0, To: 1}: path01,
			{From: 1, To: 0}: path10,
		},
	}
	_, err = p.SwitchOrder()
	if err == nil {
		t.Fatal("cyclic switch graph must fail SwitchOrder")
	}
	for _, want := range []string{"cyclic", "switch 0", "switch 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("SwitchOrder error must contain %q, got: %v", want, err)
		}
	}
}
