package placement

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

// parallelTopo builds two disjoint equal-latency routes between 0 and 3:
//
//	0 - 1 - 3
//	0 - 2 - 3
func parallelTopo(t *testing.T) *network.Topology {
	t.Helper()
	tp := network.NewTopology("parallel")
	for i := 0; i < 4; i++ {
		tp.AddSwitch(network.Switch{
			Programmable: true, Stages: 4, StageCapacity: 1,
			TransitLatency: time.Microsecond,
		})
	}
	for _, l := range [][2]network.SwitchID{{0, 1}, {1, 3}, {0, 2}, {2, 3}} {
		if err := tp.AddLink(l[0], l[1], time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	return tp
}

// planWithPairs fabricates a plan whose cross edges produce the given
// byte loads between switch 0 and switch 3 via separate MAT pairs.
func planWithPairs(t *testing.T, tp *network.Topology, loads []int) *Plan {
	t.Helper()
	g := tdg.New()
	plan := &Plan{Graph: g, Topo: tp, Assignments: map[string]StagePlacement{}}
	for i, bytes := range loads {
		up := fixedMAT(nameN("u", i), 0.1)
		down := fixedMAT(nameN("d", i), 0.1)
		if err := g.AddNode(up); err != nil {
			t.Fatal(err)
		}
		if err := g.AddNode(down); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(up.Name, down.Name, tdg.DepMatch, bytes); err != nil {
			t.Fatal(err)
		}
		plan.Assignments[up.Name] = StagePlacement{Switch: 0, Start: 0, End: 0, PerStage: []float64{0.1}}
		plan.Assignments[down.Name] = StagePlacement{Switch: 3, Start: 1, End: 1, PerStage: []float64{0.1}}
	}
	return plan
}

func nameN(prefix string, i int) string {
	return prefix + string(rune('0'+i))
}

func TestOptimizeRoutesUsesShortestWhenAlone(t *testing.T) {
	tp := parallelTopo(t)
	plan := planWithPairs(t, tp, []int{10})
	maxLink, err := OptimizeRoutes(plan, RouteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if maxLink != 10 {
		t.Errorf("max link load = %d, want 10", maxLink)
	}
	if len(plan.Routes) != 1 {
		t.Fatalf("routes = %d, want 1", len(plan.Routes))
	}
	if err := plan.Validate(DefaultRM(), 0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizeRoutesEmptyPlan(t *testing.T) {
	tp := parallelTopo(t)
	plan := planWithPairs(t, tp, nil)
	maxLink, err := OptimizeRoutes(plan, RouteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if maxLink != 0 || len(plan.Routes) != 0 {
		t.Errorf("empty plan routed: max=%d routes=%d", maxLink, len(plan.Routes))
	}
}

func TestOptimizeRoutesValidation(t *testing.T) {
	tp := parallelTopo(t)
	plan := planWithPairs(t, tp, []int{1})
	if _, err := OptimizeRoutes(plan, RouteOptions{K: -1}); err == nil {
		t.Error("negative K accepted")
	}
	if _, err := OptimizeRoutes(plan, RouteOptions{Stretch: 0.5}); err == nil {
		t.Error("stretch < 1 accepted")
	}
}

func TestOptimizeRoutesSpreadsContendingPairs(t *testing.T) {
	// Pair 0->3 and pair 1->3 both want the (1,3) link when routed by
	// shortest paths. With K=2 and a generous stretch budget, the
	// optimizer detours one of them, halving the busiest directed link.
	tp := parallelTopo(t)
	plan := planWithPairs(t, tp, []int{10})
	g := plan.Graph
	up := fixedMAT("ru", 0.1)
	down := fixedMAT("rd", 0.1)
	if err := g.AddNode(up); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(down); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("ru", "rd", tdg.DepMatch, 10); err != nil {
		t.Fatal(err)
	}
	plan.Assignments["ru"] = StagePlacement{Switch: 1, Start: 0, End: 0, PerStage: []float64{0.1}}
	plan.Assignments["rd"] = StagePlacement{Switch: 3, Start: 1, End: 1, PerStage: []float64{0.1}}

	maxLink, err := OptimizeRoutes(plan, RouteOptions{K: 3, Stretch: 6})
	if err != nil {
		t.Fatal(err)
	}
	if maxLink != 10 {
		t.Errorf("max link load = %d, want 10 (one pair detours)", maxLink)
	}
	if err := plan.Validate(DefaultRM(), 0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizeRoutesHonorsStretchBudget(t *testing.T) {
	// Make route via 2 much slower; with stretch 1.0 both pairs must
	// stay on the fast route even though it doubles the link load.
	tp := network.NewTopology("skewed")
	for i := 0; i < 4; i++ {
		tp.AddSwitch(network.Switch{
			Programmable: true, Stages: 4, StageCapacity: 1,
			TransitLatency: time.Microsecond,
		})
	}
	for _, l := range []struct {
		a, b network.SwitchID
		lat  time.Duration
	}{
		{0, 1, time.Millisecond}, {1, 3, time.Millisecond},
		{0, 2, 10 * time.Millisecond}, {2, 3, 10 * time.Millisecond},
	} {
		if err := tp.AddLink(l.a, l.b, l.lat); err != nil {
			t.Fatal(err)
		}
	}
	plan := planWithPairs(t, tp, []int{10})
	g := plan.Graph
	up := fixedMAT("ru", 0.1)
	down := fixedMAT("rd", 0.1)
	if err := g.AddNode(up); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(down); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("ru", "rd", tdg.DepMatch, 10); err != nil {
		t.Fatal(err)
	}
	plan.Assignments["ru"] = StagePlacement{Switch: 3, Start: 0, End: 0, PerStage: []float64{0.1}}
	plan.Assignments["rd"] = StagePlacement{Switch: 0, Start: 1, End: 1, PerStage: []float64{0.1}}

	if _, err := OptimizeRoutes(plan, RouteOptions{K: 2, Stretch: 1.0}); err != nil {
		t.Fatal(err)
	}
	// Opposite directions do not contend (directed links), but with a
	// 1.0 stretch neither pair may take the slow detour through 2.
	for _, path := range plan.Routes {
		if path.Contains(2) {
			t.Error("a pair took the slow route despite stretch 1.0")
		}
	}
}

func TestReplanAfterDrain(t *testing.T) {
	g, tp := figure1(t)
	plan, err := (Greedy{}).Solve(g, tp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	used := plan.UsedSwitches()
	if len(used) < 2 {
		t.Fatal("test expects a multi-switch plan")
	}
	newPlan, err := Replan(plan, Greedy{}, Options{}, used[0])
	if err != nil {
		t.Fatal(err)
	}
	for name := range newPlan.Assignments {
		if sw, _ := newPlan.SwitchOf(name); sw == used[0] {
			t.Errorf("MAT %q still on drained switch %d", name, used[0])
		}
	}
	if err := newPlan.Validate(DefaultRM(), 0, 0); err != nil {
		t.Fatal(err)
	}
	moved, err := Diff(plan, newPlan)
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Error("drain moved no MATs")
	}
}

func TestReplanErrors(t *testing.T) {
	g, tp := figure1(t)
	plan, err := (Greedy{}).Solve(g, tp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replan(nil, Greedy{}, Options{}, 0); err == nil {
		t.Error("nil plan accepted")
	}
	if _, err := Replan(plan, Greedy{}, Options{}); err == nil {
		t.Error("empty drain list accepted")
	}
	if _, err := Replan(plan, Greedy{}, Options{}, 99); err == nil {
		t.Error("unknown switch accepted")
	}
	// Draining everything must fail.
	if _, err := Replan(plan, Greedy{}, Options{}, 0, 1, 2); err == nil {
		t.Error("draining all switches accepted")
	}
}

func TestDiffErrors(t *testing.T) {
	g, tp := figure1(t)
	plan, err := (Greedy{}).Solve(g, tp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Diff(plan, nil); err == nil {
		t.Error("nil plan accepted")
	}
	if moved, err := Diff(plan, plan); err != nil || moved != 0 {
		t.Errorf("self diff = %d, %v", moved, err)
	}
}

// DefaultRM returns the default resource model; a local shorthand.
func DefaultRM() program.ResourceModel { return program.DefaultResourceModel }

func TestPlanJSONRoundTrip(t *testing.T) {
	g, tp := figure1(t)
	plan, err := (Greedy{}).Solve(g, tp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := plan.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodePlan(data, g, tp, program.DefaultResourceModel)
	if err != nil {
		t.Fatal(err)
	}
	if back.AMax() != plan.AMax() || back.QOcc() != plan.QOcc() {
		t.Errorf("round trip changed objectives: A=%d/%d Q=%d/%d",
			back.AMax(), plan.AMax(), back.QOcc(), plan.QOcc())
	}
	if back.TE2E() != plan.TE2E() {
		t.Errorf("route latencies changed: %v vs %v", back.TE2E(), plan.TE2E())
	}
	if back.SolverName != plan.SolverName || back.SolveTime != plan.SolveTime {
		t.Error("provenance lost")
	}
}

// TestPlanJSONIsCanonical encodes one multi-route plan repeatedly: the
// bytes must not depend on map iteration order, and must round-trip.
func TestPlanJSONIsCanonical(t *testing.T) {
	plan, topo := tableIIIInstance(t, 1, 30)
	if len(plan.Routes) < 4 {
		t.Fatalf("fixture has %d routes; map order needs several to show", len(plan.Routes))
	}
	first, err := plan.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 20; i++ {
		data, err := plan.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, first) {
			t.Fatalf("encoding %d of the same plan differs from the first", i)
		}
	}
	back, err := DecodePlan(first, plan.Graph, topo, program.DefaultResourceModel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Assignments, plan.Assignments) || !reflect.DeepEqual(back.Routes, plan.Routes) {
		t.Error("round trip changed the decision variables")
	}
	again, err := back.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, first) {
		t.Error("re-encoding the decoded plan yields different bytes")
	}
}

func TestDecodePlanRejectsCorruption(t *testing.T) {
	g, tp := figure1(t)
	plan, err := (Greedy{}).Solve(g, tp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := plan.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePlan([]byte("{"), g, tp, program.DefaultResourceModel); err == nil {
		t.Error("malformed JSON decoded")
	}
	// Wrong graph: a TDG missing the assigned MATs.
	other := tdg.New()
	if err := other.AddNode(fixedMAT("zz", 0.1)); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePlan(data, other, tp, program.DefaultResourceModel); err == nil {
		t.Error("plan decoded against wrong TDG")
	}
	// Tampered stage assignment must fail validation.
	tampered := []byte(strings.Replace(string(data), `"start": 0`, `"start": 99`, 1))
	if _, err := DecodePlan(tampered, g, tp, program.DefaultResourceModel); err == nil {
		t.Error("tampered plan decoded")
	}
	// Version gate.
	versioned := []byte(strings.Replace(string(data), `"version": 1`, `"version": 9`, 1))
	if _, err := DecodePlan(versioned, g, tp, program.DefaultResourceModel); err == nil {
		t.Error("future version decoded")
	}
}
