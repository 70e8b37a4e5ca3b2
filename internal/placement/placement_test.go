package placement

import (
	"math/rand"
	"testing"
	"time"

	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

// fixedMAT builds a MAT with a fixed normalized requirement.
func fixedMAT(name string, req float64) *program.MAT {
	return &program.MAT{
		Name:             name,
		Capacity:         16,
		FixedRequirement: req,
		Actions: []program.Action{{
			Name: "a",
			Ops:  []program.Op{program.SetOp(fields.Metadata("meta."+name, 8), 1)},
		}},
	}
}

// chainTDG builds a linear TDG n0 -> n1 -> ... with the given per-edge
// metadata bytes and per-node requirement.
func chainTDG(t *testing.T, names []string, bytes []int, req float64) *tdg.Graph {
	t.Helper()
	g := tdg.New()
	for _, n := range names {
		if err := g.AddNode(fixedMAT(n, req)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i+1 < len(names); i++ {
		if err := g.AddEdge(names[i], names[i+1], tdg.DepMatch, bytes[i]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// twoMATSwitchTopo builds a linear topology of n programmable switches
// where each switch tolerates exactly two MATs of requirement 0.5
// (2 stages × 0.5 capacity), reproducing the paper's running example.
func twoMATSwitchTopo(t *testing.T, n int) *network.Topology {
	t.Helper()
	tp := network.NewTopology("example")
	for i := 0; i < n; i++ {
		tp.AddSwitch(network.Switch{
			Programmable:   true,
			Stages:         2,
			StageCapacity:  0.5,
			TransitLatency: time.Microsecond,
		})
	}
	for i := 0; i+1 < n; i++ {
		if err := tp.AddLink(network.SwitchID(i), network.SwitchID(i+1), time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	return tp
}

// figure1 reproduces the paper's Figure 1: MATs a -> b -> c where a
// delivers 1 byte to b and b delivers 4 bytes to c; each switch
// tolerates two MATs.
func figure1(t *testing.T) (*tdg.Graph, *network.Topology) {
	t.Helper()
	g := chainTDG(t, []string{"a", "b", "c"}, []int{1, 4}, 0.5)
	return g, twoMATSwitchTopo(t, 3)
}

func TestPackStagesChain(t *testing.T) {
	g := chainTDG(t, []string{"a", "b", "c"}, []int{1, 1}, 0.3)
	sw := &network.Switch{ID: 0, Name: "s", Programmable: true, Stages: 12, StageCapacity: 1}
	placed, err := PackStages(g, g.NodeNames(), sw, program.DefaultResourceModel)
	if err != nil {
		t.Fatal(err)
	}
	// Dependencies force strictly increasing stages (Eq. 8).
	if !(placed["a"].End < placed["b"].Start && placed["b"].End < placed["c"].Start) {
		t.Errorf("stage order violated: a=%+v b=%+v c=%+v", placed["a"], placed["b"], placed["c"])
	}
	for n, sp := range placed {
		if got := sp.Total(); got != 0.3 {
			t.Errorf("%s total = %g, want 0.3", n, got)
		}
	}
}

func TestPackStagesSpreadsBigMAT(t *testing.T) {
	g := tdg.New()
	if err := g.AddNode(fixedMAT("big", 2.5)); err != nil {
		t.Fatal(err)
	}
	sw := &network.Switch{ID: 0, Programmable: true, Stages: 4, StageCapacity: 1}
	placed, err := PackStages(g, []string{"big"}, sw, program.DefaultResourceModel)
	if err != nil {
		t.Fatal(err)
	}
	sp := placed["big"]
	if sp.Start != 0 || sp.End != 2 {
		t.Errorf("big spans [%d,%d], want [0,2]", sp.Start, sp.End)
	}
	if sp.Total() != 2.5 {
		t.Errorf("total = %g, want 2.5", sp.Total())
	}
}

func TestPackStagesDependencyDepthExceedsStages(t *testing.T) {
	g := chainTDG(t, []string{"a", "b", "c"}, []int{1, 1}, 0.1)
	sw := &network.Switch{ID: 0, Programmable: true, Stages: 2, StageCapacity: 1}
	if _, err := PackStages(g, g.NodeNames(), sw, program.DefaultResourceModel); err == nil {
		t.Error("3-deep chain packed into 2 stages")
	}
}

func TestPackStagesCapacityExceeded(t *testing.T) {
	g := tdg.New()
	if err := g.AddNode(fixedMAT("m", 3)); err != nil {
		t.Fatal(err)
	}
	sw := &network.Switch{ID: 0, Programmable: true, Stages: 2, StageCapacity: 1}
	if _, err := PackStages(g, []string{"m"}, sw, program.DefaultResourceModel); err == nil {
		t.Error("3.0 requirement packed into 2.0 capacity")
	}
}

func TestPackStagesSkipsFullStages(t *testing.T) {
	// Two independent MATs: first fills stage 0 entirely, second must
	// land in stage 1.
	g := tdg.New()
	if err := g.AddNode(fixedMAT("fat", 1.0)); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(fixedMAT("thin", 0.5)); err != nil {
		t.Fatal(err)
	}
	sw := &network.Switch{ID: 0, Programmable: true, Stages: 2, StageCapacity: 1}
	placed, err := PackStages(g, []string{"fat", "thin"}, sw, program.DefaultResourceModel)
	if err != nil {
		t.Fatal(err)
	}
	if placed["thin"].Start != 1 {
		t.Errorf("thin at stage %d, want 1", placed["thin"].Start)
	}
}

func TestPackStagesRejectsNonProgrammable(t *testing.T) {
	g := chainTDG(t, []string{"a"}, nil, 0.1)
	sw := &network.Switch{ID: 0, Programmable: false}
	if _, err := PackStages(g, []string{"a"}, sw, program.DefaultResourceModel); err == nil {
		t.Error("packed onto non-programmable switch")
	}
	if _, err := PackStages(g, []string{"a"}, nil, program.DefaultResourceModel); err == nil {
		t.Error("packed onto nil switch")
	}
}

func TestSplitTDGFigure1(t *testing.T) {
	g, tp := figure1(t)
	sw, _ := tp.Switch(0)
	segs, err := splitNames(g, sw, program.DefaultResourceModel)
	if err != nil {
		t.Fatal(err)
	}
	// The min cut is after a (1 byte) — splitting b from c would cost 4.
	if len(segs) != 2 {
		t.Fatalf("got %d segments, want 2", len(segs))
	}
	if len(segs[0]) != 1 || !contains(segs[0], "a") {
		t.Errorf("first segment = %v, want {a}", segs[0])
	}
	if len(segs[1]) != 2 {
		t.Errorf("second segment = %v, want {b,c}", segs[1])
	}
}

func TestSplitTDGAlreadyFits(t *testing.T) {
	g := chainTDG(t, []string{"a", "b"}, []int{4}, 0.3)
	sw := &network.Switch{ID: 0, Programmable: true, Stages: 12, StageCapacity: 1}
	segs, err := splitNames(g, sw, program.DefaultResourceModel)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Errorf("got %d segments, want 1", len(segs))
	}
}

func TestSplitTDGOversizedMAT(t *testing.T) {
	g := chainTDG(t, []string{"huge"}, nil, 99)
	sw := &network.Switch{ID: 0, Programmable: true, Stages: 2, StageCapacity: 1}
	if _, err := splitNames(g, sw, program.DefaultResourceModel); err == nil {
		t.Error("oversized single MAT split succeeded")
	}
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

func TestGreedyFigure1(t *testing.T) {
	g, tp := figure1(t)
	plan, err := (Greedy{}).Solve(g, tp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(program.DefaultResourceModel, 0, 0); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Figure 1(b): deploying b and c together drops the overhead from 4
	// to 1 byte.
	if got := plan.AMax(); got != 1 {
		t.Errorf("AMax = %d, want 1 (paper Fig. 1b)", got)
	}
	if got := plan.QOcc(); got != 2 {
		t.Errorf("QOcc = %d, want 2", got)
	}
	// b and c co-located.
	ub, _ := plan.SwitchOf("b")
	uc, _ := plan.SwitchOf("c")
	if ub != uc {
		t.Errorf("b on %d, c on %d; want co-located", ub, uc)
	}
}

func TestGreedySingleSwitchNoOverhead(t *testing.T) {
	g := chainTDG(t, []string{"a", "b", "c"}, []int{9, 9}, 0.2)
	tp := twoMATSwitchTopo(t, 3)
	// Grow the switches so everything fits on one.
	for _, s := range tp.Switches() {
		s.Stages = 12
		s.StageCapacity = 1
	}
	plan, err := (Greedy{}).Solve(g, tp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.AMax() != 0 {
		t.Errorf("AMax = %d, want 0 on a single switch", plan.AMax())
	}
	if plan.QOcc() != 1 {
		t.Errorf("QOcc = %d, want 1", plan.QOcc())
	}
	if err := plan.Validate(program.DefaultResourceModel, 0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyRespectsEpsilon2(t *testing.T) {
	// 4 MATs of 0.5 onto 2-MAT switches needs 2 switches; ε2 = 1 must
	// fail.
	g := chainTDG(t, []string{"a", "b", "c", "d"}, []int{1, 1, 1}, 0.5)
	tp := twoMATSwitchTopo(t, 4)
	if _, err := (Greedy{}).Solve(g, tp, Options{Epsilon2: 1}); err == nil {
		t.Error("ε2=1 deployment of multi-switch workload succeeded")
	}
	// Two 2-MAT switches suffice; the DP capacity split finds that even
	// when the byte-driven bisection wants three segments.
	plan, err := (Greedy{}).Solve(g, tp, Options{Epsilon2: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(program.DefaultResourceModel, 0, 2); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyErrors(t *testing.T) {
	tp := twoMATSwitchTopo(t, 2)
	if _, err := (Greedy{}).Solve(tdg.New(), tp, Options{}); err == nil {
		t.Error("empty TDG accepted")
	}
	// Topology with no programmable switches.
	tp2 := network.NewTopology("plain")
	tp2.AddSwitch(network.Switch{})
	g := chainTDG(t, []string{"a"}, nil, 0.1)
	if _, err := (Greedy{}).Solve(g, tp2, Options{}); err == nil {
		t.Error("no-programmable-switch topology accepted")
	}
}

func TestGreedyRefinesWhenPackingFails(t *testing.T) {
	// Three dependent MATs of 0.2 fit one switch by capacity
	// (0.6 <= 2*0.5) but the chain depth 3 exceeds 2 stages, forcing
	// refinement into more segments.
	g := chainTDG(t, []string{"a", "b", "c"}, []int{2, 3}, 0.2)
	tp := twoMATSwitchTopo(t, 3)
	plan, err := (Greedy{}).Solve(g, tp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(program.DefaultResourceModel, 0, 0); err != nil {
		t.Fatal(err)
	}
	if plan.QOcc() < 2 {
		t.Errorf("QOcc = %d, want >= 2 after refinement", plan.QOcc())
	}
}

func TestExactFigure1(t *testing.T) {
	g, tp := figure1(t)
	plan, err := (Exact{}).Solve(g, tp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Proven {
		t.Error("small instance not proven optimal")
	}
	if got := plan.AMax(); got != 1 {
		t.Errorf("exact AMax = %d, want 1", got)
	}
	if err := plan.Validate(program.DefaultResourceModel, 0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestExactNeverWorseThanGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 15; trial++ {
		n := 3 + rng.Intn(3) // 3..5 MATs
		names := make([]string, n)
		for i := range names {
			names[i] = string(rune('a' + i))
		}
		g := tdg.New()
		for _, nm := range names {
			if err := g.AddNode(fixedMAT(nm, 0.3+0.2*rng.Float64())); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.5 {
					if err := g.AddEdge(names[i], names[j], tdg.DepMatch, rng.Intn(10)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		tp := twoMATSwitchTopo(t, 3)
		for _, s := range tp.Switches() {
			s.Stages = 4
			s.StageCapacity = 0.6
		}
		gp, gerr := (Greedy{}).Solve(g, tp, Options{})
		ep, eerr := (Exact{}).Solve(g, tp, Options{})
		if eerr != nil {
			if gerr == nil {
				t.Fatalf("trial %d: greedy solved but exact failed: %v", trial, eerr)
			}
			continue
		}
		if err := ep.Validate(program.DefaultResourceModel, 0, 0); err != nil {
			t.Fatalf("trial %d: exact plan invalid: %v", trial, err)
		}
		if gerr == nil && ep.AMax() > gp.AMax() {
			t.Errorf("trial %d: exact AMax %d worse than greedy %d", trial, ep.AMax(), gp.AMax())
		}
	}
}

func TestPlanValidateCatchesTampering(t *testing.T) {
	g, tp := figure1(t)
	plan, err := (Greedy{}).Solve(g, tp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rm := program.DefaultResourceModel

	t.Run("missing MAT", func(t *testing.T) {
		bad := *plan
		bad.Assignments = map[string]StagePlacement{}
		for k, v := range plan.Assignments {
			bad.Assignments[k] = v
		}
		delete(bad.Assignments, "a")
		if err := bad.Validate(rm, 0, 0); err == nil {
			t.Error("missing assignment accepted")
		}
	})
	t.Run("missing route", func(t *testing.T) {
		bad := *plan
		bad.Routes = map[RouteKey]network.Path{}
		if err := bad.Validate(rm, 0, 0); err == nil {
			t.Error("missing routes accepted")
		}
	})
	t.Run("stage order violated", func(t *testing.T) {
		bad := *plan
		bad.Assignments = map[string]StagePlacement{}
		for k, v := range plan.Assignments {
			bad.Assignments[k] = v
		}
		// Put b and c both at stage 0 on the same switch: breaks Eq. 8
		// (and possibly Eq. 9).
		sb := bad.Assignments["b"]
		sc := bad.Assignments["c"]
		sc.Start, sc.End = sb.Start, sb.End
		sc.PerStage = append([]float64(nil), sb.PerStage...)
		bad.Assignments["c"] = sc
		if err := bad.Validate(rm, 0, 0); err == nil {
			t.Error("stage order violation accepted")
		}
	})
	t.Run("epsilon violated", func(t *testing.T) {
		if err := plan.Validate(rm, time.Nanosecond, 0); err == nil {
			t.Error("ε1=1ns accepted despite ms links")
		}
		if err := plan.Validate(rm, 0, 1); err == nil {
			t.Error("ε2=1 accepted for 2-switch plan")
		}
	})
}

func TestPlanMetrics(t *testing.T) {
	g, tp := figure1(t)
	plan, err := (Greedy{}).Solve(g, tp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalCrossBytes() != 1 {
		t.Errorf("TotalCrossBytes = %d, want 1", plan.TotalCrossBytes())
	}
	if plan.TE2E() <= 0 {
		t.Error("TE2E should be positive for a cross-switch plan")
	}
	if maxWireBytes(plan) != 1 {
		t.Errorf("MaxWireBytes = %d, want 1", maxWireBytes(plan))
	}
	order, err := plan.SwitchOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 {
		t.Errorf("SwitchOrder = %v, want 2 switches", order)
	}
	if plan.Summary() == "" {
		t.Error("empty Summary")
	}
}

func TestGreedyDeterministic(t *testing.T) {
	g, tp := figure1(t)
	p1, err := (Greedy{}).Solve(g, tp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := (Greedy{}).Solve(g, tp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, sp1 := range p1.Assignments {
		sp2 := p2.Assignments[name]
		if sp1.Switch != sp2.Switch || sp1.Start != sp2.Start || sp1.End != sp2.End {
			t.Errorf("non-deterministic placement for %s: %+v vs %+v", name, sp1, sp2)
		}
	}
}

func TestExactDeadlineReturnsIncumbent(t *testing.T) {
	// A moderately large instance with an immediate deadline: the warm
	// start incumbent must come back, unproven.
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	bytes := []int{3, 1, 4, 1, 5, 9, 2}
	g := chainTDG(t, names, bytes, 0.5)
	tp := twoMATSwitchTopo(t, 8)
	plan, err := (Exact{}).Solve(g, tp, Options{Deadline: time.Now().Add(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(program.DefaultResourceModel, 0, 0); err != nil {
		t.Fatal(err)
	}
}
