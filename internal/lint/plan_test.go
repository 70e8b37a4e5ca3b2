package lint

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
	"github.com/hermes-net/hermes/internal/workload"
)

// fixedMAT and chainTDG mirror the placement package's test fixtures:
// MATs with a pinned requirement wired into a linear dependency chain.
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

func smallTopo(t *testing.T, n int) *network.Topology {
	t.Helper()
	tp := network.NewTopology("lint-test")
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

// solvedChain deploys a->b->c (req 0.5 each) on three 2-stage
// switches: two MATs fill switch 0, the third spills to switch 1.
func solvedChain(t *testing.T) *placement.Plan {
	t.Helper()
	g := chainTDG(t, []string{"a", "b", "c"}, []int{1, 4}, 0.5)
	plan, err := placement.Greedy{}.Solve(g, smallTopo(t, 3), placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func rm() program.ResourceModel { return program.DefaultResourceModel }

// requireOracleRejects asserts that the mutated plan trips the given
// lint rule AND that Plan.Validate agrees the plan is invalid — the
// differential property under seeded faults.
func requireOracleRejects(t *testing.T, p *placement.Plan, rule string) {
	t.Helper()
	fs := LintPlan(p, rm(), 0, 0)
	if len(byRule(fs, rule)) == 0 {
		t.Fatalf("mutation must trigger %s, got %v:\n%s", rule, fs.Rules(), fs.Text())
	}
	if len(fs.OracleErrors()) == 0 {
		t.Fatalf("%s must be an oracle error, got:\n%s", rule, fs.Text())
	}
	if err := p.Validate(rm(), 0, 0); err == nil {
		t.Fatalf("Plan.Validate must agree the %s mutation is invalid", rule)
	}
	if err := CheckPlanOracle(p, rm(), 0, 0); err != nil {
		t.Fatalf("both checkers reject: the oracle must report agreement, got %v", err)
	}
}

func TestLintPlanCleanAgreement(t *testing.T) {
	p := solvedChain(t)
	fs := LintPlan(p, rm(), 0, 0)
	if fs.HasErrors() {
		t.Fatalf("solver plan must lint clean:\n%s", fs.Text())
	}
	if err := CheckPlanOracle(p, rm(), 0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestMutationMissingAssignment(t *testing.T) {
	p := solvedChain(t)
	delete(p.Assignments, "c")
	requireOracleRejects(t, p, "HL101")
}

func TestMutationUnknownSwitch(t *testing.T) {
	p := solvedChain(t)
	sp := p.Assignments["c"]
	sp.Switch = 99
	p.Assignments["c"] = sp
	requireOracleRejects(t, p, "HL102")
}

// TestMutationForeignMAT: an assignment for a MAT outside the graph —
// here on a host switch, with a valid stage window — fails every layer:
// the lint's HL101 (with Validate agreeing), Compile and Verify.
func TestMutationForeignMAT(t *testing.T) {
	p := solvedChain(t)
	clean, err := deploy.Compile(p, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sp := p.Assignments["c"]
	p.Assignments["ghost"] = placement.StagePlacement{Switch: sp.Switch, Start: sp.Start, End: sp.Start, PerStage: []float64{0}}
	requireOracleRejects(t, p, "HL101")
	if f := byRule(LintPlan(p, rm(), 0, 0), "HL101"); len(f) != 1 || f[0].Object != "ghost" {
		t.Fatalf("HL101 findings %v, want one on ghost", f)
	}
	const want = `deploy: MAT "ghost" is not in the plan's graph`
	if _, err := deploy.Compile(p, analyzer.Options{}); fmt.Sprint(err) != want {
		t.Errorf("Compile = %v, want %s", err, want)
	}
	if err := clean.Verify(); fmt.Sprint(err) != want {
		t.Errorf("Verify = %v, want %s", err, want)
	}
}

func TestMutationNonProgrammableSwitch(t *testing.T) {
	g := chainTDG(t, []string{"a", "b", "c"}, []int{1, 4}, 0.5)
	tp := smallTopo(t, 3)
	dumb := tp.AddSwitch(network.Switch{Programmable: false, Stages: 0, TransitLatency: time.Microsecond})
	if err := tp.AddLink(2, dumb, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	plan, err := placement.Greedy{}.Solve(g, tp, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sp := plan.Assignments["c"]
	sp.Switch = dumb
	plan.Assignments["c"] = sp
	fs := LintPlan(plan, rm(), 0, 0)
	if len(byRule(fs, "HL102")) == 0 {
		t.Fatalf("MAT on non-programmable switch must trigger HL102, got %v", fs.Rules())
	}
	if err := plan.Validate(rm(), 0, 0); err == nil {
		t.Fatal("Validate must reject a MAT on a non-programmable switch")
	}
}

func TestMutationDownSwitch(t *testing.T) {
	p := solvedChain(t)
	sp, ok := p.Assignments["a"]
	if !ok {
		t.Fatal("a unassigned")
	}
	// The plan was valid when solved; marking the hosting switch down
	// in the fault overlay invalidates it after the fact — exactly the
	// window the supervisor closes by replanning.
	if err := p.Topo.SetSwitchDown(sp.Switch); err != nil {
		t.Fatal(err)
	}
	requireOracleRejects(t, p, "HL112")
}

func TestMutationShortRequirement(t *testing.T) {
	p := solvedChain(t)
	sp := p.Assignments["c"]
	sp.PerStage = []float64{0.25}
	sp.End = sp.Start
	p.Assignments["c"] = sp
	requireOracleRejects(t, p, "HL103")
}

func TestMutationStageOvercommit(t *testing.T) {
	p := solvedChain(t)
	// Pull b into a's stage on the same switch: the stage now carries
	// 1.0 of its 0.5 capacity (and the a->b order breaks alongside).
	a, b := p.Assignments["a"], p.Assignments["b"]
	b.Switch, b.Start, b.End = a.Switch, a.Start, a.End
	p.Assignments["b"] = b
	requireOracleRejects(t, p, "HL104")
}

func TestMutationStageOrder(t *testing.T) {
	p := solvedChain(t)
	var from, to string
	for _, e := range p.Graph.Edges() {
		if p.Assignments[e.From].Switch == p.Assignments[e.To].Switch {
			from, to = e.From, e.To
			break
		}
	}
	if from == "" {
		t.Fatal("fixture must co-locate at least one dependent pair")
	}
	// Swap the two stage windows: the upstream MAT now ends after the
	// downstream one begins.
	a, b := p.Assignments[from], p.Assignments[to]
	a.Start, a.End, b.Start, b.End = b.Start, b.End, a.Start, a.End
	p.Assignments[from], p.Assignments[to] = a, b
	requireOracleRejects(t, p, "HL105")
}

func TestMutationMissingRoute(t *testing.T) {
	p := solvedChain(t)
	for key := range p.Routes {
		delete(p.Routes, key)
	}
	requireOracleRejects(t, p, "HL106")
}

func TestMutationEpsilonBounds(t *testing.T) {
	p := solvedChain(t)
	eps1 := p.TE2E() - 1 // just under the achieved latency
	fs := LintPlan(p, rm(), eps1, 0)
	if len(byRule(fs, "HL107")) == 0 {
		t.Fatalf("ε1 below t_e2e must trigger HL107, got %v", fs.Rules())
	}
	if err := p.Validate(rm(), eps1, 0); err == nil {
		t.Fatal("Validate must reject the ε1 bound")
	}

	eps2 := p.QOcc() - 1
	fs = LintPlan(p, rm(), 0, eps2)
	if len(byRule(fs, "HL108")) == 0 {
		t.Fatalf("ε2 below Q_occ must trigger HL108, got %v", fs.Rules())
	}
	if err := p.Validate(rm(), 0, eps2); err == nil {
		t.Fatal("Validate must reject the ε2 bound")
	}
}

func TestMutationSwitchCycle(t *testing.T) {
	// a on switch 0, b on switch 1, c back on switch 0: the contracted
	// switch graph is cyclic, so no packet route respects both edges.
	g := chainTDG(t, []string{"a", "b", "c"}, []int{1, 1}, 0.5)
	tp := smallTopo(t, 2)
	mk := func(sw network.SwitchID, stage int) placement.StagePlacement {
		return placement.StagePlacement{Switch: sw, Start: stage, End: stage, PerStage: []float64{0.5}}
	}
	path01, err := tp.ShortestPath(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	path10, err := tp.ShortestPath(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := &placement.Plan{
		Graph: g, Topo: tp,
		Assignments: map[string]placement.StagePlacement{
			"a": mk(0, 0), "b": mk(1, 0), "c": mk(0, 1),
		},
		Routes: map[placement.RouteKey]network.Path{
			{From: 0, To: 1}: path01,
			{From: 1, To: 0}: path10,
		},
	}
	fs := LintPlan(p, rm(), 0, 0)
	if len(byRule(fs, "HL110")) == 0 {
		t.Fatalf("switch-level cycle must trigger HL110, got %v:\n%s", fs.Rules(), fs.Text())
	}
	verr := p.Validate(rm(), 0, 0)
	if verr == nil {
		t.Fatal("Validate must reject the cyclic switch ordering")
	}
	// The error names the stuck switches (satellite: identifiers in
	// validation messages).
	if !strings.Contains(verr.Error(), "switch 0") || !strings.Contains(verr.Error(), "switch 1") {
		t.Fatalf("cycle error must name the switches, got: %v", verr)
	}
}

func TestRouteLatencyCorruption(t *testing.T) {
	p := solvedChain(t)
	for key, path := range p.Routes {
		path.Latency += time.Millisecond
		p.Routes[key] = path
	}
	fs := LintPlan(p, rm(), 0, 0)
	if len(byRule(fs, "HL111")) == 0 {
		t.Fatalf("corrupted route latency must trigger HL111, got %v", fs.Rules())
	}
	// Stricter than Validate: the production checker accepts the plan,
	// so HL111 must not be an oracle finding...
	if len(fs.OracleErrors()) != 0 {
		t.Fatalf("HL111 is stricter than Validate and must not count as oracle disagreement:\n%s", fs.Text())
	}
	// ...but CheckPlanOracle still surfaces the internal inconsistency.
	if err := CheckPlanOracle(p, rm(), 0, 0); err == nil {
		t.Fatal("CheckPlanOracle must flag strict HL111 findings on Validate-clean plans")
	}
}

func TestSolverLintOption(t *testing.T) {
	g := chainTDG(t, []string{"a", "b", "c"}, []int{1, 4}, 0.5)
	p, err := (placement.Greedy{}).Solve(g, smallTopo(t, 3), placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := LintPlan(p, rm(), 0, 0).Err(); err != nil {
		t.Fatalf("clean instance must yield a lint-clean plan: %v", err)
	}
}

// TestDifferentialOracleAcrossSolvers is the acceptance gate: Greedy
// and Exact plans on the paper's Table III topologies must satisfy
// both the independent HL1xx re-implementation and the production
// validators, with full agreement.
func TestDifferentialOracleAcrossSolvers(t *testing.T) {
	progs := workload.RealPrograms()[:3]
	g, err := analyzer.Analyze(progs, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	solvers := []placement.Solver{placement.Greedy{}, placement.Exact{}}
	rows := network.NumTableIII()
	if testing.Short() {
		rows = 3
	}
	for idx := 1; idx <= rows; idx++ {
		topo, err := network.TableIII(idx, network.TofinoSpec())
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range solvers {
			opts := placement.Options{Deadline: time.Now().Add(3 * time.Second)}
			plan, err := s.Solve(g.Clone(), topo, opts)
			if err != nil {
				t.Fatalf("table3:%d %s: %v", idx, s.Name(), err)
			}
			if err := CheckPlanOracle(plan, rm(), 0, 0); err != nil {
				t.Errorf("table3:%d %s: %v", idx, s.Name(), err)
			}
		}
	}
}

// TestDifferentialOracleChains runs both solvers over small chain
// instances and checks oracle agreement on every plan.
func TestDifferentialOracleChains(t *testing.T) {
	solvers := []placement.Solver{placement.Greedy{}, placement.Exact{}}
	for _, n := range []int{3, 4} {
		names := []string{"a", "b", "c", "d"}[:n]
		bytes := []int{1, 4, 2}[:n-1]
		for _, s := range solvers {
			g := chainTDG(t, names, bytes, 0.5)
			plan, err := s.Solve(g, smallTopo(t, n), placement.Options{
				Deadline: time.Now().Add(5 * time.Second),
			})
			if err != nil {
				t.Fatalf("chain-%d %s: %v", n, s.Name(), err)
			}
			if err := CheckPlanOracle(plan, rm(), 0, 0); err != nil {
				t.Errorf("chain-%d %s: %v", n, s.Name(), err)
			}
		}
	}
}

// byRule returns the findings carrying the given rule ID.
func byRule(fs Findings, rule string) Findings {
	var out Findings
	for _, f := range fs {
		if f.Rule == rule {
			out = append(out, f)
		}
	}
	return out
}

// Rules returns the distinct rule IDs present, sorted.
func (fs Findings) Rules() []string {
	seen := map[string]bool{}
	for _, f := range fs {
		seen[f.Rule] = true
	}
	out := make([]string, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	slices.Sort(out)
	return out
}
