package hermes_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	hermes "github.com/hermes-net/hermes"
)

// facadeWorkload builds a small two-program workload through the public
// API only.
func facadeWorkload(t testing.TB) []*hermes.Program {
	t.Helper()
	idx := hermes.MetadataField("meta.idx", 32)
	cnt := hermes.MetadataField("meta.cnt", 32)
	src := hermes.HeaderField("ipv4.srcAddr", 32)

	monitor, err := hermes.NewProgram("monitor").
		Table("hash", 1).
		ActionDef("mix", hermes.HashOp(idx, src)).
		Default("mix").
		Table("count", 2048).
		Key(idx, hermes.MatchExact).
		ActionDef("bump", hermes.CountOp(cnt, idx)).
		Default("bump").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	routerSrc := `
program router;
metadata nhop : 32;
table lpm {
  key ipv4.dstAddr : lpm;
  capacity 4096;
  action set_nhop { set nhop <- 1; dec ipv4.ttl; }
  default set_nhop;
}
table next_hop {
  key nhop : exact;
  capacity 256;
  action fwd { set meta.egress_port <- 1; }
  default fwd;
}
`
	router, err := hermes.ParseP4Lite(routerSrc)
	if err != nil {
		t.Fatal(err)
	}
	return []*hermes.Program{monitor, router}
}

func facadeTopo(t testing.TB) *hermes.Topology {
	t.Helper()
	spec := hermes.TestbedSpec()
	spec.Stages = 3
	spec.StageCapacity = 0.1
	topo, err := hermes.LinearTopology(4, spec)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestDeployEndToEnd(t *testing.T) {
	progs := facadeWorkload(t)
	topo := facadeTopo(t)
	res, err := hermes.Deploy(progs, topo, hermes.DeployOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TDG == nil || res.Plan == nil || res.Deployment == nil {
		t.Fatal("result incomplete")
	}
	if res.Plan.QOcc() < 2 {
		t.Fatalf("workload should span switches, got %d", res.Plan.QOcc())
	}
	if err := res.Plan.Validate(hermes.DefaultResourceModel(), 0, 0); err != nil {
		t.Fatal(err)
	}

	// Exercise the deployment with generated traffic.
	pkts, _, err := hermes.TrafficSpec{Packets: 300, Flows: 16, Seed: 5}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	maxHdr, err := hermes.VerifyEquivalence(res.Deployment, pkts)
	if err != nil {
		t.Fatal(err)
	}
	if maxHdr > res.Plan.AMax() {
		t.Errorf("wire header %d exceeds A_max %d", maxHdr, res.Plan.AMax())
	}
}

func TestDeployWithAllSolvers(t *testing.T) {
	progs := facadeWorkload(t)
	topo := facadeTopo(t)
	solvers := append([]hermes.Solver{hermes.GreedySolver, hermes.ExactSolver},
		hermes.Baselines()...)
	for _, s := range solvers {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			res, err := hermes.Deploy(progs, topo, hermes.DeployOptions{
				Solver:         s,
				SolverDeadline: 5 * time.Second,
			})
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			if err := res.Plan.Validate(hermes.DefaultResourceModel(), 0, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDeployRollsOutFromPrior: a deployment adopted over Prior runs
// the staged rollout from epoch 1 to epoch 2 and commits.
func TestDeployRollsOutFromPrior(t *testing.T) {
	progs := facadeWorkload(t)
	topo := facadeTopo(t)
	first, err := hermes.Deploy(progs[:1], topo, hermes.DeployOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Rollout != nil {
		t.Error("a deployment without Prior reported a rollout")
	}
	next, err := hermes.Deploy(progs, topo, hermes.DeployOptions{Prior: first.Deployment})
	if err != nil {
		t.Fatal(err)
	}
	rep := next.Rollout
	if rep == nil {
		t.Fatal("Deploy with Prior returned no rollout report")
	}
	if rep.FromEpoch != 1 || rep.ToEpoch != 2 || rep.Outcome != hermes.RolloutCommitted {
		t.Errorf("rollout %d→%d %s, want 1→2 %s", rep.FromEpoch, rep.ToEpoch, rep.Outcome, hermes.RolloutCommitted)
	}
}

func TestRuntimeControllerThroughFacade(t *testing.T) {
	progs := facadeWorkload(t)
	topo := facadeTopo(t)
	res, err := hermes.Deploy(progs, topo, hermes.DeployOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := hermes.NewController(res.Deployment)
	if err != nil {
		t.Fatal(err)
	}
	rule := hermes.Rule{
		Priority: 1,
		Matches:  map[string]hermes.Pattern{"meta.idx": {Value: 3}},
		Action:   "bump",
	}
	if err := ctl.InstallRule("monitor/count", rule); err != nil {
		t.Fatal(err)
	}
	n, err := ctl.RuleCount("monitor/count")
	if err != nil || n != 1 {
		t.Fatalf("RuleCount = %d, %v", n, err)
	}
}

func TestReplanThroughFacade(t *testing.T) {
	progs := facadeWorkload(t)
	topo := facadeTopo(t)
	res, err := hermes.Deploy(progs, topo, hermes.DeployOptions{})
	if err != nil {
		t.Fatal(err)
	}
	used := res.Plan.UsedSwitches()
	newPlan, err := hermes.Replan(res.Plan, hermes.GreedySolver, hermes.SolveOptions{}, used[0])
	if err != nil {
		t.Fatal(err)
	}
	moved, err := hermes.PlanDiff(res.Plan, newPlan)
	if err != nil {
		t.Fatal(err)
	}
	if moved == 0 {
		t.Error("drain moved nothing")
	}
	for name := range newPlan.Assignments {
		if sw, _ := newPlan.SwitchOf(name); sw == used[0] {
			t.Errorf("MAT %q still on drained switch", name)
		}
	}
}

// TestDecodePlanRejectsForeignAndMissingMATs: a serialized plan is
// input from outside the program, so DecodePlan holds it to Eq. 6 at
// the boundary: it must place exactly its graph's MATs.
func TestDecodePlanRejectsForeignAndMissingMATs(t *testing.T) {
	res, err := hermes.Deploy(facadeWorkload(t), facadeTopo(t), hermes.DeployOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.Plan.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hermes.DecodePlan(data, res.TDG, res.Plan.Topo); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	names := res.TDG.NodeNames()
	for _, tc := range []struct {
		name string
		edit func(as map[string]json.RawMessage)
		want string
	}{
		{"foreign MAT", func(as map[string]json.RawMessage) { as["ghost"] = as[names[0]] },
			`placement: decoded plan invalid: placement: MAT "ghost" is not in the plan's graph (Eq. 6)`},
		{"missing MAT", func(as map[string]json.RawMessage) { delete(as, names[0]) },
			fmt.Sprintf(`placement: decoded plan invalid: placement: MAT %q not deployed (Eq. 6)`, names[0])},
	} {
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		var as map[string]json.RawMessage
		if err := json.Unmarshal(doc["assignments"], &as); err != nil {
			t.Fatal(err)
		}
		tc.edit(as)
		if doc["assignments"], err = json.Marshal(as); err != nil {
			t.Fatal(err)
		}
		edited, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := hermes.DecodePlan(edited, res.TDG, res.Plan.Topo); fmt.Sprint(err) != tc.want {
			t.Errorf("%s: DecodePlan = %v, want %s", tc.name, err, tc.want)
		}
	}
}

func TestOptimizeRoutesThroughFacade(t *testing.T) {
	progs := facadeWorkload(t)
	topo := facadeTopo(t)
	res, err := hermes.Deploy(progs, topo, hermes.DeployOptions{})
	if err != nil {
		t.Fatal(err)
	}
	maxLink, err := hermes.OptimizeRoutes(res.Plan, hermes.RouteOptions{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if maxLink < 0 {
		t.Errorf("max link = %d", maxLink)
	}
	if err := res.Plan.Validate(hermes.DefaultResourceModel(), 0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestEpsilonConstraintsThroughFacade(t *testing.T) {
	progs := facadeWorkload(t)
	topo := facadeTopo(t)
	if _, err := hermes.Deploy(progs, topo, hermes.DeployOptions{Epsilon2: 1}); err == nil {
		t.Error("ε2=1 accepted for a multi-switch workload")
	}
	res, err := hermes.Deploy(progs, topo, hermes.DeployOptions{Epsilon2: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.QOcc() > 3 {
		t.Errorf("QOcc = %d exceeds ε2=3", res.Plan.QOcc())
	}
}

func TestDeployWithLintGate(t *testing.T) {
	// DeployOptions.Lint lints the merged TDG after analysis and the
	// plan after the solve, and Equiv proves the compiled deployment; a
	// clean workload must pass all three end to end.
	progs := facadeWorkload(t)
	topo := facadeTopo(t)
	res, err := hermes.Deploy(progs, topo, hermes.DeployOptions{Lint: true, Equiv: true})
	if err != nil {
		t.Fatalf("lint-gated deploy of a clean workload must succeed: %v", err)
	}
	if res.Plan == nil || res.Deployment == nil {
		t.Fatal("result incomplete")
	}
}

// overfillSolver returns GreedySolver's plan with one stage pushed past
// its capacity. Compile and Verify accept it (they check the configs
// against the plan, not the plan against Eq. 9); the plan lint's HL104
// does not.
type overfillSolver struct{}

func (overfillSolver) Name() string { return "overfill" }

func (overfillSolver) Solve(g *hermes.TDG, topo *hermes.Topology, opts hermes.SolveOptions) (*hermes.Plan, error) {
	p, err := hermes.GreedySolver.Solve(g, topo, opts)
	if err != nil {
		return nil, err
	}
	name := g.NodeNames()[0]
	sp := p.Assignments[name]
	sw, err := p.Topo.Switch(sp.Switch)
	if err != nil {
		return nil, err
	}
	sp.PerStage = append([]float64(nil), sp.PerStage...)
	sp.PerStage[0] += sw.StageCapacity
	p.Assignments[name] = sp
	p.InvalidateCache()
	return p, nil
}

// TestLintGatesEverySolver: Lint gates the plan of any Solver, not only
// the built-in ones, on both the deploy and the redeploy path.
func TestLintGatesEverySolver(t *testing.T) {
	progs := facadeWorkload(t)
	topo := facadeTopo(t)
	if _, err := hermes.Deploy(progs, topo, hermes.DeployOptions{Solver: overfillSolver{}}); err != nil {
		t.Fatalf("ungated deploy of the overfilled plan must pass Compile and Verify: %v", err)
	}
	_, err := hermes.Deploy(progs, topo, hermes.DeployOptions{Solver: overfillSolver{}, Lint: true})
	if err == nil || !strings.Contains(err.Error(), "HL104") {
		t.Fatalf("lint-gated deploy of an overfilled plan = %v, want the HL104 finding", err)
	}

	res, err := hermes.Deploy(progs, topo, hermes.DeployOptions{})
	if err != nil {
		t.Fatal(err)
	}
	drain := res.Plan.UsedSwitches()[0]
	full := hermes.ReplanOptions{Mode: hermes.ReplanFull}
	if _, _, err := hermes.Redeploy(res.Deployment, overfillSolver{}, full, hermes.AnalyzeOptions{}, drain); err != nil {
		t.Fatalf("ungated full redeploy of the overfilled plan must pass Compile and Verify: %v", err)
	}
	full.Lint = true
	_, _, err = hermes.Redeploy(res.Deployment, overfillSolver{}, full, hermes.AnalyzeOptions{}, drain)
	if err == nil || !strings.Contains(err.Error(), "HL104") {
		t.Fatalf("lint-gated full redeploy of an overfilled plan = %v, want the HL104 finding", err)
	}
}

func TestWorkloadHelpersThroughFacade(t *testing.T) {
	if len(hermes.RealPrograms()) != 10 {
		t.Error("RealPrograms != 10")
	}
	syn, err := hermes.SyntheticPrograms(3, 1)
	if err != nil || len(syn) != 3 {
		t.Fatalf("SyntheticPrograms: %d, %v", len(syn), err)
	}
	sk, err := hermes.Sketches(4, 1)
	if err != nil || len(sk) != 4 {
		t.Fatalf("Sketches: %d, %v", len(sk), err)
	}
	if _, err := hermes.TableIIITopology(3, hermes.TofinoSpec()); err != nil {
		t.Fatal(err)
	}
	flow := hermes.DefaultFlow(1024)
	imp, err := flow.ImpactOf(48)
	if err != nil || imp.FCTIncrease <= 0 {
		t.Fatalf("ImpactOf: %+v, %v", imp, err)
	}
}
