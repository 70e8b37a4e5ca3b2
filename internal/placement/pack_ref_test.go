package placement

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
	"github.com/hermes-net/hermes/internal/workload"
)

// packOrderedRef is the name-keyed packer materialization and
// PackStages ran before they packed on node ids, kept as their
// reference: every MAT and in-edge resolved by name, one map per
// switch.
func packOrderedRef(g *tdg.Graph, ordered []string, sw *network.Switch, rm program.ResourceModel) (map[string]StagePlacement, error) {
	used := make([]float64, sw.Stages)
	out := make(map[string]StagePlacement, len(ordered))
	const tol = 1e-9

	for _, name := range ordered {
		node, _ := g.Node(name)
		req := rm.Requirement(node.MAT)
		earliest := 0
		for _, e := range g.InEdgeList(name) {
			if pred, ok := out[e.From]; ok && pred.End+1 > earliest {
				earliest = pred.End + 1
			}
		}
		if earliest >= sw.Stages {
			return nil, fmt.Errorf("placement: MAT %q needs stage >= %d but switch %q has %d stages",
				name, earliest, sw.Name, sw.Stages)
		}
		var perStage []float64
		start, end := -1, -1
		rem := req
		for s := earliest; s < sw.Stages && rem > tol; s++ {
			avail := sw.StageCapacity - used[s]
			if avail <= tol {
				if start >= 0 {
					perStage = append(perStage, 0)
				}
				continue
			}
			chunk := avail
			if rem < chunk {
				chunk = rem
			}
			if start < 0 {
				start = s
			}
			end = s
			perStage = append(perStage, chunk)
			used[s] += chunk
			rem -= chunk
		}
		if rem > tol {
			return nil, fmt.Errorf("placement: MAT %q (R=%g) does not fit on switch %q from stage %d",
				name, req, sw.Name, earliest)
		}
		perStage = perStage[:end-start+1]
		out[name] = StagePlacement{Switch: sw.ID, Start: start, End: end, PerStage: perStage}
	}
	return out, nil
}

// packAssignmentRef is the name-keyed materialization: a name list per
// switch, each put in topological order and packed by packOrderedRef
// into its own map, copied into the plan's. Switches go in ascending ID
// order, so the first failing switch is the one the id packer reports.
func packAssignmentRef(g *tdg.Graph, topo *network.Topology, assign map[string]network.SwitchID, rm program.ResourceModel) (map[string]StagePlacement, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	bySwitch := map[network.SwitchID][]string{}
	for _, name := range order {
		if u, ok := assign[name]; ok {
			bySwitch[u] = append(bySwitch[u], name)
		}
	}
	switches := make([]network.SwitchID, 0, len(bySwitch))
	for u := range bySwitch {
		switches = append(switches, u)
	}
	slices.Sort(switches)
	out := map[string]StagePlacement{}
	for _, u := range switches {
		sw, err := topo.Switch(u)
		if err != nil {
			return nil, err
		}
		if !sw.Programmable {
			return nil, fmt.Errorf("placement: materializing assignment: placement: switch %q is not programmable", sw.Name)
		}
		placed, err := packOrderedRef(g, bySwitch[u], sw, rm)
		if err != nil {
			return nil, fmt.Errorf("placement: materializing assignment: %w", err)
		}
		for name, sp := range placed {
			out[name] = sp
		}
	}
	return out, nil
}

// packFixture is one plan the id packer is held to the reference on.
type packFixture struct {
	name string
	plan *Plan
}

// packFixtures solves the evaluation corpora: random DAGs (Greedy and
// Exact), the Table III mixed workload, the real programs on the paper
// testbed, composite:10 sharded (plain and ε-bounded) and its regional
// replan after draining the busiest switch.
func packFixtures(t *testing.T) []packFixture {
	t.Helper()
	var out []packFixture
	add := func(name string, p *Plan, err error) {
		if err == nil {
			out = append(out, packFixture{name, p})
		}
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		g := randomDAG(rng, 3+rng.Intn(9))
		tp := randomTopo(rng, 2+rng.Intn(4))
		p, err := Greedy{}.Solve(g, tp, Options{})
		add(fmt.Sprintf("random greedy %d", trial), p, err)
		if trial%3 == 0 {
			p, err := Exact{}.Solve(g, tp, Options{})
			add(fmt.Sprintf("random exact %d", trial), p, err)
		}
	}
	analyze := func(progs []*program.Program) *tdg.Graph {
		g, err := analyzer.Analyze(progs, analyzer.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	evalProgs, err := workload.EvaluationPrograms(30, 1)
	if err != nil {
		t.Fatal(err)
	}
	wan, err := network.TableIII(1, network.TofinoSpec())
	if err != nil {
		t.Fatal(err)
	}
	p, err := Greedy{}.Solve(analyze(evalProgs), wan, Options{})
	add("table3 wan30", p, err)
	spec := network.TofinoSpec()
	spec.StageCapacity = 0.15
	lin, err := network.Linear(3, spec)
	if err != nil {
		t.Fatal(err)
	}
	p, err = Greedy{}.Solve(analyze(workload.RealPrograms()), lin, Options{})
	add("real testbed", p, err)

	comp, err := network.CompositeWAN(10, network.TofinoSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	part, err := network.PartitionRegions(comp, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := shardInstance(t, 30, 1)
	sharded, err := ShardedGreedy{Partition: part}.Solve(g, comp, Options{Shards: 4})
	add("composite:10 sharded", sharded, err)
	p, err = ShardedGreedy{Partition: part}.Solve(g, comp, Options{Shards: 4, Epsilon2: 400})
	add("composite:10 sharded ε2", p, err)
	if sharded != nil {
		p, _, err = ReplanWithOptions(sharded, Greedy{}, ReplanOptions{Partition: part}, busiest(sharded))
		add("composite:10 regional replan", p, err)
	}
	if len(out) < 30 {
		t.Fatalf("only %d fixtures solved", len(out))
	}
	return out
}

// TestPackAssignmentMatchesNameKeyedReference: materializing on node
// ids yields exactly the name-keyed packer's Plan.Assignments on every
// fixture plan, and PackStages agrees with it on every switch's set.
func TestPackAssignmentMatchesNameKeyedReference(t *testing.T) {
	rm := program.DefaultResourceModel
	for _, fx := range packFixtures(t) {
		g, topo := fx.plan.Graph, fx.plan.Topo
		assign := assignmentOf(fx.plan)
		want, err := packAssignmentRef(g, topo, assign, rm)
		if err != nil {
			t.Fatalf("%s: reference: %v", fx.name, err)
		}
		byID, err := assignIDs(g, assign)
		if err != nil {
			t.Fatal(err)
		}
		got, err := packAssignment(g, topo, byID, rm)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		if !reflect.DeepEqual(got.Assignments, want) {
			t.Fatalf("%s: id packer's assignments differ from the name-keyed reference", fx.name)
		}
		if !reflect.DeepEqual(fx.plan.Assignments, want) {
			t.Fatalf("%s: the solver's plan differs from the name-keyed reference", fx.name)
		}
		sets := map[network.SwitchID][]string{}
		for name, u := range assign {
			sets[u] = append(sets[u], name)
		}
		for u, names := range sets {
			sw, _ := topo.Switch(u)
			placed, err := PackStages(g, names, sw, rm)
			if err != nil || !reflect.DeepEqual(placed, subset(want, names)) {
				t.Fatalf("%s: PackStages on switch %d: %v, or placements differ from the reference", fx.name, u, err)
			}
		}
	}
}

func subset(all map[string]StagePlacement, names []string) map[string]StagePlacement {
	out := make(map[string]StagePlacement, len(names))
	for _, n := range names {
		out[n] = all[n]
	}
	return out
}

// TestPackErrorsMatchNameKeyedReference forces sets that do not fit —
// everything on one switch, a drained host, a chain deeper than the
// stages, one MAT larger than a switch — and holds the id packer's
// error text, PackStages' and the anchor check's (tryAssign) to the
// name-keyed reference's.
func TestPackErrorsMatchNameKeyedReference(t *testing.T) {
	rm := program.DefaultResourceModel
	failures := 0
	for _, fx := range packFixtures(t) {
		g, topo := fx.plan.Graph, fx.plan.Topo
		used := fx.plan.UsedSwitches()
		cases := map[string]map[string]network.SwitchID{}
		all := map[string]network.SwitchID{}
		for name := range fx.plan.Assignments {
			all[name] = used[0]
		}
		cases["all on one switch"] = all
		if len(used) > 1 {
			drained := topo.Clone()
			sw, err := drained.Switch(used[1])
			if err != nil {
				t.Fatal(err)
			}
			sw.Programmable = false
			checkPackError(t, fx.name+" drained host", g, drained, assignmentOf(fx.plan), rm, &failures)
		}
		for what, assign := range cases {
			checkPackError(t, fx.name+" "+what, g, topo, assign, rm, &failures)
		}
	}
	// A chain deeper than the stages, and one MAT past a switch.
	spec := network.TofinoSpec()
	spec.Stages = 3
	lin, err := network.Linear(2, spec)
	if err != nil {
		t.Fatal(err)
	}
	chain := tdg.New()
	for i := 0; i < 5; i++ {
		if err := chain.AddNode(fixedMAT(fmt.Sprintf("c%d", i), 0.2)); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := chain.AddEdge(fmt.Sprintf("c%d", i-1), fmt.Sprintf("c%d", i), tdg.DepMatch, 4); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := chain.AddNode(fixedMAT("huge", 5)); err != nil {
		t.Fatal(err)
	}
	sw := lin.ProgrammableSwitches()[0]
	deep := map[string]network.SwitchID{"c0": sw, "c1": sw, "c2": sw, "c3": sw, "c4": sw}
	checkPackError(t, "deep chain", chain, lin, deep, rm, &failures)
	checkPackError(t, "huge MAT", chain, lin, map[string]network.SwitchID{"huge": sw}, rm, &failures)

	order, err := chain.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	topoSw, _ := lin.Switch(sw)
	sp := newSplitScratch(chain, 0, len(order), topoSw, rm)
	segs := []segment{{0, len(order)}}
	_, got := tryAssign(lin, sp, segs, []network.SwitchID{sw})
	_, refErr := packOrderedRef(chain, order, topoSw, rm)
	if got == nil || refErr == nil || got.Error() != fmt.Sprintf("placement: segment 0 on switch %q: %v", topoSw.Name, refErr) {
		t.Fatalf("anchor check error %v, reference %v", got, refErr)
	}
	if failures < 10 {
		t.Fatalf("only %d forced failures exercised", failures)
	}
}

// checkPackError holds one non-fitting assignment's errors to the
// reference's.
func checkPackError(t *testing.T, where string, g *tdg.Graph, topo *network.Topology, assign map[string]network.SwitchID, rm program.ResourceModel, failures *int) {
	t.Helper()
	_, refErr := packAssignmentRef(g, topo, assign, rm)
	byID, err := assignIDs(g, assign)
	if err != nil {
		t.Fatal(err)
	}
	_, got := packAssignment(g, topo, byID, rm)
	if (got == nil) != (refErr == nil) || got != nil && got.Error() != refErr.Error() {
		t.Fatalf("%s: id packer error %v, reference %v", where, got, refErr)
	}
	if refErr == nil {
		return
	}
	*failures++
	sets := map[network.SwitchID][]string{}
	for name, u := range assign {
		sets[u] = append(sets[u], name)
	}
	order, _ := g.TopoSort()
	for u, names := range sets {
		sw, _ := topo.Switch(u)
		if !sw.Programmable {
			continue
		}
		ordered := slices.DeleteFunc(slices.Clone(order), func(n string) bool { return !slices.Contains(names, n) })
		_, want := packOrderedRef(g, ordered, sw, rm)
		_, got := PackStages(g, names, sw, rm)
		if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
			t.Fatalf("%s: PackStages on switch %d: error %v, reference %v", where, u, got, want)
		}
	}
}
