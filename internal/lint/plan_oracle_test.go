package lint

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/p4lite"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/workload"
)

// checkAgainstRef holds the single-pass gates to their references on
// one plan: LintPlan's findings in order, Validate's error text (its
// name-keyed twin's, see eq9Ambiguous for the one exception),
// SwitchOrder's order and error text, and — when the switch DAG is
// cyclic and nothing earlier fails — Validate's error text.
func checkAgainstRef(t *testing.T, label string, p *placement.Plan, eps1 time.Duration, eps2 int) {
	t.Helper()
	want := lintPlanRef(p, rm(), eps1, eps2)
	got := LintPlan(p, rm(), eps1, eps2)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: LintPlan diverges from the reference:\n got:\n%s\nwant:\n%s", label, got.Text(), want.Text())
	}
	refVerr := validateRef(p, rm(), eps1, eps2)
	if verr := p.Validate(rm(), eps1, eps2); fmt.Sprint(verr) != fmt.Sprint(refVerr) &&
		!(isEq9(verr) && isEq9(refVerr) && eq9Ambiguous(p)) {
		t.Errorf("%s: Validate = %v; name-keyed twin %v", label, verr, refVerr)
	}
	order, err := p.SwitchOrder()
	refOrder, refErr := switchOrderRef(p)
	if !slices.Equal(order, refOrder) || fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Errorf("%s: SwitchOrder = %v, %v; reference %v, %v", label, order, err, refOrder, refErr)
	}
	if verr := p.Validate(rm(), eps1, eps2); verr != nil && strings.Contains(verr.Error(), "cyclic") {
		if refErr == nil || verr.Error() != refErr.Error() {
			t.Errorf("%s: Validate cycle error %q, reference %v", label, verr, refErr)
		}
	}
}

// checkVerifyAgainstRef compiles a plan Validate accepts and holds
// Deployment.Verify's verdict to the reference's and its error text to
// the name-keyed twin's (see verifyAmbiguous), on the deployment as
// compiled and under tampering with its stage entries and configs.
func checkVerifyAgainstRef(t *testing.T, label string, p *placement.Plan) {
	t.Helper()
	if p.Validate(rm(), 0, 0) != nil {
		return
	}
	dep, err := deploy.Compile(p, analyzer.Options{})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	same := func(what string, d *deploy.Deployment) {
		t.Helper()
		got, want := d.Verify(), verifyRef(d)
		if (got == nil) != (want == nil) {
			t.Errorf("%s %s: Verify = %v, reference %v", label, what, got, want)
		}
		if byName := verifyByNameRef(d); fmt.Sprint(got) != fmt.Sprint(byName) &&
			!(got != nil && byName != nil && verifyAmbiguous(d)) {
			t.Errorf("%s %s: Verify = %v, name-keyed twin %v", label, what, got, byName)
		}
	}
	same("as compiled", dep)
	sws := make([]network.SwitchID, 0, len(dep.Configs))
	for sw := range dep.Configs {
		sws = append(sws, sw)
	}
	slices.Sort(sws)
	// Each tamper works on a copy of one config; the plan is shared.
	withConfig := func(sw network.SwitchID, edit func(*deploy.SwitchConfig)) *deploy.Deployment {
		d := *dep
		d.Configs = make(map[network.SwitchID]*deploy.SwitchConfig, len(dep.Configs))
		for k, v := range dep.Configs {
			d.Configs[k] = v
		}
		cfg := *dep.Configs[sw]
		cfg.Stages = make([][]deploy.StageEntry, len(cfg.Stages))
		for i, st := range dep.Configs[sw].Stages {
			cfg.Stages[i] = slices.Clone(st)
		}
		edit(&cfg)
		d.Configs[sw] = &cfg
		return &d
	}
	firstEntry := func(cfg *deploy.SwitchConfig) (int, bool) {
		for i, st := range cfg.Stages {
			if len(st) > 0 {
				return i, true
			}
		}
		return 0, false
	}
	for _, sw := range sws[:min(3, len(sws))] {
		same(fmt.Sprintf("short amount on %d", sw), withConfig(sw, func(cfg *deploy.SwitchConfig) {
			if i, ok := firstEntry(cfg); ok {
				cfg.Stages[i][0].Amount /= 2
			}
		}))
		same(fmt.Sprintf("dropped entry on %d", sw), withConfig(sw, func(cfg *deploy.SwitchConfig) {
			if i, ok := firstEntry(cfg); ok {
				cfg.Stages[i] = cfg.Stages[i][1:]
			}
		}))
		same(fmt.Sprintf("entry moved to another stage on %d", sw), withConfig(sw, func(cfg *deploy.SwitchConfig) {
			if i, ok := firstEntry(cfg); ok {
				e := cfg.Stages[i][0]
				cfg.Stages[i] = cfg.Stages[i][1:]
				last := len(cfg.Stages) - 1
				cfg.Stages[last] = append(cfg.Stages[last], e)
			}
		}))
		same(fmt.Sprintf("foreign entry on %d", sw), withConfig(sw, func(cfg *deploy.SwitchConfig) {
			for name, sp := range p.Assignments {
				if sp.Switch != sw {
					cfg.Stages[0] = append(cfg.Stages[0], deploy.StageEntry{MAT: name, Amount: 1})
					break
				}
			}
		}))
		// Verify trusts an entry's Node stamp only where it names the
		// entry's MAT: a renamed entry keeps its old stamp, and an entry
		// copied from another switch keeps a stamp that does match.
		same(fmt.Sprintf("renamed entry on %d", sw), withConfig(sw, func(cfg *deploy.SwitchConfig) {
			if i, ok := firstEntry(cfg); ok {
				for name, sp := range p.Assignments {
					if sp.Switch == sw && name != cfg.Stages[i][0].MAT {
						cfg.Stages[i][0].MAT = name
						break
					}
				}
			}
		}))
		same(fmt.Sprintf("stamped foreign entry on %d", sw), withConfig(sw, func(cfg *deploy.SwitchConfig) {
			for _, other := range sws {
				if i, ok := firstEntry(dep.Configs[other]); ok && other != sw {
					cfg.Stages[0] = append(cfg.Stages[0], dep.Configs[other].Stages[i][0])
					break
				}
			}
		}))
	}
	if len(sws) > 0 {
		d := *dep
		d.Configs = map[network.SwitchID]*deploy.SwitchConfig{}
		for k, v := range dep.Configs {
			if k != sws[0] {
				d.Configs[k] = v
			}
		}
		same("missing config", &d)
	}
}

// isEq9 reports whether err is one of Validate's Eq. 9 verdicts: an
// overcommitted stage or a negative stage amount.
func isEq9(err error) bool {
	if err == nil {
		return false
	}
	msg := err.Error()
	return strings.Contains(msg, "overcommitted") || strings.Contains(msg, "negative stage amount")
}

// eq9Ambiguous reports whether the name-keyed Validate's Eq. 9 verdict
// on p depends on map iteration order, so its text cannot be the
// reference: more than one assignment breaks an amount check (a
// negative stage amount, or a switch the topology lacks), more than one
// switch is overcommitted, or the overcommitted switch's first bad
// stage sums three or more amounts (float addition is not associative,
// and the twin adds in map order). The production gate reports the
// first breach in node-id order and the lowest switch; on those plans
// the two must agree on the rule alone.
func eq9Ambiguous(p *placement.Plan) bool {
	type slot struct {
		sw    network.SwitchID
		stage int
	}
	terms, load := map[slot]int{}, map[slot]float64{}
	bad := 0
	for _, sp := range p.Assignments {
		if _, err := p.Topo.Switch(sp.Switch); err != nil {
			bad++
			continue
		}
		negative := false
		for i, amt := range sp.PerStage {
			negative = negative || amt < -1e-12
			k := slot{sp.Switch, sp.Start + i}
			terms[k]++
			load[k] += amt
		}
		if negative {
			bad++
		}
	}
	if bad > 1 {
		return true
	}
	first := map[network.SwitchID]int{}
	for k, l := range load {
		sw, _ := p.Topo.Switch(k.sw)
		if s, seen := first[k.sw]; l > sw.StageCapacity+1e-6 && (!seen || k.stage < s) {
			first[k.sw] = k.stage
		}
	}
	if len(first) > 1 {
		return true
	}
	for sw, stage := range first {
		if terms[slot{sw, stage}] > 2 {
			return true
		}
	}
	return false
}

// verifyAmbiguous reports whether the name-keyed Verify's error on d
// depends on map iteration order: more than one assignment whose
// schedule is missing or short, or more than one header failing its
// bounds. The production Verify reports the first breach in node-id
// order; on those deployments the two must agree on the verdict alone.
func verifyAmbiguous(d *deploy.Deployment) bool {
	failing := 0
	for name, sp := range d.Plan.Assignments {
		cfg := d.Configs[sp.Switch]
		total := 0.0
		if cfg != nil {
			for _, st := range cfg.Stages {
				for _, e := range st {
					if e.MAT == name {
						total += e.Amount
					}
				}
			}
		}
		if cfg == nil || math.Abs(total-sp.Total()) > 1e-9 {
			failing++
		}
	}
	pairBytes := d.Plan.PairBytes()
	headers := 0
	for key, hdr := range d.Headers {
		sum := 0
		for _, f := range hdr.Fields {
			sum += f.Bytes()
		}
		if hdr.Bytes > pairBytes[key] || hdr.Bytes != sum {
			headers++
		}
	}
	return failing > 1 || headers > 1
}

// clonePlan copies the plan's decision variables and topology, so a
// mutation leaves the original (and its sibling mutations) alone.
func clonePlan(p *placement.Plan) *placement.Plan {
	c := *p
	c.InvalidateCache()
	c.Topo = p.Topo.Clone()
	c.Assignments = make(map[string]placement.StagePlacement, len(p.Assignments))
	for k, v := range p.Assignments {
		c.Assignments[k] = v
	}
	c.Routes = make(map[placement.RouteKey]network.Path, len(p.Routes))
	for k, v := range p.Routes {
		c.Routes[k] = v
	}
	return &c
}

func sortedRouteKeys(p *placement.Plan) []placement.RouteKey {
	keys := make([]placement.RouteKey, 0, len(p.Routes))
	for k := range p.Routes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].From != keys[j].From {
			return keys[i].From < keys[j].From
		}
		return keys[i].To < keys[j].To
	})
	return keys
}

// planMutations tamper with any plan in the ways the mutation tests in
// plan_test.go do — and a few they do not — at several places at once,
// so every edge rule fires on many edges sharing switch pairs.
var planMutations = []struct {
	name string
	mut  func(p *placement.Plan)
}{
	{"missing assignments", func(p *placement.Plan) {
		names := p.Graph.NodeNames()
		for i := 0; i < len(names); i += max(1, len(names)/3) {
			delete(p.Assignments, names[i])
		}
	}},
	{"unknown switch", func(p *placement.Plan) {
		name := p.Graph.NodeNames()[0]
		sp := p.Assignments[name]
		sp.Switch = 99999
		p.Assignments[name] = sp
	}},
	{"down switch", func(p *placement.Plan) {
		_ = p.Topo.SetSwitchDown(p.Assignments[p.Graph.NodeNames()[0]].Switch)
	}},
	{"short requirement", func(p *placement.Plan) {
		for _, name := range p.Graph.NodeNames()[:min(3, p.Graph.NumNodes())] {
			sp := p.Assignments[name]
			sp.PerStage = []float64{sp.Total() / 2}
			sp.End = sp.Start
			p.Assignments[name] = sp
		}
	}},
	{"MATs pulled upstream", func(p *placement.Plan) {
		// Every fifth edge's downstream MAT moves onto its upstream's
		// switch and stage window: stage overcommit, broken stage order,
		// and switch pairs (and cycles) the routes do not cover.
		for i, e := range p.Graph.EdgeList() {
			if i%5 == 0 {
				a, b := p.Assignments[e.From], p.Assignments[e.To]
				b.Switch, b.Start, b.End = a.Switch, a.Start, a.Start+len(b.PerStage)-1
				p.Assignments[e.To] = b
			}
		}
	}},
	{"swapped stage windows", func(p *placement.Plan) {
		for _, e := range p.Graph.EdgeList() {
			a, b := p.Assignments[e.From], p.Assignments[e.To]
			if a.Switch == b.Switch {
				a.Start, a.End, b.Start, b.End = b.Start, b.End, a.Start, a.End
				p.Assignments[e.From], p.Assignments[e.To] = a, b
			}
		}
	}},
	{"missing routes", func(p *placement.Plan) {
		for i, k := range sortedRouteKeys(p) {
			if i%2 == 0 {
				delete(p.Routes, k)
			}
		}
	}},
	{"disconnected routes", func(p *placement.Plan) {
		for i, k := range sortedRouteKeys(p) {
			path := p.Routes[k]
			if i%2 == 1 {
				path.Switches = nil
			} else {
				path.Switches = slices.Clone(path.Switches)
				slices.Reverse(path.Switches)
			}
			p.Routes[k] = path
		}
	}},
	{"route latency", func(p *placement.Plan) {
		for k, path := range p.Routes {
			path.Latency += time.Millisecond
			p.Routes[k] = path
		}
	}},
	{"routes without links", func(p *placement.Plan) {
		for i, k := range sortedRouteKeys(p) {
			path := p.Routes[k]
			if i%2 == 0 {
				path.Switches = []network.SwitchID{k.From, 99999, k.To}
			} else {
				path.Switches = []network.SwitchID{k.From, k.To}
			}
			p.Routes[k] = path
		}
	}},
	{"assignment outside the graph", func(p *placement.Plan) {
		// On a host switch, overcommitting its first stage.
		sw := p.Assignments[p.Graph.NodeNames()[0]].Switch
		p.Assignments["not-in-graph"] = placement.StagePlacement{Switch: sw, Start: 0, End: 0, PerStage: []float64{5}}
	}},
}

// mutation returns the named planMutations entry.
func mutation(name string) func(*placement.Plan) {
	for _, m := range planMutations {
		if m.name == name {
			return m.mut
		}
	}
	panic("no mutation " + name)
}

// chainFixtures are the plan_test.go mutation fixtures on the a->b->c
// chain, by the test that builds each.
func chainFixtures(t *testing.T) map[string]func() (*placement.Plan, time.Duration, int) {
	chain := func(edit func(p *placement.Plan)) func() (*placement.Plan, time.Duration, int) {
		return func() (*placement.Plan, time.Duration, int) {
			p := solvedChain(t)
			edit(p)
			return p, 0, 0
		}
	}
	return map[string]func() (*placement.Plan, time.Duration, int){
		"CleanAgreement":    chain(func(*placement.Plan) {}),
		"MissingAssignment": chain(func(p *placement.Plan) { delete(p.Assignments, "c") }),
		"UnknownSwitch":     chain(func(p *placement.Plan) { sp := p.Assignments["c"]; sp.Switch = 99; p.Assignments["c"] = sp }),
		"DownSwitch":        chain(func(p *placement.Plan) { _ = p.Topo.SetSwitchDown(p.Assignments["a"].Switch) }),
		"ShortRequirement": chain(func(p *placement.Plan) {
			sp := p.Assignments["c"]
			sp.PerStage, sp.End = []float64{0.25}, sp.Start
			p.Assignments["c"] = sp
		}),
		"StageOvercommit": chain(func(p *placement.Plan) {
			b := p.Assignments["b"]
			b.Switch, b.Start, b.End = p.Assignments["a"].Switch, p.Assignments["a"].Start, p.Assignments["a"].End
			p.Assignments["b"] = b
		}),
		"StageOrder":         chain(mutation("swapped stage windows")),
		"MissingRoute":       chain(func(p *placement.Plan) { clear(p.Routes) }),
		"RouteLatency":       chain(mutation("route latency")),
		"EpsilonBounds/eps1": func() (*placement.Plan, time.Duration, int) { p := solvedChain(t); return p, p.TE2E() - 1, 0 },
		"EpsilonBounds/eps2": func() (*placement.Plan, time.Duration, int) { p := solvedChain(t); return p, 0, p.QOcc() - 1 },
		"NonProgrammable": func() (*placement.Plan, time.Duration, int) {
			g := chainTDG(t, []string{"a", "b", "c"}, []int{1, 4}, 0.5)
			tp := smallTopo(t, 3)
			dumb := tp.AddSwitch(network.Switch{Programmable: false, TransitLatency: time.Microsecond})
			if err := tp.AddLink(2, dumb, time.Millisecond); err != nil {
				t.Fatal(err)
			}
			p, err := placement.Greedy{}.Solve(g, tp, placement.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sp := p.Assignments["c"]
			sp.Switch = dumb
			p.Assignments["c"] = sp
			return p, 0, 0
		},
		"SwitchCycle": func() (*placement.Plan, time.Duration, int) {
			g := chainTDG(t, []string{"a", "b", "c"}, []int{1, 1}, 0.5)
			tp := smallTopo(t, 2)
			mk := func(sw network.SwitchID, stage int) placement.StagePlacement {
				return placement.StagePlacement{Switch: sw, Start: stage, End: stage, PerStage: []float64{0.5}}
			}
			p01, _ := tp.ShortestPath(0, 1)
			p10, _ := tp.ShortestPath(1, 0)
			return &placement.Plan{Graph: g, Topo: tp,
				Assignments: map[string]placement.StagePlacement{"a": mk(0, 0), "b": mk(1, 0), "c": mk(0, 1)},
				Routes:      map[placement.RouteKey]network.Path{{From: 0, To: 1}: p01, {From: 1, To: 0}: p10},
			}, 0, 0
		},
	}
}

func TestLintPlanMatchesReferenceOnMutations(t *testing.T) {
	fixtures := chainFixtures(t)
	names := make([]string, 0, len(fixtures))
	for name := range fixtures {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p, eps1, eps2 := fixtures[name]()
		checkAgainstRef(t, name, p, eps1, eps2)
		checkVerifyAgainstRef(t, name, p)
	}
}

// corpusPlan is one solved plan, with the solver and options its
// drains replan with.
type corpusPlan struct {
	name   string
	plan   *placement.Plan
	solver placement.Solver
	opts   placement.ReplanOptions
}

// corpusPlans are the plans the oracle sweeps: Greedy and sharded
// solves of the paper's evaluation programs (seeds 1–3), the
// benchmark's composite60 input at smoke size, the benchmark's four
// workloads (wan30, composite60, real_hotspot, churn16), the evaluation
// programs on Table III WANs 1–10, and the p4lite example programs the
// lint fuzzer seeds from.
func corpusPlans(t *testing.T) []corpusPlan {
	var out []corpusPlan
	solve := func(name string, progs []*program.Program, topo *network.Topology, s placement.Solver, ro placement.ReplanOptions) {
		g, err := analyzer.Analyze(progs, analyzer.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p, err := s.Solve(g, topo, ro.Options)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, corpusPlan{name, p, s, ro})
	}
	wan := func(capacity float64) *network.Topology {
		spec := network.TofinoSpec()
		spec.StageCapacity = capacity
		topo, err := network.TableIII(1, spec)
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	for seed := int64(1); seed <= 3; seed++ {
		progs, err := workload.EvaluationPrograms(30, seed)
		if err != nil {
			t.Fatal(err)
		}
		solve(fmt.Sprintf("eval30/%d/greedy", seed), progs, wan(1), placement.Greedy{}, placement.ReplanOptions{})
		topo, err := network.CompositeWAN(4, network.TofinoSpec(), seed)
		if err != nil {
			t.Fatal(err)
		}
		part, err := network.PartitionRegions(topo, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		solve(fmt.Sprintf("eval30/%d/sharded", seed), progs, topo, placement.ShardedGreedy{Partition: part},
			placement.ReplanOptions{Options: placement.Options{Shards: 4}, Partition: part})
	}
	progs, err := workload.SyntheticSet(30, workload.PaperSyntheticSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := network.CompositeWAN(10, network.TofinoSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	part, err := network.PartitionRegions(topo, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	solve("composite10/sharded", progs, topo, placement.ShardedGreedy{Partition: part},
		placement.ReplanOptions{Options: placement.Options{Shards: 4}, Partition: part})
	solve("composite10/greedy", progs, topo, placement.Greedy{}, placement.ReplanOptions{})

	// The benchmark's other workloads at full size (wan30 is
	// eval30/1/greedy above), and Table III WANs 2–10.
	if progs, err = workload.SyntheticSet(200, workload.PaperSyntheticSpec(), 1); err != nil {
		t.Fatal(err)
	}
	if topo, err = network.CompositeWAN(60, network.TofinoSpec(), 1); err != nil {
		t.Fatal(err)
	}
	if part, err = network.PartitionRegions(topo, 16, 1); err != nil {
		t.Fatal(err)
	}
	solve("composite60", progs, topo, placement.ShardedGreedy{Partition: part},
		placement.ReplanOptions{Options: placement.Options{Shards: 16}, Partition: part})
	hot := wan(0.1)
	tm, err := network.GenerateTraffic(hot, network.TrafficHotspot, 1)
	if err != nil {
		t.Fatal(err)
	}
	solve("real_hotspot", workload.RealPrograms(), hot, placement.Greedy{}, placement.ReplanOptions{Options: placement.Options{
		Traffic: tm, TrafficObjective: placement.TrafficWeightedMax, AMaxSlack: 1.2}})
	if progs, err = workload.SyntheticSet(16, workload.PaperSyntheticSpec(), 1); err != nil {
		t.Fatal(err)
	}
	solve("churn16", progs, wan(0.3), placement.Greedy{}, placement.ReplanOptions{})
	if progs, err = workload.EvaluationPrograms(30, 1); err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 10; i++ {
		topo, err := network.TableIII(i, network.TofinoSpec())
		if err != nil {
			t.Fatal(err)
		}
		solve(fmt.Sprintf("table3:%d", i), progs, topo, placement.Greedy{}, placement.ReplanOptions{})
	}

	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "p4src", "*.p4"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("example corpus missing: %v (%d files)", err, len(paths))
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		prog, _, err := p4lite.ParseSource(string(src))
		if err != nil {
			continue // bad.p4 may not get past the frontend
		}
		g, err := analyzer.Analyze([]*program.Program{prog}, analyzer.Options{})
		if err != nil {
			continue
		}
		if p, err := (placement.Greedy{}).Solve(g, wan(0.05), placement.Options{}); err == nil {
			out = append(out, corpusPlan{"p4src/" + filepath.Base(path), p, placement.Greedy{}, placement.ReplanOptions{}})
		}
	}
	return out
}

// busiestSwitches returns the k switches hosting the most MATs (ties by
// id), the drain targets of the benchmark's heal phase.
func busiestSwitches(p *placement.Plan, k int) []network.SwitchID {
	load := map[network.SwitchID]int{}
	for _, sp := range p.Assignments {
		load[sp.Switch]++
	}
	ids := make([]network.SwitchID, 0, len(load))
	for id := range load {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if load[ids[i]] != load[ids[j]] {
			return load[ids[i]] > load[ids[j]]
		}
		return ids[i] < ids[j]
	})
	return ids[:min(k, len(ids))]
}

// TestLintPlanMatchesReferenceOnCorpus is the differential oracle over
// real plans: every corpus plan, each of its five busiest-switch
// drains, and every planMutations tampering of the plan must give the
// reference's findings (in order), switch order, cycle error and
// Verify verdict.
func TestLintPlanMatchesReferenceOnCorpus(t *testing.T) {
	for _, c := range corpusPlans(t) {
		plans := []struct {
			name string
			p    *placement.Plan
		}{{c.name, c.plan}}
		for _, sw := range busiestSwitches(c.plan, 5) {
			next, _, err := placement.ReplanWithOptions(c.plan, c.solver, c.opts, sw)
			if err != nil {
				t.Logf("%s: drain %d: %v", c.name, sw, err)
				continue
			}
			plans = append(plans, struct {
				name string
				p    *placement.Plan
			}{fmt.Sprintf("%s/drain=%d", c.name, sw), next})
		}
		for _, pl := range plans {
			checkAgainstRef(t, pl.name, pl.p, 0, 0)
			checkVerifyAgainstRef(t, pl.name, pl.p)
			if fs := LintPlan(pl.p, rm(), 0, 0); fs.HasErrors() {
				t.Errorf("%s: solver plan must lint clean:\n%s", pl.name, fs.Text())
			}
		}
		for _, m := range planMutations {
			p := clonePlan(c.plan)
			m.mut(p)
			checkAgainstRef(t, c.name+"/"+m.name, p, 0, 0)
		}
	}
}
