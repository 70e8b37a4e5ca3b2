package hermes_test

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sync"
	"testing"

	hermes "github.com/hermes-net/hermes"
	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/baseline"
	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/deploy/rollout"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/workload"
)

// storeCase is one plan of a store instance, named by how it was built.
type storeCase struct {
	name string
	plan *placement.Plan
}

// storeInstances builds plans over three graphs with every solver path
// that materializes one: Greedy, its delta repair and a DecodePlan
// round trip, and the baseline solvers on Table III WAN 1; the sharded
// solve, its regional repair and the reconcile escalation on
// composite:10; Exact and Greedy on the Figure 1 fixture. The plans of
// one instance share its graph.
func storeInstances(t *testing.T) [][]storeCase {
	t.Helper()
	rm := program.DefaultResourceModel
	var out [][]storeCase

	greedy, _ := fingerprintInstance(t, 1, 30)
	repaired, _, err := placement.ReplanWithOptions(greedy, placement.Greedy{}, placement.ReplanOptions{}, busiestSwitch(greedy))
	if err != nil {
		t.Fatal(err)
	}
	data, err := greedy.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := placement.DecodePlan(data, greedy.Graph, greedy.Topo, rm)
	if err != nil {
		t.Fatal(err)
	}
	table3 := []storeCase{{"greedy", greedy}, {"repair", repaired}, {"decoded", decoded}}
	for _, s := range baseline.All() {
		if p, err := s.Solve(greedy.Graph, greedy.Topo, placement.Options{}); err == nil {
			table3 = append(table3, storeCase{s.Name(), p})
		}
	}
	out = append(out, table3)

	progs, err := workload.SyntheticSet(30, workload.PaperSyntheticSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := hermes.Analyze(progs, hermes.AnalyzeOptions{})
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
	solver := placement.ShardedGreedy{Partition: part}
	sharded, err := solver.Solve(merged, topo, placement.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	ropts := placement.ReplanOptions{Options: placement.Options{Shards: 4}, Partition: part}
	regional, _, err := placement.ReplanWithOptions(sharded, solver, ropts, busiestSwitch(sharded))
	if err != nil {
		t.Fatal(err)
	}
	ropts.QualityRatio = 0.9
	reconciled, rep, err := placement.ReplanWithOptions(sharded, solver, ropts, busiestSwitch(sharded))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Phases.Exchange == 0 {
		t.Fatal("the escalated repair did not run the reconcile")
	}
	out = append(out, []storeCase{{"sharded", sharded}, {"regional repair", regional}, {"reconcile", reconciled}})

	real, err := hermes.Analyze(workload.RealPrograms()[:4], hermes.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spec := network.TestbedSpec()
	spec.StageCapacity = 0.15
	line, err := network.Linear(3, spec)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := (placement.Exact{}).Solve(real, line, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lineGreedy, err := (placement.Greedy{}).Solve(real, line, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return append(out, []storeCase{{"exact", exact}, {"greedy", lineGreedy}})
}

// checkStoreMatchesNames holds a plan's by-id store and host table to
// its name view, entry by entry.
func checkStoreMatchesNames(t *testing.T, label string, p *placement.Plan) {
	t.Helper()
	pl, hosts := p.Placements(), p.Hosts()
	if len(pl) != p.Graph.NumNodes() || len(hosts) != len(pl) {
		t.Fatalf("%s: store holds %d entries and %d hosts for %d nodes", label, len(pl), len(hosts), p.Graph.NumNodes())
	}
	placed := 0
	for id, got := range pl {
		name := p.Graph.NodeOf(int32(id)).Name()
		want, ok := p.Assignments[name]
		if got.Placed() != ok {
			t.Fatalf("%s: %s placed %v in the store, %v by name", label, name, got.Placed(), ok)
		}
		if !ok {
			if got.Switch != -1 || hosts[id] != -1 {
				t.Fatalf("%s: unplaced %s reads switch %d, host %d", label, name, got.Switch, hosts[id])
			}
			continue
		}
		placed++
		if got.Switch != want.Switch || got.Start != want.Start || got.End != want.End ||
			!slices.Equal(got.PerStage, want.PerStage) || hosts[id] != want.Switch {
			t.Fatalf("%s: %s is %+v (host %d) in the store, %+v by name", label, name, got, hosts[id], want)
		}
	}
	if placed != len(p.Assignments) {
		t.Fatalf("%s: store places %d MATs, the name view %d", label, placed, len(p.Assignments))
	}
}

// readers is what every by-id reader answers about a plan.
type readers struct {
	hosts       []network.SwitchID
	used        []network.SwitchID
	configs     map[network.SwitchID]*deploy.SwitchConfig
	headers     map[placement.RouteKey]deploy.CoordHeader
	compileErr  string
	verifyErr   string
	fingerprint string
	diffFrom    string
	diffTo      string
}

// readAll asks every by-id reader about p: Hosts, UsedSwitches,
// Compile, Verify, the rollout fingerprint from base to p, and Diff
// both ways against base.
func readAll(base, p *placement.Plan) readers {
	r := readers{hosts: slices.Clone(p.Hosts()), used: p.UsedSwitches()}
	dep, err := deploy.Compile(p, analyzer.Options{})
	r.compileErr = fmt.Sprint(err)
	if err == nil {
		r.configs, r.headers = dep.Configs, dep.Headers
		r.verifyErr = fmt.Sprint(dep.Verify())
		if ro, err := rollout.New(&deploy.Deployment{Plan: base}, dep, rollout.Options{Topo: base.Topo}); err != nil {
			r.fingerprint = err.Error()
		} else {
			r.fingerprint = fmt.Sprintf("%016x", ro.Journal().Fingerprint)
		}
	}
	moved, err := placement.Diff(base, p)
	r.diffFrom = fmt.Sprint(moved, err)
	moved, err = placement.Diff(p, base)
	r.diffTo = fmt.Sprint(moved, err)
	return r
}

// TestPlanStoreMatchesNameView is the by-id store's differential test.
// Every solver path's plan must hold the same placements in its store
// as in Assignments. Then, for each ordered pair of plans over one
// graph, a copy of the first that has adopted its store takes the
// second's placements by direct writes to Assignments plus
// InvalidateCache: every reader must then answer as it does for a
// freshly decoded copy of the second, and the first plan's store, which
// the copy shared, must be untouched.
func TestPlanStoreMatchesNameView(t *testing.T) {
	if testing.Short() {
		t.Skip("solves composite:10 and the baselines")
	}
	rm := program.DefaultResourceModel
	for _, inst := range storeInstances(t) {
		for _, c := range inst {
			checkStoreMatchesNames(t, c.name, c.plan)
		}
		t.Logf("%d plans over one graph, %d MATs", len(inst), inst[0].plan.Graph.NumNodes())
		for _, a := range inst {
			for _, b := range inst {
				if a.plan == b.plan {
					continue
				}
				label := a.name + " rewritten to " + b.name
				c := *a.plan
				c.Assignments = maps.Clone(a.plan.Assignments)
				c.InvalidateCache()
				c.Hosts() // adopts a's store: every entry matches
				for name, sp := range b.plan.Assignments {
					c.Assignments[name] = sp
				}
				c.Routes, c.Topo = b.plan.Routes, b.plan.Topo
				c.InvalidateCache()
				checkStoreMatchesNames(t, label, &c)
				checkStoreMatchesNames(t, a.name+" after "+label, a.plan)

				data, err := b.plan.EncodeJSON()
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := placement.DecodePlan(data, b.plan.Graph, b.plan.Topo, rm)
				if err != nil {
					t.Fatalf("%s: %v", b.name, err)
				}
				if got, want := readAll(a.plan, &c), readAll(a.plan, fresh); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: readers answer\n%+v\nfor the rewritten plan,\n%+v\nfor a decoded copy", label, got, want)
				}
			}
		}
	}
}

// TestConcurrentPlanReaders shares solver-built plans, a Greedy one and
// a baseline's, each among eight goroutines that run every by-id reader
// on it: the store, the host table, the used switches, Compile and
// Verify, Diff and the rollout fingerprint against another plan. A
// solver hands its plan over fully adopted, so under -race (make race)
// no reader may write it; every goroutine must also get the same
// answers.
func TestConcurrentPlanReaders(t *testing.T) {
	base, solve := fingerprintInstance(t, 1, 30)
	other, _, err := placement.ReplanWithOptions(base, placement.Greedy{}, placement.ReplanOptions{}, busiestSwitch(base))
	if err != nil {
		t.Fatal(err)
	}
	ffl, err := baseline.FFL{}.Solve(base.Graph, base.Topo, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Neither plan is read by anything before the goroutines.
	for _, plan := range []*placement.Plan{solve(1), ffl} {
		const goroutines = 8
		got := make([]readers, goroutines)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if len(plan.Placements()) != plan.Graph.NumNodes() || plan.QOcc() == 0 {
					t.Error("empty store")
				}
				got[i] = readAll(other, plan)
			}()
		}
		close(start)
		wg.Wait()
		for i := range goroutines {
			if !reflect.DeepEqual(got[i], got[0]) {
				t.Fatalf("%s: goroutine %d read %+v, goroutine 0 %+v", plan.SolverName, i, got[i], got[0])
			}
		}
	}
}
