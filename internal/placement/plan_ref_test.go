package placement

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
	"github.com/hermes-net/hermes/internal/workload"
)

// PairBytesUncached is the name-keyed pair map PairBytes computed before
// it read the host table: every edge's endpoints resolved through
// SwitchOf, recomputed on every call. It is the map reference the
// memoized, host-table PairBytes is held to.
func (p *Plan) PairBytesUncached() map[RouteKey]int {
	out := map[RouteKey]int{}
	for _, e := range p.Graph.EdgeList() {
		ua, oka := p.SwitchOf(e.From)
		ub, okb := p.SwitchOf(e.To)
		if oka && okb && ua != ub {
			out[RouteKey{From: ua, To: ub}] += e.MetadataBytes
		}
	}
	return out
}

// switchDAGOrderRef is the switch-DAG order as Validate and SwitchOrder
// computed it before the contraction moved onto dense switch ids shared
// with the repair's acyclicity proof: the used switches through the
// assignment map, RouteKey pairs, and a binary search per arc.
func switchDAGOrderRef(p *Plan, pairs []RouteKey) ([]network.SwitchID, error) {
	nodes := p.UsedSwitches()
	id := func(sw network.SwitchID) int32 {
		i, _ := slices.BinarySearch(nodes, sw)
		return int32(i)
	}
	slices.SortFunc(pairs, func(a, b RouteKey) int {
		if c := cmp.Compare(a.From, b.From); c != 0 {
			return c
		}
		return cmp.Compare(a.To, b.To)
	})
	pairs = slices.Compact(pairs)
	n := len(nodes)
	buf := make([]int32, 3*n+1+len(pairs))
	indeg, ready, head, succ := buf[:n], buf[n:n:2*n], buf[2*n:3*n+1], buf[3*n+1:]
	for k, pr := range pairs {
		u, v := id(pr.From), id(pr.To)
		succ[k] = v
		head[u+1]++
		indeg[v]++
	}
	for u := 0; u < n; u++ {
		head[u+1] += head[u]
		if indeg[u] == 0 {
			ready = append(ready, int32(u)) // ascending
		}
	}
	out := make([]network.SwitchID, 0, n)
	for len(ready) > 0 {
		u := ready[0]
		ready = ready[1:]
		out = append(out, nodes[u])
		for _, v := range succ[head[u]:head[u+1]] {
			indeg[v]--
			if indeg[v] == 0 {
				i, _ := slices.BinarySearch(ready, v)
				ready = slices.Insert(ready, i, v)
			}
		}
	}
	if len(out) != n {
		var stuck []string
		for u, d := range indeg {
			if d > 0 {
				stuck = append(stuck, SwitchLabel(p.Topo, nodes[u]))
			}
		}
		sort.Strings(stuck)
		return nil, fmt.Errorf("placement: switch-level dependency graph is cyclic among %s",
			strings.Join(stuck, ", "))
	}
	return out, nil
}

// checkHostTable holds the host-table readers — Hosts,
// TotalCrossBytes, PairBytes and SwitchOrder — to their name-keyed answers on plan.
func checkHostTable(t *testing.T, label string, plan *Plan) {
	t.Helper()
	hosts := plan.Hosts()
	if len(hosts) != plan.Graph.NumNodes() {
		t.Fatalf("%s: host table has %d entries for %d nodes", label, len(hosts), plan.Graph.NumNodes())
	}
	for id, n := range plan.Graph.Nodes() {
		want, ok := plan.SwitchOf(n.Name())
		if !ok {
			want = -1
		}
		if hosts[id] != want {
			t.Fatalf("%s: host of %q is %d, SwitchOf says %d", label, n.Name(), hosts[id], want)
		}
	}
	var pairs []RouteKey
	cross := 0
	for _, e := range plan.Graph.EdgeList() {
		ua, oka := plan.SwitchOf(e.From)
		ub, okb := plan.SwitchOf(e.To)
		if oka && okb && ua != ub {
			pairs = append(pairs, RouteKey{From: ua, To: ub})
			cross += e.MetadataBytes
		}
	}
	if got := plan.TotalCrossBytes(); got != cross {
		t.Fatalf("%s: TotalCrossBytes = %d, the name-keyed filter sums %d", label, got, cross)
	}
	if got, want := plan.PairBytes(), plan.PairBytesUncached(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: PairBytes = %v, name-keyed %v", label, got, want)
	}
	got, gotErr := plan.SwitchOrder()
	want, wantErr := switchDAGOrderRef(plan, pairs)
	if !reflect.DeepEqual(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: SwitchOrder = %v, %v; name-keyed %v, %v", label, got, gotErr, want, wantErr)
	}
}

// TestHostTableMatchesNameKeyed holds the host table to SwitchOf on
// every way a plan comes to be: materialized by Greedy and by the
// sharded solve, repaired by a drain, decoded from JSON, hand-built,
// and tampered with in place behind InvalidateCache.
func TestHostTableMatchesNameKeyed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	solved := 0
	for trial := 0; trial < 30 && solved < 12; trial++ {
		g := randomDAG(rng, 3+rng.Intn(9))
		tp := randomTopo(rng, 2+rng.Intn(4))
		plan, err := (Greedy{}).Solve(g, tp, Options{})
		if err != nil {
			continue
		}
		solved++
		checkHostTable(t, "greedy", plan)
		if used := plan.UsedSwitches(); len(used) > 1 {
			next, _, err := ReplanWithOptions(plan, Greedy{}, ReplanOptions{}, used[rng.Intn(len(used))])
			if err == nil {
				checkHostTable(t, "repaired", next)
			}
		}
		data, err := plan.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodePlan(data, g, tp, program.DefaultResourceModel)
		if err != nil {
			t.Fatal(err)
		}
		checkHostTable(t, "decoded", decoded)

		// Hand-built: the same decision, no host table yet.
		hand := &Plan{Graph: g, Topo: tp, Assignments: plan.Assignments, Routes: plan.Routes}
		checkHostTable(t, "hand-built", hand)

		// Tampered: one MAT moved to another switch, a second dropped.
		names := g.NodeNames()
		sp := plan.Assignments[names[0]]
		sp.Switch = tp.ProgrammableSwitches()[rng.Intn(len(tp.ProgrammableSwitches()))]
		plan.Assignments[names[0]] = sp
		delete(plan.Assignments, names[len(names)-1])
		plan.InvalidateCache()
		checkHostTable(t, "tampered", plan)
	}
	if solved == 0 {
		t.Fatal("no instance solved")
	}

	topo, err := network.CompositeWAN(10, network.TofinoSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	progs, err := workload.SyntheticSet(30, workload.PaperSyntheticSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := analyzer.Analyze(progs, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	part, err := network.PartitionRegions(topo, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := (ShardedGreedy{Partition: part}).Solve(g, topo, Options{Shards: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkHostTable(t, "sharded composite:10", plan)
}

// TestValidateReportsFirstBreach pins which breach Validate names when
// a plan breaks Eq. 9 more than once: the placement with the lowest
// node id for a negative stage amount, the lowest switch ID for an
// overcommitted stage — not the switch or MAT the walk met first.
func TestValidateReportsFirstBreach(t *testing.T) {
	rm := program.DefaultResourceModel
	g := tdg.New()
	// Insertion order z, a, ...: node id order is not name order.
	names := []string{"z", "a", "m", "b", "y", "c"}
	for _, n := range names {
		if err := g.AddNode(fixedMAT(n, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	tp := twoMATSwitchTopo(t, 3)
	at := func(sw network.SwitchID, per ...float64) StagePlacement {
		return StagePlacement{Switch: sw, Start: 0, End: len(per) - 1, PerStage: per}
	}
	plan := &Plan{Graph: g, Topo: tp, Assignments: map[string]StagePlacement{
		// Switch 2 is met first and overcommitted; so is switch 1.
		"z": at(2, 0.5), "a": at(2, 0.5),
		"m": at(1, 0.5), "b": at(1, 0.5),
		"y": at(0, 0.5), "c": at(0, 0, 0.5),
	}}
	err := plan.Validate(rm, 0, 0)
	if want := `placement: switch "s1" stage 0 overcommitted: 1 > 0.5 (Eq. 9)`; fmt.Sprint(err) != want {
		t.Fatalf("two overcommitted switches: Validate = %v, want %s", err, want)
	}
	plan.Assignments["a"] = at(0, -0.1, 0.6)
	plan.Assignments["z"] = at(1, -0.1, 0.6)
	err = plan.Validate(rm, 0, 0)
	if want := `placement: MAT "z" has negative stage amount`; fmt.Sprint(err) != want {
		t.Fatalf("two negative amounts: Validate = %v, want %s", err, want)
	}
}

// TestValidateOutsideAssignment: x(a,i,u) exists only for the graph's
// MATs (Eq. 6), so an assignment for a MAT outside the graph is
// rejected whatever it places — a stage window past the pipeline, a
// switch the topology lacks, an overcommitted stage — before Eq. 9
// would count it, naming the smallest such name.
func TestValidateOutsideAssignment(t *testing.T) {
	rm := program.DefaultResourceModel
	g := chainTDG(t, []string{"a", "b"}, []int{1}, 0.5)
	tp := twoMATSwitchTopo(t, 2)
	plan, err := (Greedy{}).Solve(g, tp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range []StagePlacement{
		{Switch: 1, Start: 5, End: 5, PerStage: []float64{0.1}},
		{Switch: 7, Start: 0, End: 0, PerStage: []float64{0.1}},
		{Switch: 0, Start: 0, End: 1, PerStage: []float64{0.5, 0.5}},
	} {
		plan.Assignments["ghost"] = sp
		want := `placement: MAT "ghost" is not in the plan's graph (Eq. 6)`
		if err := plan.Validate(rm, 0, 0); fmt.Sprint(err) != want {
			t.Errorf("outside assignment %+v: Validate = %v, want %s", sp, err, want)
		}
	}
	plan.Assignments["alpha"] = plan.Assignments["ghost"]
	want := `placement: MAT "alpha" is not in the plan's graph (Eq. 6)`
	if err := plan.Validate(rm, 0, 0); fmt.Sprint(err) != want {
		t.Errorf("two outside assignments: Validate = %v, want %s", err, want)
	}
	// A graph MAT left unplaced is reported first, by the node walk.
	delete(plan.Assignments, "b")
	want = `placement: MAT "b" not deployed (Eq. 6)`
	if err := plan.Validate(rm, 0, 0); fmt.Sprint(err) != want {
		t.Errorf("outside assignments and a missing MAT: Validate = %v, want %s", err, want)
	}
}
