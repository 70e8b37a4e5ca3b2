package placement

import (
	"math/rand"
	"reflect"
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

// checkHostTable holds the host-table readers — Hosts, CrossEdges,
// PairBytes and SwitchOrder — to their name-keyed answers on plan.
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
	var cross []*tdg.Edge
	var pairs []RouteKey
	for _, e := range plan.Graph.EdgeList() {
		ua, oka := plan.SwitchOf(e.From)
		ub, okb := plan.SwitchOf(e.To)
		if oka && okb && ua != ub {
			cross = append(cross, e)
			pairs = append(pairs, RouteKey{From: ua, To: ub})
		}
	}
	if got := plan.CrossEdges(); !reflect.DeepEqual(got, cross) {
		t.Fatalf("%s: CrossEdges has %d edges, the name-keyed filter %d", label, len(got), len(cross))
	}
	if got, want := plan.PairBytes(), plan.PairBytesUncached(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: PairBytes = %v, name-keyed %v", label, got, want)
	}
	got, gotErr := plan.SwitchOrder()
	want, wantErr := plan.switchDAGOrder(pairs)
	if !reflect.DeepEqual(got, want) || (gotErr == nil) != (wantErr == nil) {
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
