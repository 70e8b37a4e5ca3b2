package placement

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/racetest"
	"github.com/hermes-net/hermes/internal/tdg"
	"github.com/hermes-net/hermes/internal/workload"
)

// polishRef is Greedy's polish as it ran before its instance was
// compacted onto the hosts its assignment uses: every switch of topo is
// an instance switch (S² tables), the live programmable ones are the
// candidates, the weights are the whole table and the ε1 probe reads
// topo's latency table. It is polish's differential twin and returns
// the climb's passes and moves.
func polishRef(g *tdg.Graph, lo int, topo *network.Topology, assign []network.SwitchID, opts Options, rm program.ResourceModel) (passes, moves int, err error) {
	gi := indexOf(g, rm)
	ids := slices.Clone(gi.Topo[lo : lo+len(assign)])
	slices.SortFunc(ids, gi.byRank)
	s := topo.NumSwitches()
	in := &repairInstance{
		ci:     compileSubset(g, gi, ids, int32(s)),
		sws:    make([]*network.Switch, s),
		assign: make([]int32, len(ids)),
	}
	for id := range in.sws {
		sw, err := topo.Switch(network.SwitchID(id))
		if err != nil {
			return 0, 0, err
		}
		in.sws[id] = sw
		if sw.Programmable && !topo.SwitchIsDown(sw.ID) {
			in.cands = append(in.cands, int32(id))
		}
	}
	if in.wt, err = trafficWeights(opts.Traffic, topo); err != nil {
		return 0, 0, err
	}
	if opts.Epsilon1 > 0 {
		in.lat = topo.LatencyTable()
	}
	all := make([]int32, len(ids))
	for x, id := range ids {
		in.assign[x], all[x] = int32(assign[int(gi.Pos[id])-lo]), int32(x)
	}
	in.seed()
	defer in.release()
	passes, moves = in.climb(opts, all, occupiedTargets)
	for x, id := range ids {
		assign[int(gi.Pos[id])-lo] = network.SwitchID(in.assign[x])
	}
	return passes, moves, nil
}

// polishCase is one polish input: the range [lo,hi) of g's topological
// order, anchored on topo under opts.
type polishCase struct {
	name   string
	g      *tdg.Graph
	lo, hi int
	topo   *network.Topology
	opts   Options
}

// TestPolishMatchesFullTopologyReference: the polish on the
// host-compacted instance makes the full-topology polish's moves —
// identical assignments, passes and accepted moves — from Alg. 2's
// anchor placement of Table III WANs 1–10 (30 evaluation programs), the
// real programs at 0.1 stage capacity under the traffic-weighted-max
// objective, the evaluation programs under the weighted sum, a
// finite-ε1 and a finite-ε2 solve, and every region solve of a
// composite:10 sharded deploy.
func TestPolishMatchesFullTopologyReference(t *testing.T) {
	rm := program.DefaultResourceModel
	var cases []polishCase
	whole := func(name string, g *tdg.Graph, topo *network.Topology, opts Options) {
		cases = append(cases, polishCase{name, g, 0, g.NumNodes(), topo, opts})
	}
	wan1, err := network.TableIII(1, network.TofinoSpec())
	if err != nil {
		t.Fatal(err)
	}
	for idx := 1; idx <= 10; idx++ {
		topo, err := network.TableIII(idx, network.TofinoSpec())
		if err != nil {
			t.Fatal(err)
		}
		progs, err := workload.EvaluationPrograms(30, 1)
		whole(fmt.Sprintf("Table III %d", idx), analyzed(t, progs, err), topo, Options{})
	}

	spec := network.TofinoSpec()
	spec.StageCapacity = 0.1
	hot, err := network.TableIII(1, spec)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := network.GenerateTraffic(hot, network.TrafficHotspot, 1)
	if err != nil {
		t.Fatal(err)
	}
	whole("real programs, weighted max", analyzed(t, workload.RealPrograms(), nil), hot,
		Options{Traffic: tm, TrafficObjective: TrafficWeightedMax, AMaxSlack: 1.2})

	progs, err := workload.EvaluationPrograms(30, 1)
	g := analyzed(t, progs, err)
	gravity, err := network.GenerateTraffic(wan1, network.TrafficGravity, 1)
	if err != nil {
		t.Fatal(err)
	}
	whole("weighted sum", g, wan1, Options{Traffic: gravity})
	plain, err := Greedy{}.Solve(g, wan1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	whole("ε1", g, wan1, Options{Epsilon1: plain.TE2E()})
	whole("ε2", g, wan1, Options{Epsilon2: plain.QOcc()})

	comp, err := network.CompositeWAN(10, network.TofinoSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	part, err := network.PartitionRegions(comp, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sg := shardInstance(t, 30, 1)
	cuts, err := chunkTDG(sg, part, rm)
	if err != nil {
		t.Fatal(err)
	}
	for r := range part.NumRegions() {
		topoR, _, err := part.SubTopology(r)
		if err != nil {
			t.Fatal(err)
		}
		if cuts[r] < cuts[r+1] {
			cases = append(cases, polishCase{fmt.Sprintf("composite:10 region %d", r), sg, cuts[r], cuts[r+1], topoR, Options{Workers: 1}})
		}
	}

	moved := 0
	for _, c := range cases {
		seed, err := anchorAssign(c.g, c.lo, c.hi, c.topo, c.opts, rm)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, want := slices.Clone(seed), slices.Clone(seed)
		gp, gm, err := polish(c.g, c.lo, c.topo, got, c.opts, rm)
		if err != nil {
			t.Fatalf("%s: polish: %v", c.name, err)
		}
		wp, wm, err := polishRef(c.g, c.lo, c.topo, want, c.opts, rm)
		if err != nil {
			t.Fatalf("%s: reference polish: %v", c.name, err)
		}
		if gp != wp || gm != wm {
			t.Fatalf("%s: %d passes and %d moves, reference %d and %d", c.name, gp, gm, wp, wm)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: polished assignment differs from the reference", c.name)
		}
		t.Logf("%s: %d MATs, %d passes, %d moves", c.name, c.hi-c.lo, gp, gm)
		moved += gm
	}
	if moved == 0 {
		t.Fatal("no polish moved a MAT: every comparison was of a fixed point")
	}
}

// TestWholeGraphGreedyAllocationCeiling pins what one whole-graph Greedy
// solve of composite:60 (4,218 switches, 200 programs, seed 1)
// allocates. The polish's instance spans only the hosts the anchor
// placement used, so its tables are U²-sized: the full-topology polish
// allocated ~255 MB here, 238 MB of it the S² kernel scratch.
func TestWholeGraphGreedyAllocationCeiling(t *testing.T) {
	if racetest.Enabled() {
		t.Skip("allocation ceilings do not hold under the race detector")
	}
	topo, err := network.CompositeWAN(60, network.TofinoSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	g := shardInstance(t, 200, 1)
	solve := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := (Greedy{}).Solve(g, topo, Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	solve() // warm: path oracle, graph index
	const ceiling = 16 << 20
	if got := solve(); got > ceiling {
		t.Fatalf("whole-graph Greedy on composite:60 allocated %d bytes, ceiling %d", got, ceiling)
	} else {
		t.Logf("whole-graph Greedy on composite:60: %.1f MB", float64(got)/(1<<20))
	}
}
