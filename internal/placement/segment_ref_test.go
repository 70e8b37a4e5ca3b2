package placement

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
	"github.com/hermes-net/hermes/internal/workload"
)

// The graph-based front half of Alg. 2 as it stood before segments
// became ranges of one topological order: every step materializes
// tdg.Subgraphs and asks the name-keyed packer. Kept here as the
// differential references for splitScratch's split / bisect / coalesce /
// capacitySplit.

// splitTDGRef recursively bisects materialized subgraphs.
func splitTDGRef(g *tdg.Graph, sw *network.Switch, rm program.ResourceModel) ([]*tdg.Graph, error) {
	if CapacityFits(g, rm, sw) && FitsSwitch(g, g.NodeNames(), sw, rm) {
		return []*tdg.Graph{g}, nil
	}
	if g.NumNodes() == 1 {
		return nil, fmt.Errorf("placement: MAT %q alone exceeds switch capacity %g",
			g.NodeNames()[0], sw.Capacity())
	}
	left, right, err := splitOnceRef(g, rm)
	if err != nil {
		return nil, err
	}
	ls, err := splitTDGRef(left, sw, rm)
	if err != nil {
		return nil, err
	}
	rs, err := splitTDGRef(right, sw, rm)
	if err != nil {
		return nil, err
	}
	return append(ls, rs...), nil
}

// splitOnceRef performs one greedy bisection (Alg. 2 lines 4-14) on a
// materialized graph.
func splitOnceRef(g *tdg.Graph, rm program.ResourceModel) (left, right *tdg.Graph, err error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, nil, err
	}
	n := len(order)
	if n < 2 {
		return nil, nil, fmt.Errorf("placement: cannot split %d-node TDG", n)
	}
	va := map[string]bool{}
	bestCut := -1
	bestK := -1
	bestBalance := 0.0
	cut := 0
	total := g.TotalRequirement(rm)
	leftReq := 0.0
	for k := 0; k < n-1; k++ {
		name := order[k]
		for _, e := range g.OutEdges(name) {
			cut += e.MetadataBytes
		}
		for _, e := range g.InEdges(name) {
			if va[e.From] {
				cut -= e.MetadataBytes
			}
		}
		va[name] = true
		node, _ := g.Node(name)
		leftReq += rm.Requirement(node.MAT)
		imbalance := leftReq - total/2
		if imbalance < 0 {
			imbalance = -imbalance
		}
		if bestCut < 0 || cut < bestCut || (cut == bestCut && imbalance < bestBalance) {
			bestCut = cut
			bestK = k
			bestBalance = imbalance
		}
	}
	if left, err = g.Subgraph(order[:bestK+1]); err != nil {
		return nil, nil, err
	}
	if right, err = g.Subgraph(order[bestK+1:]); err != nil {
		return nil, nil, err
	}
	return left, right, nil
}

// coalesceSegmentsRef greedily merges consecutive segment graphs while
// the combination still satisfies the capacity test and packs.
func coalesceSegmentsRef(g *tdg.Graph, segments []*tdg.Graph, sw *network.Switch, rm program.ResourceModel) ([]*tdg.Graph, error) {
	if len(segments) <= 1 {
		return segments, nil
	}
	var out []*tdg.Graph
	cur := segments[0]
	curReq := cur.TotalRequirement(rm)
	for _, seg := range segments[1:] {
		req := seg.TotalRequirement(rm)
		if curReq+req <= sw.Capacity()+1e-9 {
			mergedNames := append(cur.NodeNames(), seg.NodeNames()...)
			merged, err := g.Subgraph(mergedNames)
			if err != nil {
				return nil, err
			}
			if FitsSwitch(g, mergedNames, sw, rm) {
				cur = merged
				curReq += req
				continue
			}
		}
		out = append(out, cur)
		cur = seg
		curReq = req
	}
	return append(out, cur), nil
}

// capacitySplitRef is the minimum-segment-count DP over names, edges
// read through the sorted accessors and feasibility through FitsSwitch.
func capacitySplitRef(g *tdg.Graph, sw *network.Switch, rm program.ResourceModel) ([]*tdg.Graph, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	n := len(order)
	cap := sw.Capacity()
	req := make([]float64, n)
	for i, name := range order {
		node, _ := g.Node(name)
		req[i] = rm.Requirement(node.MAT)
		if req[i] > cap+1e-9 {
			return nil, fmt.Errorf("placement: MAT %q alone exceeds switch capacity %g", name, cap)
		}
	}
	cutAt := make([]int, n+1)
	va := map[string]bool{}
	cut := 0
	for k := 0; k < n; k++ {
		name := order[k]
		for _, e := range g.OutEdges(name) {
			cut += e.MetadataBytes
		}
		for _, e := range g.InEdges(name) {
			if va[e.From] {
				cut -= e.MetadataBytes
			}
		}
		va[name] = true
		cutAt[k+1] = cut
	}
	const inf = int(^uint(0) >> 1)
	type cell struct{ groups, cost int }
	dp := make([]cell, n+1)
	prev := make([]int, n+1)
	for i := 1; i <= n; i++ {
		dp[i] = cell{groups: inf, cost: inf}
		prev[i] = -1
	}
	for i := 1; i <= n; i++ {
		weight := 0.0
		for j := i - 1; j >= 0; j-- {
			weight += req[j]
			if weight > cap+1e-9 {
				break
			}
			if dp[j].groups == inf {
				continue
			}
			boundary := 0
			if j > 0 {
				boundary = cutAt[j]
			}
			cand := cell{groups: dp[j].groups + 1, cost: dp[j].cost + boundary}
			if cand.groups > dp[i].groups || (cand.groups == dp[i].groups && cand.cost >= dp[i].cost) {
				continue
			}
			if !FitsSwitch(g, order[j:i], sw, rm) {
				continue
			}
			dp[i] = cand
			prev[i] = j
		}
	}
	if dp[n].groups == inf {
		return nil, fmt.Errorf("placement: no capacity-feasible contiguous split exists")
	}
	var bounds []int
	for at := n; at > 0; at = prev[at] {
		bounds = append(bounds, at)
	}
	var segments []*tdg.Graph
	start := 0
	for i := len(bounds) - 1; i >= 0; i-- {
		sub, err := g.Subgraph(order[start:bounds[i]])
		if err != nil {
			return nil, err
		}
		segments = append(segments, sub)
		start = bounds[i]
	}
	return segments, nil
}

func analyzed(t testing.TB, progs []*program.Program, err error) *tdg.Graph {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	g, err := analyzer.Analyze(progs, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// segmentGraphs is the differential corpus: the paper's evaluation
// point, the 200-program synthetic set, five 180-MAT windows of its
// topological order as graphs of their own, and seeded random DAGs
// (built fresh per call — the references fill the graphs' pack memo).
// The windows exist because the graph-based recursive split costs 30 s
// per capacity on the full 2,822-MAT set (a subgraph and an uncached
// topological sort per recursion node): the full set is checked on
// every piece but that recursion, the windows on all of them.
func segmentGraphs(t testing.TB) map[string]*tdg.Graph {
	graphs := map[string]*tdg.Graph{}
	progs, err := workload.EvaluationPrograms(30, 1)
	graphs["eval30"] = analyzed(t, progs, err)
	progs, err = workload.SyntheticSet(200, workload.PaperSyntheticSpec(), 1)
	syn := analyzed(t, progs, err)
	graphs["syn200"] = syn
	order, err := syn.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 5; w++ {
		at := w * (len(order) - 180) / 4
		if graphs[fmt.Sprintf("syn200/w%d", w)], err = syn.Subgraph(order[at : at+180]); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 8; i++ {
		graphs[fmt.Sprintf("dag%d", i)] = randomDAG(rng, 6+rng.Intn(20))
	}
	return graphs
}

func graphNames(segs []*tdg.Graph) [][]string {
	out := make([][]string, len(segs))
	for i, s := range segs {
		out[i] = s.NodeNames()
	}
	return out
}

func rangeNames(order []string, segs []segment) [][]string {
	out := make([][]string, len(segs))
	for i, s := range segs {
		out[i] = append([]string{}, order[s.lo:s.hi]...)
	}
	return out
}

// TestRangeSegmentationMatchesGraphReference: split, coalesce, the DP
// split and the refinement bisection over ranges cut at exactly the
// positions the graph-based versions cut at, at stage capacity 1.0, 0.3
// and 0.1 (random DAGs: small switches of their own, some too small for
// the largest MAT) with coalescing and the DP split on and off; an
// oversized MAT fails both with the same text.
func TestRangeSegmentationMatchesGraphReference(t *testing.T) {
	rm := program.DefaultResourceModel
	graphs := segmentGraphs(t)
	labels := make([]string, 0, len(graphs))
	for l := range graphs {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	compared, oversized, bisected := 0, 0, 0
	for _, label := range labels {
		g := graphs[label]
		order, err := g.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		for _, capacity := range []float64{1.0, 0.3, 0.1} {
			sw := &network.Switch{Name: "ref", Programmable: true, Stages: network.TofinoSpec().Stages, StageCapacity: capacity}
			if label[0] == 'd' {
				sw.Stages, sw.StageCapacity = 3, capacity/2+0.05
			}
			where := fmt.Sprintf("%s @%g", label, capacity)

			// SplitTDG through the boundary wrapper, and the error text.
			gotSplit, gerr := SplitTDG(g, sw, rm)
			wantSplit, werr := gotSplit, gerr
			if label != "syn200" {
				wantSplit, werr = splitTDGRef(g, sw, rm)
			}
			if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
				t.Fatalf("%s: SplitTDG error %v, reference %v", where, gerr, werr)
			}
			wantDP, dwerr := capacitySplitRef(g, sw, rm)
			gotDP, dgerr := newSplitScratch(g, order, sw, rm).capacitySplit()
			if (dwerr == nil) != (dgerr == nil) || (dwerr != nil && dwerr.Error() != dgerr.Error()) {
				t.Fatalf("%s: capacitySplit error %v, reference %v", where, dgerr, dwerr)
			}
			if werr != nil {
				oversized++
				if _, err := segmentations(newSplitScratch(g, order, sw, rm)); err == nil || err.Error() != werr.Error() {
					t.Fatalf("%s: segmentations error %v, reference %v", where, err, werr)
				}
				continue
			}
			if !reflect.DeepEqual(graphNames(gotSplit), graphNames(wantSplit)) {
				t.Fatalf("%s: SplitTDG segments differ:\n got %v\nwant %v", where, graphNames(gotSplit), graphNames(wantSplit))
			}
			if !reflect.DeepEqual(rangeNames(order, gotDP), graphNames(wantDP)) {
				t.Fatalf("%s: DP split differs:\n got %v\nwant %v", where, rangeNames(order, gotDP), graphNames(wantDP))
			}
			wantCoalesced, err := coalesceSegmentsRef(g, wantSplit, sw, rm)
			if err != nil {
				t.Fatal(err)
			}

			// coalesce over the raw split, then segmentations (coalesced
			// split, plus the DP split when it is shorter), against the
			// same rules applied to the reference pieces.
			sp := newSplitScratch(g, order, sw, rm)
			raw, err := sp.split(0, len(order), nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := rangeNames(order, sp.coalesce(raw)); !reflect.DeepEqual(got, graphNames(wantCoalesced)) {
				t.Fatalf("%s: coalesce differs:\n got %v\nwant %v", where, got, graphNames(wantCoalesced))
			}
			compared++
			want := [][]*tdg.Graph{wantCoalesced}
			if len(wantDP) < len(wantCoalesced) {
				want = append(want, wantDP)
			}
			got, err := segmentations(sp)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d candidate segmentations, reference %d", where, len(got), len(want))
			}
			for c := range got {
				if !reflect.DeepEqual(rangeNames(order, got[c]), graphNames(want[c])) {
					t.Fatalf("%s candidate %d:\n got %v\nwant %v", where, c, rangeNames(order, got[c]), graphNames(want[c]))
				}
				compared++
			}

			// Refinement bisects whichever segment packing rejects: every
			// multi-MAT segment of every candidate must bisect where
			// splitOnce did (the first 40 of each on the large corpus).
			for _, cand := range [][]*tdg.Graph{wantSplit, wantCoalesced, wantDP} {
				lo := 0
				for i, seg := range cand {
					hi := lo + seg.NumNodes()
					if seg.NumNodes() >= 2 && i < 40 {
						left, right, err := splitOnceRef(seg, rm)
						if err != nil {
							t.Fatal(err)
						}
						cut := sp.bisect(lo, hi)
						if !reflect.DeepEqual(order[lo:cut], left.NodeNames()) || !reflect.DeepEqual(order[cut:hi], right.NodeNames()) {
							t.Fatalf("%s segment [%d,%d): bisect at %d, reference left %v", where, lo, hi, cut, left.NodeNames())
						}
						bisected++
					}
					lo = hi
				}
			}
		}
	}
	if compared < 60 || oversized < 3 || bisected < 100 {
		t.Fatalf("thin coverage: %d segmentations compared, %d oversized cases, %d bisections", compared, oversized, bisected)
	}
}

// TestPacksMatchesFitsSwitch: the climb's position-set packing verdict
// equals FitsSwitch on the same MAT set and real switch — on whole-graph
// and compileSubset instances, over randomized resident sets with a MAT
// added or dropped, across settles, including a non-programmable
// switch, one cut to a single stage, emptied switches, and predecessors
// that sit outside the packed set.
func TestPacksMatchesFitsSwitch(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	rm := Options{}.resourceModel()
	graphs := segmentGraphs(t)
	verdicts := map[bool]int{}
	for _, label := range []string{"eval30", "dag0", "dag1", "dag2", "dag3", "dag4", "dag5"} {
		g := graphs[label]
		for trial := 0; trial < 6; trial++ {
			u := 4 + rng.Intn(5)
			topo := network.NewTopology("packs")
			sws := make([]*network.Switch, u)
			cands := make([]int32, u)
			for h := range sws {
				id := topo.AddSwitch(network.Switch{
					Name: fmt.Sprintf("s%d", h), Programmable: true,
					Stages: 2 + rng.Intn(11), StageCapacity: 0.2 + 0.8*rng.Float64(),
				})
				sw, err := topo.Switch(id)
				if err != nil {
					t.Fatal(err)
				}
				sws[h], cands[h] = sw, int32(h)
			}
			sws[0].Programmable = false
			sws[1].Stages = 1

			// Whole instance on even trials, a random sorted subset on odd.
			names := g.NodeNames()
			sort.Strings(names)
			if trial%2 == 1 {
				rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
				names = names[:1+rng.Intn(len(names))]
				sort.Strings(names)
			}
			ci, err := compileSubset(g, names, topo, rm)
			if err != nil {
				t.Fatal(err)
			}
			assign := make([]int32, len(names))
			for x := range assign {
				// Crowd a few switches, leave some MATs unassigned and some
				// switches empty.
				assign[x] = int32(rng.Intn(u+1)) - 1
				if assign[x] == int32(u-1) {
					assign[x] = 2
				}
			}
			in := newRepairInstance(ci, sws, cands, assign, nil)

			want := func(h, add, drop int32) bool {
				var set []string
				for x, host := range assign {
					if host == h && int32(x) != drop {
						set = append(set, ci.Names[x])
					}
				}
				if add >= 0 {
					set = append(set, ci.Names[add])
				}
				rng.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
				return len(set) == 0 || FitsSwitch(g, set, sws[h], rm)
			}
			for step := 0; step < 120; step++ {
				h := int32(rng.Intn(u))
				x := int32(rng.Intn(len(names)))
				add, drop := int32(-1), int32(-1)
				switch {
				case assign[x] == h:
					drop = x
					if y := int32(rng.Intn(len(names))); rng.Intn(3) == 0 && assign[y] != h {
						add = y
					}
				case rng.Intn(4) > 0:
					add = x
				}
				got, exp := in.packs(h, add, drop), want(h, add, drop)
				if got != exp {
					t.Fatalf("%s trial %d step %d: packs(switch %d, add %d, drop %d) = %v, FitsSwitch %v",
						label, trial, step, h, add, drop, got, exp)
				}
				verdicts[got]++
				// Move x there regardless of the verdict: infeasible resident
				// sets are part of the domain.
				if add == x && drop < 0 && rng.Intn(2) == 0 {
					in.settle(x, assign[x], h)
					assign[x] = h
				}
			}
			for h := range sws {
				if got, exp := in.packs(int32(h), -1, -1), want(int32(h), -1, -1); got != exp {
					t.Fatalf("%s trial %d: final packs(switch %d) = %v, FitsSwitch %v", label, trial, h, got, exp)
				}
				pos := ci.TopoPos
				if !sort.SliceIsSorted(in.residents[h], func(i, j int) bool { return pos[in.residents[h][i]] < pos[in.residents[h][j]] }) {
					t.Fatalf("%s trial %d: residents of switch %d left canonical order", label, trial, h)
				}
			}
		}
	}
	if verdicts[true] < 200 || verdicts[false] < 200 {
		t.Fatalf("one-sided coverage: %d fit, %d do not", verdicts[true], verdicts[false])
	}
}

// TestColdGreedySolveAllocationCeiling pins the "one path" criterion by
// its cost: a cold Greedy solve of the paper's evaluation point builds
// no per-segment graph and hashes no MAT name between TopoSort and
// materialization, which shows as allocations. The parent commit made
// 67,316 mallocs in this solve (benchmark ledger, placement.solve_allocs
// on wan30; 67,331 under this harness); the ceiling is 60 % of that, so
// a re-introduced Subgraph per segment or packKey per probe fails here,
// not in a benchmark.
func TestColdGreedySolveAllocationCeiling(t *testing.T) {
	const parentAllocs = 67316
	topo, err := network.TableIII(1, network.TofinoSpec())
	if err != nil {
		t.Fatal(err)
	}
	solve := func() uint64 {
		progs, err := workload.EvaluationPrograms(30, 1)
		g := analyzed(t, progs, err) // fresh graph: no topo cache, no pack memo
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		plan, err := Greedy{}.Solve(g, topo, Options{Workers: 2})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if plan.QOcc() < 2 {
			t.Fatalf("fixture fits %d switch: nothing was split", plan.QOcc())
		}
		return after.Mallocs - before.Mallocs
	}
	solve() // warm the topology's path oracle, as a standing deployment has
	if got := solve(); got > parentAllocs*60/100 {
		t.Fatalf("cold Greedy solve made %d allocations, ceiling %d (60%% of the parent's %d)",
			got, parentAllocs*60/100, parentAllocs)
	} else {
		t.Logf("cold Greedy solve: %d allocations (parent %d)", got, parentAllocs)
	}
}
