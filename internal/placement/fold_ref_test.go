package placement

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

// foldMove is the per-edge move fold the peer fold replaced, kept as
// its reference: the overlay of moving MAT x to switch c, everything
// else fixed, one pass over x's incident edges per target. Every MAT
// incident to x must be assigned.
func (ms *MoveScratch) foldMove(ci *CompiledInstance, assign []int32, x, c int32) int {
	ms.reset()
	d := 0
	old := assign[x]
	s := ci.S
	for _, ei := range ci.Incident[x] {
		var peer, oldCell, newCell int32
		if ci.EdgeFrom[ei] == x {
			peer = assign[ci.EdgeTo[ei]]
			oldCell = old*s + peer
			newCell = c*s + peer
		} else {
			peer = assign[ci.EdgeFrom[ei]]
			oldCell = peer*s + old
			newCell = peer*s + c
		}
		b := ci.EdgeBytes[ei]
		if peer != old {
			ms.add(oldCell, -b)
			d -= int(b)
		}
		if peer != c {
			ms.add(newCell, b)
			d += int(b)
		}
	}
	return d
}

// foldPlace is the per-edge placement fold, the reference of
// overlayPlace: the pair cells placing MAT x on switch u adds; edges to
// unassigned peers contribute nothing.
func (ms *MoveScratch) foldPlace(ci *CompiledInstance, assign []int32, x, u int32) {
	ms.reset()
	s := ci.S
	for _, ei := range ci.Incident[x] {
		if ci.EdgeFrom[ei] == x {
			if peer := assign[ci.EdgeTo[ei]]; peer >= 0 && peer != u {
				ms.add(u*s+peer, ci.EdgeBytes[ei])
			}
		} else if peer := assign[ci.EdgeFrom[ei]]; peer >= 0 && peer != u {
			ms.add(peer*s+u, ci.EdgeBytes[ei])
		}
	}
}

// maxOverKeys is maxOver's pair scan, the reference of the histogram
// read: every touched pair with its overlay, then the overlay's own new
// cells, floored at zero.
func (ms *MoveScratch) maxOverKeys(pt *PairTable) int {
	m := int32(0)
	for _, k := range pt.keys {
		if v := pt.Cells[k] + ms.delta[k]; v > m {
			m = v
		}
	}
	for _, k := range ms.keys {
		if !pt.inKeys[k] && ms.delta[k] > m {
			m = ms.delta[k]
		}
	}
	return int(m)
}

// maxKeys is PairTable.Max's pair scan.
func maxKeys(pt *PairTable) int {
	m := int32(0)
	for _, k := range pt.keys {
		m = max(m, pt.Cells[k])
	}
	return int(m)
}

// kahnAcyclic is Kahn's check over a dense (possibly partial)
// assignment's contracted switch graph, built from every edge: the
// reference of the incremental CycleScratch.
func kahnAcyclic(ci *CompiledInstance, assign []int32) bool {
	s := ci.S
	adj := make([]bool, int(s)*int(s))
	indeg := make([]int32, s)
	present := make([]bool, s)
	nodes := 0
	for _, u := range assign {
		if u >= 0 && !present[u] {
			present[u] = true
			nodes++
		}
	}
	for ei := range ci.EdgeFrom {
		ua, ub := assign[ci.EdgeFrom[ei]], assign[ci.EdgeTo[ei]]
		if ua < 0 || ub < 0 || ua == ub || adj[ua*s+ub] {
			continue
		}
		adj[ua*s+ub] = true
		indeg[ub]++
	}
	var ready []int32
	for u := int32(0); u < s; u++ {
		if present[u] && indeg[u] == 0 {
			ready = append(ready, u)
		}
	}
	count := 0
	for len(ready) > 0 {
		u := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		count++
		for v := int32(0); v < s; v++ {
			if adj[u*s+v] {
				if indeg[v]--; indeg[v] == 0 {
					ready = append(ready, v)
				}
			}
		}
	}
	return count == nodes
}

// hubDAG is a DAG around one hub MAT: k predecessors and k successors
// with chains among them, and edge bytes drawn from [0, 3) so zero-byte
// edges are common.
func hubDAG(rng *rand.Rand, k int) *tdg.Graph {
	g := tdg.New()
	add := func(name string) {
		if err := g.AddNode(fixedMAT(name, 0.05+0.1*rng.Float64())); err != nil {
			panic(err)
		}
	}
	edge := func(a, b string) {
		if err := g.AddEdge(a, b, tdg.DepMatch, rng.Intn(3)); err != nil {
			panic(err)
		}
	}
	add("hub")
	for i := 0; i < k; i++ {
		add(fmt.Sprintf("p%02d", i))
		add(fmt.Sprintf("s%02d", i))
		edge(fmt.Sprintf("p%02d", i), "hub")
		edge("hub", fmt.Sprintf("s%02d", i))
		if i > 0 && rng.Intn(2) == 0 {
			edge(fmt.Sprintf("p%02d", i-1), fmt.Sprintf("p%02d", i))
		}
		if i > 0 && rng.Intn(3) == 0 {
			edge(fmt.Sprintf("s%02d", i-1), fmt.Sprintf("s%02d", i))
		}
	}
	return g
}

// foldCase is one randomized instance for the fold twins.
type foldCase struct {
	name   string
	ci     *CompiledInstance
	assign []int32
}

// foldCases draws random DAGs with zero-byte edges and random partial
// assignments, and hub DAGs whose peers all sit on one switch.
func foldCases(rng *rand.Rand, n int) []foldCase {
	rm := program.DefaultResourceModel
	var out []foldCase
	for trial := 0; trial < n; trial++ {
		tp := randomTopo(rng, 2+rng.Intn(5))
		if trial%4 == 3 {
			ci := Compile(hubDAG(rng, 3+rng.Intn(10)), tp, rm)
			host := int32(rng.Intn(int(ci.S)))
			assign := make([]int32, len(ci.Names))
			for x := range assign {
				assign[x] = host
			}
			assign[ci.Index["hub"]] = int32(rng.Intn(int(ci.S)))
			out = append(out, foldCase{fmt.Sprintf("hub trial %d", trial), ci, assign})
			continue
		}
		ci := Compile(randomDAG(rng, 3+rng.Intn(12)), tp, rm)
		assign := make([]int32, len(ci.Names))
		for x := range assign {
			assign[x] = int32(rng.Intn(int(ci.S)))
			if trial%2 == 1 && rng.Intn(3) == 0 {
				assign[x] = -1
			}
		}
		out = append(out, foldCase{fmt.Sprintf("trial %d", trial), ci, assign})
	}
	return out
}

// sameOverlay reports where two overlays differ, cell by cell: the
// delta of every cell and which cells were touched.
func sameOverlay(a, b *MoveScratch) error {
	for c := range a.delta {
		if a.delta[c] != b.delta[c] || a.inKeys[c] != b.inKeys[c] {
			return fmt.Errorf("cell %d: delta %d touched %v, reference delta %d touched %v",
				c, a.delta[c], a.inKeys[c], b.delta[c], b.inKeys[c])
		}
	}
	if len(a.keys) != len(b.keys) {
		return fmt.Errorf("%d overlay keys, reference %d", len(a.keys), len(b.keys))
	}
	return nil
}

// checkHistogram holds the pair table's histogram to a recount of its
// cells: counts, presence bits and summary bits.
func checkHistogram(pt *PairTable) error {
	want, top := map[int32]int32{}, int32(0)
	for _, k := range pt.keys {
		if v := pt.Cells[k]; v > 0 {
			want[v]++
			top = max(top, v)
		}
	}
	if int(top) >= len(pt.hist) && top > 0 {
		return fmt.Errorf("histogram of %d values misses cell value %d", len(pt.hist), top)
	}
	for v := range pt.hist {
		n := want[int32(v)]
		if pt.hist[v] != n {
			return fmt.Errorf("value %d: histogram counts %d cells, table holds %d", v, pt.hist[v], n)
		}
		if bit := pt.bits[v>>6]>>(v&63)&1 == 1; bit != (n > 0) {
			return fmt.Errorf("value %d: presence bit %v with %d cells", v, bit, n)
		}
	}
	for w, word := range pt.bits {
		if bit := pt.sums[w>>6]>>(w&63)&1 == 1; bit != (word != 0) {
			return fmt.Errorf("bits word %d: summary bit %v, word %#x", w, bit, word)
		}
	}
	return nil
}

// checkGraph holds the incremental contracted graph to a recount from
// the assignment: multiplicities, successor lists and Kahn's verdict.
func checkGraph(ci *CompiledInstance, cs *CycleScratch, assign []int32) error {
	s := ci.S
	mult := make([]int32, int(s)*int(s))
	for ei := range ci.EdgeFrom {
		if ua, ub := assign[ci.EdgeFrom[ei]], assign[ci.EdgeTo[ei]]; ua >= 0 && ub >= 0 && ua != ub {
			mult[ua*s+ub]++
		}
	}
	for c, m := range mult {
		if cs.mult[c] != m {
			return fmt.Errorf("contracted edge %d→%d: multiplicity %d, recount %d", int32(c)/s, int32(c)%s, cs.mult[c], m)
		}
	}
	for u, vs := range cs.succ {
		succ := slices.Clone(vs)
		slices.Sort(succ)
		var want []int32
		for v := int32(0); v < s; v++ {
			if mult[int32(u)*s+v] > 0 {
				want = append(want, v)
			}
		}
		if !slices.Equal(succ, want) {
			return fmt.Errorf("switch %d: successors %v, recount %v", u, succ, want)
		}
	}
	if got, want := cs.acyclic(), kahnAcyclic(ci, assign); got != want {
		return fmt.Errorf("whole-graph check %v, Kahn %v", got, want)
	}
	return nil
}

// TestCompiledKernelsMatchFoldReferences is the differential twin of
// the climb's kernels over randomized move and place sequences: every
// gathered overlay equals the per-edge fold cell by cell, the
// histogram's A_max equals the pair scan before and after each commit,
// the incremental acyclicity verdict equals Kahn on the assignment the
// step would produce, and the committed table and contracted graph
// equal a recount — on random DAGs with zero-byte edges, partial
// assignments, and hubs whose peers share one switch.
func TestCompiledKernelsMatchFoldReferences(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	steps := 0
	for _, fc := range foldCases(rng, 160) {
		ci, assign := fc.ci, fc.assign
		pt, ref := ci.NewPairTable(), ci.NewMoveScratch()
		in := &repairInstance{ci: ci, assign: assign, pt: pt, ms: ci.NewMoveScratch(), cyc: newCycleScratch(ci.S)}
		total := ci.FillPairTable(assign, pt)
		in.syncGraph()
		for step := 0; step < 60; step++ {
			where := fmt.Sprintf("%s step %d", fc.name, step)
			x := int32(rng.Intn(len(assign)))
			if fc.name[:3] == "hub" && rng.Intn(2) == 0 {
				x = ci.Index["hub"]
			}
			c := int32(rng.Intn(int(ci.S)))
			old := assign[x]
			if old >= 0 && slices.ContainsFunc(ci.Incident[x], func(ei int32) bool {
				return assign[ci.EdgeFrom[ei]] < 0 || assign[ci.EdgeTo[ei]] < 0
			}) {
				continue // a move needs every peer assigned
			}
			in.ms.gather(ci, assign, x)
			var d, refD int
			if old < 0 {
				in.ms.overlayPlace(ci.S, c)
				ref.foldPlace(ci, assign, x, c)
			} else {
				d = in.ms.overlayMove(ci.S, old, c)
				refD = ref.foldMove(ci, assign, x, c)
			}
			if err := sameOverlay(in.ms, ref); err != nil {
				t.Fatalf("%s: MAT %s → %d: %v", where, ci.Names[x], c, err)
			}
			if d != refD {
				t.Fatalf("%s: cross-byte change %d, reference %d", where, d, refD)
			}
			if got, want := in.ms.maxOver(pt), ref.maxOverKeys(pt); got != want {
				t.Fatalf("%s: histogram A_max %d, pair scan %d", where, got, want)
			}
			if err := checkHistogram(pt); err != nil {
				t.Fatalf("%s: maxOver left the histogram changed: %v", where, err)
			}
			assign[x] = c
			wantOK := kahnAcyclic(ci, assign)
			assign[x] = old
			if got := in.acyclicWith(old, c); got != wantOK {
				t.Fatalf("%s: incremental acyclicity %v, Kahn %v (graph acyclic before: %v)", where, got, wantOK, in.acyclic)
			}
			if err := checkGraph(ci, in.cyc, assign); err != nil {
				t.Fatalf("%s: the probe left the contracted graph changed: %v", where, err)
			}
			steps++
			if rng.Intn(4) == 0 {
				continue // probe only
			}
			// Commit, as the climb and place do, whatever the verdict, so
			// later steps also start from cyclic graphs.
			in.ms.gather(ci, assign, x)
			if old < 0 {
				in.ms.overlayPlace(ci.S, c)
			} else {
				total += in.ms.overlayMove(ci.S, old, c)
			}
			pt.apply(in.ms)
			in.cyc.retarget(in.ms, old, c)
			assign[x] = c
			in.acyclic = wantOK
			fresh := ci.NewPairTable()
			if want := ci.FillPairTable(assign, fresh); old >= 0 && total != want {
				t.Fatalf("%s: running total %d, refill %d", where, total, want)
			}
			total = ci.FillPairTable(assign, fresh)
			for cell := range fresh.Cells {
				if pt.Cells[cell] != fresh.Cells[cell] {
					t.Fatalf("%s: cell %d holds %d, refill %d", where, cell, pt.Cells[cell], fresh.Cells[cell])
				}
			}
			if got, want := pt.Max(), maxKeys(fresh); got != want {
				t.Fatalf("%s: histogram Max %d, pair scan %d", where, got, want)
			}
			if err := checkHistogram(pt); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			if err := checkGraph(ci, in.cyc, assign); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
		}
	}
	if steps < 3000 {
		t.Fatalf("only %d steps checked", steps)
	}
}

// TestPairTableHistogramMatchesKeyScan drives one table through random
// adds, decays and resets over values spread across several histogram
// words and summary words: Max and maxOver match the pair scans after
// every change.
func TestPairTableHistogramMatchesKeyScan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const s = 12
	pt, ms := newPairTable(s), newMoveScratch(s)
	for round := 0; round < 30; round++ {
		spread := int32(1) << (4 + rng.Intn(16))
		for i := 0; i < 200; i++ {
			cell := int32(rng.Intn(s * s))
			b := rng.Int31n(spread)
			if pt.Cells[cell] > 0 && rng.Intn(3) == 0 {
				b = -rng.Int31n(pt.Cells[cell] + 1) // decay, possibly to zero
			}
			pt.Add(cell, b)
			if got, want := pt.Max(), maxKeys(pt); got != want {
				t.Fatalf("round %d add %d: Max %d, pair scan %d", round, i, got, want)
			}
			ms.reset()
			for j := rng.Intn(5); j > 0; j-- {
				k := int32(rng.Intn(s * s))
				ms.add(k, -min(pt.Cells[k], rng.Int31n(spread)))
			}
			if got, want := ms.maxOver(pt), ms.maxOverKeys(pt); got != want {
				t.Fatalf("round %d add %d: maxOver %d, pair scan %d", round, i, got, want)
			}
		}
		if err := checkHistogram(pt); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		pt.Reset()
		if pt.Max() != 0 || slices.ContainsFunc(pt.hist, func(c int32) bool { return c != 0 }) ||
			slices.ContainsFunc(pt.bits, func(w uint64) bool { return w != 0 }) ||
			slices.ContainsFunc(pt.sums, func(w uint64) bool { return w != 0 }) {
			t.Fatalf("round %d: Reset left the histogram dirty", round)
		}
	}
}

// TestGatheredPeerHostsMatchReference: the climb's peer targets read
// from the fold equal the old sorted, deduplicated scan of the
// incident edges.
func TestGatheredPeerHostsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, fc := range foldCases(rng, 80) {
		ci := fc.ci
		in := &repairInstance{ci: ci, assign: fc.assign, ms: ci.NewMoveScratch()}
		for x := range fc.assign {
			var want []int32
			for _, ei := range ci.Incident[x] {
				peer := ci.EdgeTo[ei]
				if peer == int32(x) {
					peer = ci.EdgeFrom[ei]
				}
				if h := fc.assign[peer]; h >= 0 {
					want = append(want, h)
				}
			}
			slices.Sort(want)
			want = slices.Compact(want)
			in.ms.gather(ci, fc.assign, int32(x))
			if got := in.peerHosts(nil); !slices.Equal(got, want) && len(got)+len(want) > 0 {
				t.Fatalf("%s MAT %s: peer hosts %v, reference %v", fc.name, ci.Names[x], got, want)
			}
		}
	}
}
