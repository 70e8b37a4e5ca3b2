package equiv

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/racetest"
	"github.com/hermes-net/hermes/internal/tdg"
)

// newCompiledRef is the name-keyed compile the tdg.Index path replaced,
// kept as the differential reference: it sorts the node names itself,
// interns the fields into a map in name order, marks an action's local
// writes in a map, and checks the order-free fields with a map-visited
// DFS. Only the MAT-name lookup (matIndex) goes through the graph's
// index, as the checker's lowering does.
func newCompiledRef(g *tdg.Graph) (*compiled, error) {
	refNames, err := g.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("equiv: reference graph is not a DAG: %w", err)
	}
	ov := &compiled{g: g, ix: g.Index()}
	ov.names = g.NodeNames()
	sort.Strings(ov.names)
	n := len(ov.names)
	ov.nodes = make([]*tdg.Node, n)
	index := make(map[string]int32, n)
	for i, name := range ov.names {
		ov.nodes[i], _ = g.Node(name)
		index[name] = int32(i)
	}

	// Field universe: first definition in name order.
	seen := map[string]fields.Field{}
	add := func(f fields.Field) {
		if _, ok := seen[f.Name]; !ok {
			seen[f.Name] = f
		}
	}
	for _, node := range ov.nodes {
		m := node.MAT
		for _, k := range m.Keys {
			add(k.Field)
		}
		for _, a := range m.Actions {
			for _, op := range a.Ops {
				add(op.Dst)
				for _, s := range op.Srcs {
					add(s)
				}
			}
		}
	}
	for name := range seen {
		ov.fieldNames = append(ov.fieldNames, name)
	}
	sort.Strings(ov.fieldNames)
	fieldIndex := make(map[string]int32, len(ov.fieldNames))
	ov.fieldDefs = make([]fields.Field, len(ov.fieldNames))
	ov.fieldMeta = make([]bool, len(ov.fieldNames))
	for i, name := range ov.fieldNames {
		ov.fieldDefs[i] = seen[name]
		ov.fieldMeta[i] = seen[name].IsMetadata()
		fieldIndex[name] = int32(i)
	}

	// Per-MAT external reads and may-writes.
	ov.readStart = make([]int32, n+1)
	ov.writeStart = make([]int32, n+1)
	for i, node := range ov.nodes {
		m := node.MAT
		var reads []int32
		for _, k := range m.Keys {
			reads = append(reads, fieldIndex[k.Field.Name])
		}
		for _, a := range m.Actions {
			local := map[int32]bool{}
			for _, op := range a.Ops {
				for _, src := range opReadsRef(op) {
					if fi := fieldIndex[src.Name]; !local[fi] {
						reads = append(reads, fi)
					}
				}
				local[fieldIndex[op.Dst.Name]] = true
			}
		}
		ov.readF = append(ov.readF, dedupSorted(reads)...)
		ov.readStart[i+1] = int32(len(ov.readF))
		var writes []int32
		for _, a := range m.Actions {
			for _, op := range a.Ops {
				writes = append(writes, fieldIndex[op.Dst.Name])
			}
		}
		ov.writeF = append(ov.writeF, dedupSorted(writes)...)
		ov.writeStart[i+1] = int32(len(ov.writeF))
	}

	ov.refOrder = make([]int32, n)
	ov.refPos = make([]int32, n)
	for i, name := range refNames {
		x := index[name]
		ov.refOrder[i] = x
		ov.refPos[x] = int32(i)
	}
	ov.outStart = make([]int32, n+1)
	for _, e := range g.EdgeList() {
		ov.outStart[index[e.From]+1]++
	}
	for i := 0; i < n; i++ {
		ov.outStart[i+1] += ov.outStart[i]
	}
	ov.outTo = make([]int32, len(g.EdgeList()))
	fill := make([]int32, n)
	for _, e := range g.EdgeList() {
		x := index[e.From]
		ov.outTo[ov.outStart[x]+fill[x]] = index[e.To]
		fill[x]++
	}

	f := len(ov.fieldNames)
	ov.refWHash = make([]uint64, f)
	ov.refWCnt = make([]int32, f)
	ov.refWSym = make([]uint64, f)
	for i := range ov.refWHash {
		ov.refWHash[i] = seqSeed
	}
	writers := make([][]int32, f)
	ov.refReadCnt = make([]int32, len(ov.readF))
	for _, x := range ov.refOrder {
		for s := ov.readStart[x]; s < ov.readStart[x+1]; s++ {
			ov.refReadCnt[s] = ov.refWCnt[ov.readF[s]]
		}
		for s := ov.writeStart[x]; s < ov.writeStart[x+1]; s++ {
			fi := ov.writeF[s]
			ov.refWHash[fi] = seqMix(ov.refWHash[fi], x)
			ov.refWCnt[fi]++
			ov.refWSym[fi] += symMix(x)
			writers[fi] = append(writers[fi], x)
		}
	}
	ov.refWFree = make([]bool, f)
	for fi, ws := range writers {
		if len(ws) < 2 {
			continue
		}
		free := true
		for i := 0; i < len(ws) && free; i++ {
			for j := i + 1; j < len(ws); j++ {
				if reachableRef(ov, ws[i], ws[j]) || reachableRef(ov, ws[j], ws[i]) {
					free = false
					break
				}
			}
		}
		ov.refWFree[fi] = free
	}
	return ov, nil
}

// opReadsRef lists the fields one op reads from the context, matching
// matExecutor.runAction.
func opReadsRef(op program.Op) []fields.Field {
	switch op.Kind {
	case program.OpCopy, program.OpHash, program.OpCount:
		return op.Srcs
	case program.OpAdd:
		if len(op.Srcs) > 0 {
			return []fields.Field{op.Dst, op.Srcs[0]}
		}
		return []fields.Field{op.Dst}
	case program.OpDecrement:
		return []fields.Field{op.Dst}
	default:
		return nil
	}
}

// reachableRef is the map-visited DFS reachable replaced.
func reachableRef(ov *compiled, from, to int32) bool {
	if from == to {
		return true
	}
	limit := ov.refPos[to]
	visited := map[int32]bool{from: true}
	stack := []int32{from}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for s := ov.outStart[x]; s < ov.outStart[x+1]; s++ {
			next := ov.outTo[s]
			if next == to {
				return true
			}
			if !visited[next] && ov.refPos[next] < limit {
				visited[next] = true
				stack = append(stack, next)
			}
		}
	}
	return false
}

// CompiledDiff compiles g on its index and by the name-keyed reference
// and names the first overlay array that differs; "" means every array
// is equal.
func CompiledDiff(g *tdg.Graph) (string, error) {
	got, err := newCompiled(g)
	if err != nil {
		return "", err
	}
	want, err := newCompiledRef(g)
	if err != nil {
		return "", err
	}
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"names", got.names, want.names},
		{"nodes", got.nodes, want.nodes},
		{"fieldNames", got.fieldNames, want.fieldNames},
		{"fieldDefs", got.fieldDefs, want.fieldDefs},
		{"fieldMeta", got.fieldMeta, want.fieldMeta},
		{"readStart", got.readStart, want.readStart},
		{"readF", got.readF, want.readF},
		{"writeStart", got.writeStart, want.writeStart},
		{"writeF", got.writeF, want.writeF},
		{"refOrder", got.refOrder, want.refOrder},
		{"refPos", got.refPos, want.refPos},
		{"refReadCnt", got.refReadCnt, want.refReadCnt},
		{"refWHash", got.refWHash, want.refWHash},
		{"refWCnt", got.refWCnt, want.refWCnt},
		{"refWSym", got.refWSym, want.refWSym},
		{"refWFree", got.refWFree, want.refWFree},
		{"outStart", got.outStart, want.outStart},
		{"outTo", got.outTo, want.outTo},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			return c.name, nil
		}
	}
	return "", nil
}

// lowered is the part of a Checker's scratch lowerDeployment fills.
type lowered struct {
	usedIDs                  []network.SwitchID
	visit, rank              []int32
	cycle                    bool
	execMAT, execSw          []int32
	execName, unknown, noDef []string
	dirtyDef                 []int32
	impStart, impFrom, impF  []int32
}

// lowerRef is the name-keyed lowering lowerDeployment replaced, kept as
// its reference: used switches gathered from the assignments through a
// map, the contracted graph walked by MAT name, each switch's first
// stages deduplicated in a map, the entries sorted by (visit rank,
// first stage, name) with string compares, and every executed MAT's
// deployed definition looked up by name.
func lowerRef(ov *compiled, dep *deploy.Deployment) lowered {
	var l lowered
	p := dep.Plan
	swOf := map[network.SwitchID]int32{}
	for _, sp := range p.Assignments {
		if _, ok := swOf[sp.Switch]; !ok {
			swOf[sp.Switch] = 0
			l.usedIDs = append(l.usedIDs, sp.Switch)
		}
	}
	slices.Sort(l.usedIDs)
	for i, id := range l.usedIDs {
		swOf[id] = int32(i)
	}
	u := len(l.usedIDs)
	adj := make([]bool, u*u)
	indeg := make([]int32, u)
	for _, e := range p.Graph.EdgeList() {
		spa, oka := p.Assignments[e.From]
		spb, okb := p.Assignments[e.To]
		if !oka || !okb || spa.Switch == spb.Switch {
			continue
		}
		a, b := swOf[spa.Switch], swOf[spb.Switch]
		if !adj[int(a)*u+int(b)] {
			adj[int(a)*u+int(b)] = true
			indeg[b]++
		}
	}
	l.rank = make([]int32, u)
	for i := range l.rank {
		l.rank[i] = -1
	}
	for len(l.visit) < u {
		picked := int32(-1)
		for i := 0; i < u; i++ {
			if l.rank[i] < 0 && indeg[i] == 0 {
				picked = int32(i)
				break
			}
		}
		if picked < 0 {
			break
		}
		l.rank[picked] = int32(len(l.visit))
		l.visit = append(l.visit, picked)
		for b := 0; b < u; b++ {
			if adj[int(picked)*u+b] {
				indeg[b]--
			}
		}
		indeg[picked] = -1
	}
	l.cycle = len(l.visit) < u

	type entry struct {
		rank, stage int32
		name        string
	}
	var ents []entry
	for r, su := range l.visit {
		cfg := dep.Configs[l.usedIDs[su]]
		if cfg == nil {
			continue
		}
		first := map[string]int32{}
		for s, st := range cfg.Stages {
			for _, e := range st {
				if _, ok := first[e.MAT]; !ok {
					first[e.MAT] = int32(s)
				}
			}
		}
		for name, st := range first {
			ents = append(ents, entry{int32(r), st, name})
		}
	}
	sort.SliceStable(ents, func(i, j int) bool {
		a, b := ents[i], ents[j]
		if a.rank != b.rank {
			return a.rank < b.rank
		}
		if a.stage != b.stage {
			return a.stage < b.stage
		}
		return a.name < b.name
	})
	for _, e := range ents {
		x, _ := ov.matIndex(e.name)
		l.execMAT = append(l.execMAT, x)
		l.execName = append(l.execName, e.name)
		l.execSw = append(l.execSw, l.visit[e.rank])
		if x < 0 {
			l.unknown = append(l.unknown, e.name)
			continue
		}
		n, ok := p.Graph.Node(e.name)
		if !ok {
			l.noDef = append(l.noDef, e.name)
		} else if n.MAT != ov.nodes[x].MAT {
			l.dirtyDef = append(l.dirtyDef, x)
		}
	}
	l.impStart = []int32{0}
	for r, su := range l.visit {
		if cfg := dep.Configs[l.usedIDs[su]]; cfg != nil {
			for _, from := range l.visit[:r] {
				hdr, ok := cfg.Imports[l.usedIDs[from]]
				if !ok {
					continue
				}
				for _, f := range hdr.Fields {
					if fi, ok := ov.fieldID(f.Name); ok {
						l.impFrom = append(l.impFrom, from)
						l.impF = append(l.impF, fi)
					}
				}
			}
		}
		l.impStart = append(l.impStart, int32(len(l.impF)))
	}
	return l
}

// LoweringDiff lowers dep against ref (dep's graph when nil) through
// the checker and by the name-keyed reference lowering, and names the
// first lowered array that differs; "" means every one is equal.
func LoweringDiff(ref *tdg.Graph, dep *deploy.Deployment) (string, error) {
	c, err := checkerFor(ref, dep)
	if err != nil {
		return "", err
	}
	defer c.release()
	if err := c.lowerDeployment(dep); err != nil {
		return "", err
	}
	want := lowerRef(c.ov, dep)
	for _, d := range []struct {
		name      string
		got, want any
	}{
		{"usedIDs", c.usedIDs, want.usedIDs},
		{"visit", c.visit, want.visit},
		{"rank", c.rank, want.rank},
		{"cycle", c.cycle, want.cycle},
		{"execMAT", c.execMAT, want.execMAT},
		{"execName", c.execName, want.execName},
		{"execSw", c.execSw, want.execSw},
		{"unknown", c.unknown, want.unknown},
		{"noDef", c.noDef, want.noDef},
		{"dirtyDef", c.dirtyDef, want.dirtyDef},
		{"impStart", c.impStart, want.impStart},
		{"impFrom", c.impFrom, want.impFrom},
		{"impF", c.impF, want.impF},
	} {
		if g, w := reflect.ValueOf(d.got), reflect.ValueOf(d.want); g.Kind() == reflect.Slice && g.Len() == 0 && w.Len() == 0 {
			continue // empty scratch and a nil reference list agree
		}
		if !reflect.DeepEqual(d.got, d.want) {
			return fmt.Sprintf("%s: %v, reference %v", d.name, d.got, d.want), nil
		}
	}
	return "", nil
}

// refChecker returns a fresh Checker over the reference compile of ref
// (dep's graph when nil).
func refChecker(ref *tdg.Graph, dep *deploy.Deployment) (*Checker, error) {
	if ref == nil {
		if dep == nil || dep.Plan == nil {
			return nil, fmt.Errorf("equiv: nil deployment")
		}
		ref = dep.Plan.Graph
	}
	ov, err := newCompiledRef(ref)
	if err != nil {
		return nil, err
	}
	return newChecker(ov), nil
}

// CheckRef is CheckDeployment on the reference compile.
func CheckRef(ref *tdg.Graph, dep *deploy.Deployment) error {
	c, err := refChecker(ref, dep)
	if err != nil {
		return err
	}
	return c.Check(dep)
}

// DiagnoseRef is Diagnose on the reference compile.
func DiagnoseRef(ref *tdg.Graph, dep *deploy.Deployment) (*Report, error) {
	c, err := refChecker(ref, dep)
	if err != nil {
		return nil, err
	}
	return c.Diagnose(dep)
}

// randomDAG builds an n-node graph whose edges all run from a lower to
// a higher insertion index, each present with probability p, with
// names in shuffled order so name ranks differ from ids.
func randomDAG(t *testing.T, rng *rand.Rand, n int, p float64) *tdg.Graph {
	t.Helper()
	g := tdg.New()
	for i, name := range rng.Perm(n) {
		m := &program.MAT{Name: fmt.Sprintf("m%03d", name), Capacity: 1,
			Actions: []program.Action{{Name: "a", Ops: []program.Op{program.SetOp(fields.Metadata(fmt.Sprintf("meta.f%d", i%5), 8), 1)}}}}
		if err := g.AddNode(m); err != nil {
			t.Fatal(err)
		}
	}
	names := g.NodeNames()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				if err := g.AddEdge(names[i], names[j], tdg.DepAction, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return g
}

// bfsReach is the plain reference: breadth-first search from from over
// the graph's own adjacency, by name.
func bfsReach(g *tdg.Graph, from, to string) bool {
	if from == to {
		return true
	}
	seen := map[string]bool{from: true}
	queue := []string{from}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, e := range g.OutEdgeList(x) {
			if e.To == to {
				return true
			}
			if !seen[e.To] {
				seen[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	return false
}

// TestReachableMatchesBFS holds the stamp-array reachability to a plain
// BFS on every ordered pair of seeded random DAGs, sharing one scratch
// across graphs of different sizes, and shows a warm call allocates
// nothing.
func TestReachableMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sc reachScratch
	for trial := 0; trial < 12; trial++ {
		n := 5 + rng.Intn(40)
		g := randomDAG(t, rng, n, []float64{0.05, 0.15, 0.4}[trial%3])
		ov, err := newCompiled(g)
		if err != nil {
			t.Fatal(err)
		}
		for a := int32(0); int(a) < n; a++ {
			for b := int32(0); int(b) < n; b++ {
				if got, want := ov.reachable(a, b, &sc), bfsReach(g, ov.names[a], ov.names[b]); got != want {
					t.Fatalf("trial %d: reachable(%s, %s) = %v, BFS says %v", trial, ov.names[a], ov.names[b], got, want)
				}
			}
		}
		if racetest.Enabled() || trial != 11 {
			continue
		}
		last := int32(n - 1)
		if allocs := testing.AllocsPerRun(100, func() {
			ov.reachable(0, last, &sc)
			ov.reachable(last, 0, &sc)
		}); allocs != 0 {
			t.Fatalf("warm reachable allocates %.1f objects per call pair, want 0", allocs)
		}
	}
}
