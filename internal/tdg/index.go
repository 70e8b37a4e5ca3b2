package tdg

import (
	"slices"
	"strings"
	"sync"

	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/program"
)

// Index is the interned view of a graph that the solvers and the gates
// read instead of hashing MAT names: the node ids in name order and
// each id's rank in it (sorted once per graph), the cached topological
// order, and — built on first use — the field table. It is memoized on
// the graph, dropped on any mutation, and immutable once built: callers
// must not modify its slices.
type Index struct {
	// Names holds the node names by id.
	Names []string
	// ByName holds the node ids in ascending name order; Rank is its
	// inverse, each id's position in ByName.
	ByName []int32
	Rank   []int32
	// Topo is the cached topological order as ids and Order the same
	// order as names; Pos is each id's position in it. All three are nil
	// when the graph is cyclic.
	Topo  []int32
	Order []string
	Pos   []int32

	g          *Graph
	fieldsOnce sync.Once
	fields     *FieldTable
}

// Index returns the graph's index, building it on the first call after
// a mutation. Concurrent first calls build it once.
func (g *Graph) Index() *Index {
	if ix := g.cachedIndex(); ix != nil {
		return ix
	}
	g.idxMu.Lock()
	defer g.idxMu.Unlock()
	if ix := g.cachedIndex(); ix != nil {
		return ix
	}
	topo, order, err := g.topoFill()
	n := len(g.nodes)
	ix := &Index{g: g, Names: g.names[:n:n], ByName: make([]int32, n), Rank: make([]int32, n)}
	for id := range ix.ByName {
		ix.ByName[id] = int32(id)
	}
	slices.SortFunc(ix.ByName, func(a, b int32) int { return strings.Compare(ix.Names[a], ix.Names[b]) })
	for r, id := range ix.ByName {
		ix.Rank[id] = int32(r)
	}
	if err == nil {
		ix.Topo, ix.Order, ix.Pos = topo, order, make([]int32, n)
		for p, id := range topo {
			ix.Pos[id] = int32(p)
		}
	}
	g.mu.Lock()
	g.index = ix
	g.derived.Store(true)
	g.mu.Unlock()
	return ix
}

func (g *Graph) cachedIndex() *Index {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.index
}

// Footprints returns every node's footprint by node id: what
// MAT.Footprint derives from the node's MAT. A graph the analyzer built
// holds the footprints the analyzer derived (SetFootprints); any other
// graph derives them on the first call. Like the index they are dropped
// on any mutation and immutable once built: callers must not modify the
// slice or the lists it holds.
func (g *Graph) Footprints() []program.Footprint {
	if fps := g.cachedFootprints(); fps != nil {
		return fps
	}
	g.idxMu.Lock()
	defer g.idxMu.Unlock()
	if fps := g.cachedFootprints(); fps != nil {
		return fps
	}
	fps := make([]program.Footprint, len(g.nodes))
	for id, n := range g.nodes {
		fps[id] = n.MAT.Footprint()
	}
	g.storeFootprints(fps)
	return fps
}

// SetFootprints hands the graph footprints derived while it was
// built: fps[id] must be MAT.Footprint of node id's MAT, for every node. The
// graph keeps a copy of the values, so fps may point into a larger
// buffer the caller drops.
func (g *Graph) SetFootprints(fps []*program.Footprint) {
	own := make([]program.Footprint, len(fps))
	for id, fp := range fps {
		own[id] = *fp
	}
	g.storeFootprints(own)
}

func (g *Graph) cachedFootprints() []program.Footprint {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.fps
}

func (g *Graph) storeFootprints(fps []program.Footprint) {
	g.mu.Lock()
	g.fps = fps
	g.derived.Store(true)
	g.mu.Unlock()
}

// Fields returns the graph's field table over its MATs in name order:
// the table's MAT positions are name ranks. It is built on the first
// call, so a graph no gate reads never pays for it. Like every derived
// result on the graph it assumes the nodes' MATs are not edited in
// place once added.
func (ix *Index) Fields() *FieldTable {
	ix.fieldsOnce.Do(func() {
		mats := make([]*program.MAT, len(ix.ByName))
		for r, id := range ix.ByName {
			mats[r] = ix.g.nodes[id].MAT
		}
		ix.fields = InternFields(mats)
	})
	return ix.fields
}

// FieldTable interns every field a MAT list names — in a match key, an
// op destination or an op source — to a dense id in ascending name
// order, and lays each MAT's keys and ops out as id lists in
// declaration order. It is a dictionary, not an analysis: which
// references are reads or writes is left to each consumer.
type FieldTable struct {
	// Names holds the field names by id, ascending.
	Names []string
	// Defs holds each field's first definition in list order: per MAT,
	// its keys, then each op's destination and sources.
	Defs []fields.Field

	keyStart, opStart []int32 // per MAT position, into keys and ops
	keys              []int32
	ops               []FieldOp
}

// FieldOp is one action op on field ids.
type FieldOp struct {
	Kind program.OpKind
	// Action is the op's action's index in MAT.Actions.
	Action int32
	Dst    int32
	Srcs   []int32
}

// InternFields builds the field table of mats; MAT position i of the
// table is mats[i].
func InternFields(mats []*program.MAT) *FieldTable {
	nk, no, ns := 0, 0, 0
	for _, m := range mats {
		nk += len(m.Keys)
		for _, a := range m.Actions {
			no += len(a.Ops)
			for _, op := range a.Ops {
				ns += len(op.Srcs)
			}
		}
	}
	t := &FieldTable{
		keyStart: make([]int32, len(mats)+1),
		opStart:  make([]int32, len(mats)+1),
		keys:     make([]int32, 0, nk),
		ops:      make([]FieldOp, 0, no),
	}
	// srcs has room for every source, so the ops' Srcs windows never
	// move while later ops append behind them.
	srcs := make([]int32, 0, ns)
	// Merged graphs name each field ~4 times; sizing for that saves the
	// map's rehashes.
	hint := (nk + no + ns) / 4
	ids := make(map[string]int32, hint)
	t.Names, t.Defs = make([]string, 0, hint), make([]fields.Field, 0, hint)
	intern := func(f fields.Field) int32 {
		id, ok := ids[f.Name]
		if !ok {
			id = int32(len(t.Names))
			ids[f.Name] = id
			t.Names = append(t.Names, f.Name)
			t.Defs = append(t.Defs, f)
		}
		return id
	}
	for i, m := range mats {
		for _, k := range m.Keys {
			t.keys = append(t.keys, intern(k.Field))
		}
		t.keyStart[i+1] = int32(len(t.keys))
		for a, act := range m.Actions {
			for _, op := range act.Ops {
				dst, lo := intern(op.Dst), len(srcs)
				for _, s := range op.Srcs {
					srcs = append(srcs, intern(s))
				}
				t.ops = append(t.ops, FieldOp{Kind: op.Kind, Action: int32(a), Dst: dst, Srcs: srcs[lo:len(srcs):len(srcs)]})
			}
		}
		t.opStart[i+1] = int32(len(t.ops))
	}

	// Renumber from first-seen order to name order.
	perm := make([]int32, len(t.Names))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int { return strings.Compare(t.Names[a], t.Names[b]) })
	names, defs, to := make([]string, len(perm)), make([]fields.Field, len(perm)), make([]int32, len(perm))
	for id, old := range perm {
		names[id], defs[id], to[old] = t.Names[old], t.Defs[old], int32(id)
	}
	t.Names, t.Defs = names, defs
	for i, f := range t.keys {
		t.keys[i] = to[f]
	}
	for i, f := range srcs {
		srcs[i] = to[f]
	}
	for i := range t.ops {
		t.ops[i].Dst = to[t.ops[i].Dst]
	}
	return t
}

// Keys returns the field ids of MAT position i's match keys, in
// declaration order.
func (t *FieldTable) Keys(i int32) []int32 { return t.keys[t.keyStart[i]:t.keyStart[i+1]] }

// Ops returns MAT position i's ops, action by action in declaration
// order.
func (t *FieldTable) Ops(i int32) []FieldOp { return t.ops[t.opStart[i]:t.opStart[i+1]] }
