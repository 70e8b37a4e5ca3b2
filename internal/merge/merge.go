// Package merge implements SPEED-style TDG merging (paper §IV, Alg. 1
// lines 4–8). Different programs exhibit redundancy — e.g. several
// sketches all compute hash indexes — so merging their TDGs and
// unifying equivalent MATs saves switch resources.
//
// The merger follows the three steps the paper quotes from SPEED [6]:
//  1. identify redundant MATs (identical properties) across the inputs,
//  2. initialize the merged TDG with the union of nodes and edges,
//  3. remove as many redundant MATs as possible while preserving edges.
//
// A unification is skipped when it would create a cycle: the merged TDG
// must stay a DAG for deployment to be meaningful.
//
// One fold core builds the merged TDG on dense node ids for both entry
// points: Graphs folds TDGs, and Programs folds programs straight from
// their MAT footprints, so Algorithm 1 never builds a TDG per program.
package merge

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"

	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

// Graphs merges the given TDGs into one with the semantics of
// Algorithm 1's pairwise fold: repeatedly extract two TDGs, merge them,
// put the result back. Merging two TDGs unifies each node of the second
// into the first node of the first (in insertion order) with the same
// name or an equivalent MAT, unions everything else, and falls back to
// a plain union without unification when unifying would close a cycle.
// Graphs runs that fold incrementally on a single accumulator: each
// input is folded into the accumulated graph using a hash index over
// MAT equivalence classes instead of a linear rescan of every
// accumulated node, and cycle checks walk only from the newly added
// edges instead of re-sorting the whole graph. This takes network-wide
// workloads (thousands of programs, ~10^5 MATs) from hours to seconds
// while producing the same merged TDG as the literal fold —
// TestGraphsMatchesPairwiseFold pins the equivalence against it.
// Input graphs are not modified.
func Graphs(graphs []*tdg.Graph) (*tdg.Graph, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("merge: no TDGs to merge")
	}
	nodes, edges := 0, 0
	for i, g := range graphs {
		if g == nil {
			return nil, fmt.Errorf("merge: nil TDG at index %d", i)
		}
		nodes += g.NumNodes()
		edges += g.NumEdges()
	}
	f := newFolder(nodes, edges, true)
	for i, g := range graphs {
		f.loadGraph(g)
		if err := f.fold(i == 0); err != nil {
			return nil, err
		}
	}
	return f.out, nil
}

// Programs merges the TDGs of progs exactly as Graphs merges the
// tdg.FromProgram graphs of progs, without building them. fps holds
// every program's MAT footprints in order (tdg.Footprints' output for
// each program, concatenated); each program's dependencies are
// enumerated from them once (tdg.InferDeps). With unify false nothing
// is unified by equivalence: the TDGs are unioned, and a name two
// programs share must be one definition. Programs also returns, per
// node id of the merged TDG, a pointer into fps to the footprint of the
// MAT behind the node: all that A(a,b) reads.
func Programs(progs []*program.Program, fps []program.Footprint, unify bool) (*tdg.Graph, []*program.Footprint, error) {
	// One table holds every program's dependencies, so the merged graph
	// is sized from the totals before the first fold.
	var deps []tdg.Dep
	ends := make([]int, len(progs))
	lo := 0
	for i, p := range progs {
		deps = tdg.InferDeps(deps, p, fps[lo:lo+len(p.MATs)])
		ends[i] = len(deps)
		lo += len(p.MATs)
	}
	f := newFolder(len(fps), len(deps), unify)
	f.fps = make([]*program.Footprint, len(fps))
	lo = 0
	for i, p := range progs {
		first := 0
		if i > 0 {
			first = ends[i-1]
		}
		f.loadProgram(p, fps[lo:lo+len(p.MATs)], deps[first:ends[i]])
		if err := f.fold(i == 0); err != nil {
			return nil, nil, err
		}
		lo += len(p.MATs)
	}
	return f.out, f.fps[:f.out.NumNodes()], nil
}

// folder is the one fold core behind Graphs and Programs. It folds one
// input at a time into out, addressing nodes by out's dense ids: every
// per-node array is sized from the total input MAT count up front, and
// a node the input being folded adds (a staged node) holds the id out
// will give it before out has it.
type folder struct {
	out   *tdg.Graph
	unify bool

	// Per node id.
	mats []*program.MAT
	next []int32              // the next id in the node's bucket, or -1
	fps  []*program.Footprint // Programs only
	// buckets maps an equivKey to its chain of ids through next, in
	// insertion order. Every pair of Equivalent MATs shares a key (the
	// key hashes only what Equivalent compares), so an equivalence scan
	// walks one chain; a hash collision merely lengthens it.
	buckets map[uint64]chain

	// The input being folded, by input node index; reused across inputs.
	in      []*program.MAT
	keys    []uint64
	origins [][]string
	program [1]string // a program input's one origin
	inFps   []program.Footprint
	deps    []dep
	order   []int32 // input node indexes in name order
	rank    []int32 // each input node's position in order
	ids     []int32 // the out id each input node folds into
	undo    []undo  // the bucket appends staging made

	// The cycle check's DFS scratch: visit stamps per id, the stack, and
	// the overlay of input edges already checked (a linked list of links
	// per tail id, from head).
	seen  []uint32
	stamp uint32
	stack []int
	head  []int32
	links []link
}

type chain struct{ head, tail int32 }

// undo reverts one staged bucket append: tail is the bucket's previous
// tail, or -1 when staging created the bucket.
type undo struct {
	key  uint64
	tail int32
}

// dep is one input edge between input node indexes; order is its
// (From, To) name rank pair.
type dep struct {
	from, to int32
	typ      tdg.DepType
	bytes    int
	order    uint64
}

type link struct{ to, next int32 }

func newFolder(nodes, edges int, unify bool) *folder {
	out := tdg.New()
	out.Grow(nodes, edges)
	ids := make([]int32, 2*nodes)
	f := &folder{
		out:     out,
		unify:   unify,
		mats:    make([]*program.MAT, nodes),
		next:    ids[:nodes],
		head:    ids[nodes:],
		seen:    make([]uint32, nodes),
		buckets: make(map[uint64]chain, nodes),
	}
	for i := range f.head {
		f.head[i] = -1
	}
	return f
}

// loadProgram makes p the input: its MATs, its origin, the footprints
// fps of its MATs and its dependencies deps.
func (f *folder) loadProgram(p *program.Program, fps []program.Footprint, deps []tdg.Dep) {
	f.in, f.origins = f.in[:0], f.origins[:0]
	f.program[0] = p.Name
	for _, m := range p.MATs {
		f.in = append(f.in, m)
		f.origins = append(f.origins, f.program[:])
	}
	f.inFps = fps
	f.deps = f.deps[:0]
	for _, d := range deps {
		f.deps = append(f.deps, dep{from: d.From, to: d.To, typ: d.Type})
	}
	f.prepare()
}

// loadGraph makes g the input.
func (f *folder) loadGraph(g *tdg.Graph) {
	f.in, f.origins = f.in[:0], f.origins[:0]
	for _, n := range g.Nodes() {
		f.in = append(f.in, n.MAT)
		f.origins = append(f.origins, n.Origin)
	}
	f.inFps = nil
	f.deps = f.deps[:0]
	for _, e := range g.EdgeList() {
		from, to := e.Endpoints()
		f.deps = append(f.deps, dep{from: from, to: to, typ: e.Type, bytes: e.MetadataBytes})
	}
	f.prepare()
}

// prepare sizes the per-input scratch, takes each input MAT's equivKey,
// and sorts the input's edges by (From, To) name: the order Clone and
// Edges feed the literal fold, and so the order in which the merged
// graph lists them. Names rank once per input, so the edge sort
// compares integers.
func (f *folder) prepare() {
	n := len(f.in)
	f.keys = f.keys[:0]
	f.order = f.order[:0]
	for i, m := range f.in {
		f.keys = append(f.keys, equivKey(m))
		f.order = append(f.order, int32(i))
	}
	slices.SortFunc(f.order, func(a, b int32) int { return strings.Compare(f.in[a].Name, f.in[b].Name) })
	f.rank = slices.Grow(f.rank[:0], n)[:n]
	for r, i := range f.order {
		f.rank[i] = int32(r)
	}
	for k := range f.deps {
		d := &f.deps[k]
		d.order = uint64(f.rank[d.from])<<32 | uint64(f.rank[d.to])
	}
	slices.SortFunc(f.deps, func(a, b dep) int { return cmp.Compare(a.order, b.order) })
	f.ids = slices.Grow(f.ids[:0], n)[:n]
	f.undo = slices.Grow(f.undo[:0], n)
	f.links = slices.Grow(f.links[:0], len(f.deps))
}

// fold folds the loaded input into out. The first input is copied as
// is, as the literal fold clones it. Later ones unify each input MAT
// with the first node, in id order, that has its name or an equivalent
// MAT, as the literal fold's linear scan would; when that would close a
// cycle, the input is unioned without unification instead. Nothing
// reaches out until the checks pass, so the fallback only reverts the
// staged bucket appends.
func (f *folder) fold(first bool) error {
	base := int32(f.out.NumNodes())
	if err := f.resolve(base, f.unify && !first); err != nil {
		return err
	}
	if !first && f.cyclic(base) {
		if !f.unify {
			return errCyclic
		}
		// The input orders its shared MATs against the accumulator.
		f.unstage()
		if err := f.resolve(base, false); err != nil {
			return err
		}
		if f.cyclic(base) {
			return errCyclic
		}
	}
	return f.commit()
}

var errCyclic = errors.New("merge: union of TDGs is cyclic")

// resolve picks the out id each input node folds into, staging the
// nodes that fold into no existing one. Without unify only a same-name
// node is a match, and it must be the same MAT definition.
func (f *folder) resolve(base int32, unify bool) error {
	f.undo = f.undo[:0]
	next := base
	// The same-name node, looked up by name once per input node before
	// the fold (out does not change until commit); ids holds it, -1 when
	// there is none, until the fold overwrites it.
	for i, m := range f.in {
		if id, ok := f.out.ID(m.Name); ok {
			f.ids[i] = id
		} else {
			f.ids[i] = -1
		}
	}
	//hermes:hot
	for i, m := range f.in {
		eq := int32(-1)
		if c, ok := f.buckets[f.keys[i]]; ok && unify {
			for id := c.head; id >= 0; id = f.next[id] {
				if f.mats[id].Equivalent(m) {
					eq = id
					break
				}
			}
		}
		name := f.ids[i]
		named := name >= 0
		switch {
		case named && (eq < 0 || name <= eq):
			// The scan hits the same-name node first: it must be the
			// same MAT definition or the inputs are inconsistent.
			if name != eq && !f.mats[name].Equivalent(m) {
				return fmt.Errorf("merge: node %q has conflicting definitions", m.Name)
			}
			f.ids[i] = name
		case eq >= 0:
			f.ids[i] = eq
		default:
			f.ids[i] = next
			f.stage(next, i)
			next++
		}
	}
	return nil
}

// stage gives input node i the id id and appends it to its bucket, so
// later nodes of the same input can fold into it.
func (f *folder) stage(id int32, i int) {
	k := f.keys[i]
	f.mats[id], f.next[id] = f.in[i], -1
	c, ok := f.buckets[k]
	if !ok {
		f.buckets[k] = chain{id, id}
		f.undo = append(f.undo, undo{key: k, tail: -1})
		return
	}
	f.next[c.tail] = id
	f.buckets[k] = chain{c.head, id}
	f.undo = append(f.undo, undo{key: k, tail: c.tail})
}

// unstage reverts the bucket appends of the last resolve, newest first.
func (f *folder) unstage() {
	for i := len(f.undo) - 1; i >= 0; i-- {
		u := f.undo[i]
		if u.tail < 0 {
			delete(f.buckets, u.key)
			continue
		}
		f.next[u.tail] = -1
		f.buckets[u.key] = chain{f.buckets[u.key].head, u.tail}
	}
	f.undo = f.undo[:0]
}

// cyclic reports whether out plus the input's edges, under ids, has a
// cycle. out is acyclic, so an input edge must close it: each edge is
// checked by a DFS from its head for its tail, over out's edges and
// the input edges checked before it. An edge out already has closes
// nothing new. On program workloads the walk stays inside one
// program's descendants — a handful of nodes.
func (f *folder) cyclic(base int32) bool {
	found := false
	//hermes:hot
	for _, d := range f.deps {
		from, to := f.ids[d.from], f.ids[d.to]
		if from == to {
			continue
		}
		if from < base && to < base {
			if _, ok := f.out.EdgeByID(from, to); ok {
				continue
			}
		}
		if found = f.reaches(to, from, base); found {
			break
		}
		f.links = f.links[:len(f.links)+1]
		f.links[len(f.links)-1] = link{to: to, next: f.head[from]}
		f.head[from] = int32(len(f.links) - 1)
	}
	for _, d := range f.deps {
		f.head[f.ids[d.from]] = -1
	}
	f.links = f.links[:0]
	return found
}

// reaches reports whether a walk from src over out's edges (ids below
// base) and the checked input edges meets dst.
func (f *folder) reaches(src, dst, base int32) bool {
	f.stamp++
	stack := append(f.stack[:0], int(src))
	found := false
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.seen[u] == f.stamp {
			continue
		}
		f.seen[u] = f.stamp
		if u == int(dst) {
			found = true
			break
		}
		if u < int(base) {
			stack = f.out.AppendSuccessors(stack, u)
		}
		for l := f.head[u]; l >= 0; l = f.links[l].next {
			stack = append(stack, int(f.links[l].to))
		}
	}
	f.stack = stack[:0]
	return found
}

// commit applies one resolved input to out in input order: each staged
// node, with its origins, or the origins it adds to the node it folds
// into; then its edges in (From, To) name order, an edge both of whose
// ends fold into one node dropped as internal.
func (f *folder) commit() error {
	for i, m := range f.in {
		id := f.ids[i]
		// Staged ids are handed out in input order, so a staged node's id
		// is out's next one; a node folding into an earlier node of its
		// own input gets that node's smaller id.
		if id == int32(f.out.NumNodes()) {
			if err := f.out.AddNode(m, f.origins[i]...); err != nil {
				return err
			}
			if f.inFps != nil {
				f.fps[id] = &f.inFps[i]
			}
			continue
		}
		for _, o := range f.origins[i] {
			f.out.AppendOrigin(id, o)
		}
	}
	//hermes:hot
	for _, d := range f.deps {
		from, to := f.ids[d.from], f.ids[d.to]
		if from == to {
			continue
		}
		if d.bytes < 0 {
			return fmt.Errorf("tdg: negative metadata size on %q->%q", f.mats[from].Name, f.mats[to].Name)
		}
		f.out.AppendEdge(from, to, d.typ, d.bytes)
	}
	return nil
}

// equivKey hashes exactly the MAT fields Equivalent compares, so
// Equivalent MATs always share a key; hash collisions merely enlarge a
// bucket and are resolved by the real Equivalent check. Equivalent
// compares match keys and actions as sorted multisets, so each key's
// (field, type) and each action's name is hashed on its own and the
// element hashes are summed: a sum is the same in every order, which
// keeps the invariant under permutations and comparator ties without
// sorting, and with no allocation. Op lists contribute only their
// total length.
func equivKey(m *program.MAT) uint64 {
	h := newHasher()
	h.u64(uint64(m.Capacity))
	h.str(m.DefaultAction)
	h.u64(math.Float64bits(m.FixedRequirement))

	var keys uint64
	for _, k := range m.Keys {
		e := newHasher()
		e.str(k.Field.Name)
		e.u64(uint64(k.Type))
		keys += uint64(e)
	}
	h.u64(uint64(len(m.Keys)))
	h.u64(keys)

	var actions uint64
	ops := 0
	for _, a := range m.Actions {
		e := newHasher()
		e.str(a.Name)
		actions += uint64(e)
		ops += len(a.Ops)
	}
	h.u64(uint64(len(m.Actions)))
	h.u64(actions)
	h.u64(uint64(ops))

	h.u64(uint64(len(m.Rules)))
	for _, r := range m.Rules {
		h.u64(uint64(int64(r.Priority)))
		h.str(r.Action)
		h.u64(uint64(len(r.Matches)))
		h.u64(uint64(len(r.Params)))
	}
	return uint64(h)
}

// hasher is a 64-bit multiply-rotate hash that takes eight bytes a
// step. equivKey only sorts MATs into buckets, so any well-mixed
// function serves; this one keeps hashing off the fold's profile.
type hasher uint64

func newHasher() hasher { return 0x243f6a8885a308d3 }

func (h *hasher) u64(v uint64) {
	*h = hasher(bits.RotateLeft64((uint64(*h)^v)*0x9e3779b97f4a7c15, 31) * 0xc2b2ae3d27d4eb4f)
}

// str hashes the length first, so adjacent strings cannot trade bytes.
func (h *hasher) str(s string) {
	h.u64(uint64(len(s)))
	for ; len(s) >= 8; s = s[8:] {
		h.u64(uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56)
	}
	var w uint64
	for i := 0; i < len(s); i++ {
		w |= uint64(s[i]) << (8 * i)
	}
	h.u64(w)
}

// Savings reports how many MAT instances merging eliminated: the sum of
// node counts of the inputs minus the node count of the merged graph.
func Savings(inputs []*tdg.Graph, merged *tdg.Graph) int {
	total := 0
	for _, g := range inputs {
		total += g.NumNodes()
	}
	return total - merged.NumNodes()
}
