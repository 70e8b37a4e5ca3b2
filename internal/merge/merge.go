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
package merge

import (
	"fmt"
	"math"

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
	for i, g := range graphs {
		if g == nil {
			return nil, fmt.Errorf("merge: nil TDG at index %d", i)
		}
	}
	m := newMerger(graphs[0])
	for _, g := range graphs[1:] {
		if err := m.add(g); err != nil {
			return nil, err
		}
	}
	return m.out, nil
}

func appendUnique(dst []string, src ...string) []string {
	seen := make(map[string]bool, len(dst))
	for _, s := range dst {
		seen[s] = true
	}
	for _, s := range src {
		if !seen[s] {
			seen[s] = true
			dst = append(dst, s)
		}
	}
	return dst
}

// mergeEntry locates one accumulated node in the insertion order the
// literal fold's linear scan would visit, so the indexed merger can
// reproduce its "first matching node wins" tie-break exactly. Nodes are
// indexed in the order they enter the accumulator, so order is also the
// node's id there (for a staged node, the id commit will give it).
type mergeEntry struct {
	order int
	name  string
	mat   *program.MAT
}

// merger is the incremental accumulator behind Graphs.
type merger struct {
	out *tdg.Graph
	// buckets groups accumulated nodes by equivKey; every pair of
	// Equivalent MATs shares a key (the key hashes only canonical forms
	// of the fields Equivalent compares), so an equivalence scan only
	// touches one bucket. Bucket entries stay in insertion order.
	buckets map[uint64][]mergeEntry
	byName  map[string]mergeEntry
	n       int // next insertion order
	// seen (visit stamps by node id), stamp and stack are wouldCycle's
	// DFS scratch, reused across inputs.
	seen  []uint32
	stamp uint32
	stack []int
}

func newMerger(first *tdg.Graph) *merger {
	m := &merger{
		out:     first.Clone(),
		buckets: make(map[uint64][]mergeEntry),
		byName:  make(map[string]mergeEntry),
	}
	for _, node := range m.out.Nodes() {
		m.index(node.Name(), node.MAT, equivKey(node.MAT))
	}
	return m
}

// index registers a node under its bucket key k at the next insertion
// order. Callers that may need to roll back record k.
func (m *merger) index(name string, mat *program.MAT, k uint64) {
	e := mergeEntry{order: m.n, name: name, mat: mat}
	m.n++
	m.buckets[k] = append(m.buckets[k], e)
	m.byName[name] = e
}

// originAppend stages an Origin merge onto an accumulated node.
type originAppend struct {
	target  string
	origins []string
}

// rollbackStaged removes index entries staged during one add() pass.
// Staged entries are the newest in their buckets, so popping tails in
// reverse order restores the pre-pass index exactly.
func (m *merger) rollbackStaged(stagedKeys []uint64) {
	for i := len(stagedKeys) - 1; i >= 0; i-- {
		b := m.buckets[stagedKeys[i]]
		e := b[len(b)-1]
		m.buckets[stagedKeys[i]] = b[:len(b)-1]
		delete(m.byName, e.name)
		m.n--
	}
}

// add folds t2 into the accumulator with the pairwise merge's
// semantics: unify each t2 node with the first accumulated node
// (insertion order) that has the same name or an equivalent MAT; fall
// back to a plain union when unification would create a cycle. Nothing mutates until the checks
// pass, so the fallback needs no graph rollback.
func (m *merger) add(t2 *tdg.Graph) error {
	renamed := make(map[string]string, t2.NumNodes())
	var appends []originAppend
	var newNodes []*tdg.Node
	var stagedKeys []uint64

	for _, n2 := range t2.Nodes() {
		k := equivKey(n2.MAT)
		nameOrder, equivOrder := math.MaxInt, math.MaxInt
		var nameEntry, equivEntry mergeEntry
		if e, ok := m.byName[n2.Name()]; ok {
			nameEntry, nameOrder = e, e.order
		}
		for _, e := range m.buckets[k] {
			if e.mat.Equivalent(n2.MAT) {
				equivEntry, equivOrder = e, e.order
				break
			}
		}
		switch {
		case nameOrder == math.MaxInt && equivOrder == math.MaxInt:
			renamed[n2.Name()] = n2.Name()
			newNodes = append(newNodes, n2)
			m.index(n2.Name(), n2.MAT, k)
			stagedKeys = append(stagedKeys, k)
		case nameOrder <= equivOrder:
			// The scan hits the same-name node first: it must be the
			// same MAT definition or the inputs are inconsistent. (An
			// equivalent same-name node is always its own equivalence
			// hit, so nameOrder < equivOrder implies non-equivalence.)
			if !nameEntry.mat.Equivalent(n2.MAT) {
				m.rollbackStaged(stagedKeys)
				return fmt.Errorf("merge: node %q has conflicting definitions", n2.Name())
			}
			renamed[n2.Name()] = nameEntry.name
			appends = append(appends, originAppend{nameEntry.name, n2.Origin})
		default:
			renamed[n2.Name()] = equivEntry.name
			appends = append(appends, originAppend{equivEntry.name, n2.Origin})
		}
	}

	edges := t2.Edges()
	if m.wouldCycle(edges, renamed) {
		// Unification created a cycle (the two programs order the
		// shared MATs incompatibly): redo this input as a plain union
		// with no unification, exactly like the pairwise fold's fallback.
		m.rollbackStaged(stagedKeys)
		return m.addPlain(t2)
	}
	return m.commit(newNodes, appends, edges, renamed)
}

// addPlain unions t2 without unifying equivalent nodes (same-name
// collisions must still be genuine duplicates) — the cycle fallback.
func (m *merger) addPlain(t2 *tdg.Graph) error {
	identity := make(map[string]string, t2.NumNodes())
	var appends []originAppend
	var newNodes []*tdg.Node
	var stagedKeys []uint64

	for _, n2 := range t2.Nodes() {
		identity[n2.Name()] = n2.Name()
		if e, ok := m.byName[n2.Name()]; ok {
			if !e.mat.Equivalent(n2.MAT) {
				m.rollbackStaged(stagedKeys)
				return fmt.Errorf("merge: node %q has conflicting definitions", n2.Name())
			}
			appends = append(appends, originAppend{e.name, n2.Origin})
			continue
		}
		newNodes = append(newNodes, n2)
		k := equivKey(n2.MAT)
		m.index(n2.Name(), n2.MAT, k)
		stagedKeys = append(stagedKeys, k)
	}
	edges := t2.Edges()
	if m.wouldCycle(edges, identity) {
		m.rollbackStaged(stagedKeys)
		return fmt.Errorf("merge: union of TDGs is cyclic")
	}
	return m.commit(newNodes, appends, edges, identity)
}

// commit applies one staged fold: nodes first (so origin merges and
// edges can target them), then origins, then edges.
func (m *merger) commit(newNodes []*tdg.Node, appends []originAppend, edges []*tdg.Edge, renamed map[string]string) error {
	for _, n2 := range newNodes {
		if err := m.out.AddNode(n2.MAT, n2.Origin...); err != nil {
			return err
		}
	}
	for _, a := range appends {
		node, _ := m.out.Node(a.target)
		node.Origin = appendUnique(node.Origin, a.origins...)
	}
	for _, e := range edges {
		from, to := renamed[e.From], renamed[e.To]
		if from == to {
			// Both endpoints unified into the same node; the dependency
			// is internal now.
			continue
		}
		if err := m.out.AddEdge(from, to, e.Type, e.MetadataBytes); err != nil {
			return err
		}
	}
	return nil
}

// wouldCycle reports whether adding the renamed edges to the (acyclic)
// accumulator would create a cycle. Only genuinely new adjacencies can
// close a cycle, so instead of re-sorting the whole graph it walks
// from each new edge's head looking for its tail, over accumulated
// edges plus the new edges accepted so far. On program workloads the
// walk stays inside one program's descendants — a handful of nodes —
// where a full topological sort per input made the fold quadratic.
// The walk addresses nodes by index order (= node id); a staged node
// is not in the accumulator yet, so it has overlay edges only.
func (m *merger) wouldCycle(edges []*tdg.Edge, renamed map[string]string) bool {
	base := m.out.NumNodes()
	if len(m.seen) < m.n {
		m.seen = append(m.seen, make([]uint32, m.n-len(m.seen))...)
	}
	var overlay map[int][]int
	for _, e := range edges {
		from, to := renamed[e.From], renamed[e.To]
		if from == to {
			continue
		}
		if _, ok := m.out.Edge(from, to); ok {
			continue
		}
		// DFS from `to` searching for `from`.
		f, t := m.byName[from].order, m.byName[to].order
		m.stamp++
		m.stack = append(m.stack[:0], t)
		for len(m.stack) > 0 {
			u := m.stack[len(m.stack)-1]
			m.stack = m.stack[:len(m.stack)-1]
			if m.seen[u] == m.stamp {
				continue
			}
			m.seen[u] = m.stamp
			if u == f {
				return true
			}
			if u < base {
				m.stack = m.out.AppendSuccessors(m.stack, u)
			}
			m.stack = append(m.stack, overlay[u]...)
		}
		if overlay == nil {
			overlay = make(map[int][]int)
		}
		overlay[f] = append(overlay[f], t)
	}
	return false
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
	h := newFNV()
	h.u64(uint64(m.Capacity))
	h.str(m.DefaultAction)
	h.u64(math.Float64bits(m.FixedRequirement))

	var keys uint64
	for _, k := range m.Keys {
		e := newFNV()
		e.str(k.Field.Name)
		e.u64(uint64(k.Type))
		keys += uint64(e)
	}
	h.u64(uint64(len(m.Keys)))
	h.u64(keys)

	var actions uint64
	ops := 0
	for _, a := range m.Actions {
		e := newFNV()
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

// fnv64 is an in-place 64-bit FNV-1a hash: hash/fnv's state, without
// the interface value that makes each hasher a heap allocation.
type fnv64 uint64

func newFNV() fnv64 { return 14695981039346656037 }

func (h *fnv64) byte(b byte) {
	*h ^= fnv64(b)
	*h *= 1099511628211
}

func (h *fnv64) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v >> (8 * i)))
	}
}

// str hashes the length first, so adjacent strings cannot trade bytes.
func (h *fnv64) str(s string) {
	h.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
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
