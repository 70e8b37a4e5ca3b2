package equiv

import (
	"fmt"
	"sort"
	"sync"

	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

// compiledMemoKey caches the compiled checker state on the reference
// graph's derived-result memo, mirroring placement's CompiledInstance:
// the overlay is immutable once built and the memo is cleared on any
// graph mutation, so a hit is always valid for the same graph value.
const compiledMemoKey = "equiv.compiled"

// compiled is the dense, interned form of the reference graph the
// symbolic walk runs against: MAT names and field names become int32
// indices, per-MAT external-read and may-write sets become flattened
// index lists, and the reference execution order (the single-box
// engine's g.TopoSort()) is folded into per-read writer counts and
// per-field writer-sequence hashes. Everything but the checker pool is
// read-only after newCompiled returns; Checkers share one compiled per
// graph.
type compiled struct {
	g *tdg.Graph

	// pool holds the idle Checkers the package-level gates and hooks
	// reuse (acquire/release). It never shrinks: it retains one Checker
	// per gate that ever ran concurrently on this graph, each O(MATs +
	// F + imports) of scratch, until the overlay itself is dropped.
	poolMu sync.Mutex
	pool   []*Checker

	// names is sorted ascending; index i is the dense id of names[i], so
	// ascending MAT index is exactly lexicographic name order (the
	// engine's within-stage tie break).
	names []string
	nodes []*tdg.Node
	index map[string]int32

	// Field interning, sorted by name.
	fieldNames []string
	fieldDefs  []fields.Field
	fieldMeta  []bool
	fieldIndex map[string]int32

	// Per-MAT field lists, flattened: reads holds the externally-read
	// fields (match keys plus action source operands that are not
	// already written earlier in the same action — the exact set the
	// engine's read() can touch) and writes the may-written fields.
	readStart  []int32
	readF      []int32
	writeStart []int32
	writeF     []int32

	// Reference order: refOrder[i] is the MAT executed i-th by the
	// single-box engine; refPos is its inverse.
	refOrder []int32
	refPos   []int32

	// refReadCnt is aligned with readF: for read slot s of MAT x, the
	// number of may-writers of that field that execute strictly before x
	// in the reference order.
	refReadCnt []int32

	// Per-field reference writer-sequence digest: refWCnt writers in
	// total, folded in order into refWHash. refWSym is the
	// order-insensitive companion (sum of per-writer mixes) and refWFree
	// marks fields whose writers are fully pairwise-unordered in the
	// reference graph: for those, a multiset-equal permutation of the
	// final write sequence can only ever classify as a non-gating HE010
	// shuffle, so the fast walk accepts it without the diagnostic pass.
	refWHash []uint64
	refWCnt  []int32
	refWSym  []uint64
	refWFree []bool

	// Flattened out-edge adjacency over MAT indices, for the diagnostic
	// pass's reachability classification.
	outStart []int32
	outTo    []int32
}

// seqSeed and seqPrime drive the order-sensitive writer-sequence
// digest: h' = (h ^ (writer+1)) * prime, the FNV-1a step over MAT
// indices. Two writer sequences collide only with FNV's usual odds;
// the count is compared alongside the hash.
const (
	seqSeed  uint64 = 1469598103934665603
	seqPrime uint64 = 1099511628211
)

func seqMix(h uint64, writer int32) uint64 {
	return (h ^ uint64(writer+1)) * seqPrime
}

// symMix is the per-writer contribution to the order-insensitive
// digest (summed mod 2^64): the splitmix64 finalizer, so distinct
// writer multisets collide with negligible odds.
func symMix(writer int32) uint64 {
	x := uint64(writer+1) * 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// compile interns the reference graph, reusing the graph-memoized
// overlay when present.
func compile(g *tdg.Graph) (*compiled, error) {
	if g == nil {
		return nil, fmt.Errorf("equiv: nil reference graph")
	}
	if v, ok := g.Memo(compiledMemoKey); ok {
		if ov, ok := v.(*compiled); ok && ov.g == g {
			return ov, nil
		}
	}
	ov, err := newCompiled(g)
	if err != nil {
		return nil, err
	}
	g.MemoSet(compiledMemoKey, ov)
	return ov, nil
}

func newCompiled(g *tdg.Graph) (*compiled, error) {
	refNames, err := g.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("equiv: reference graph is not a DAG: %w", err)
	}
	ov := &compiled{g: g}
	ov.names = g.NodeNames()
	sort.Strings(ov.names)
	n := len(ov.names)
	ov.nodes = make([]*tdg.Node, n)
	ov.index = make(map[string]int32, n)
	for i, name := range ov.names {
		node, _ := g.Node(name)
		ov.nodes[i] = node
		ov.index[name] = int32(i)
	}

	ov.internFields()
	ov.buildFieldLists()

	// Reference order and its inverse.
	ov.refOrder = make([]int32, n)
	ov.refPos = make([]int32, n)
	for i, name := range refNames {
		x := ov.index[name]
		ov.refOrder[i] = x
		ov.refPos[x] = int32(i)
	}

	// Walk the reference order once, recording for every read slot the
	// writer count seen so far and folding writes into the per-field
	// sequence digest.
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

	// Out-edge adjacency for reachability classification.
	ov.outStart = make([]int32, n+1)
	for _, e := range g.EdgeList() {
		ov.outStart[ov.index[e.From]+1]++
	}
	for i := 0; i < n; i++ {
		ov.outStart[i+1] += ov.outStart[i]
	}
	ov.outTo = make([]int32, len(g.EdgeList()))
	fill := make([]int32, n)
	for _, e := range g.EdgeList() {
		x := ov.index[e.From]
		ov.outTo[ov.outStart[x]+fill[x]] = ov.index[e.To]
		fill[x]++
	}

	// refWFree needs the adjacency: a field is order-free when no pair
	// of its writers is connected either way, which is exactly the
	// condition under which classifyOrder would call any multiset-equal
	// permutation a benign shuffle. Cross-program merges hit this
	// routinely (e.g. two programs' egress-port writers).
	ov.refWFree = make([]bool, f)
	for fi, ws := range writers {
		if len(ws) < 2 {
			continue
		}
		free := true
		for i := 0; i < len(ws) && free; i++ {
			for j := i + 1; j < len(ws); j++ {
				if ov.reachable(ws[i], ws[j]) || ov.reachable(ws[j], ws[i]) {
					free = false
					break
				}
			}
		}
		ov.refWFree[fi] = free
	}
	return ov, nil
}

// internFields collects every field referenced by any MAT (match keys
// and action operands) into a sorted, index-addressable universe.
func (ov *compiled) internFields() {
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
	ov.fieldNames = make([]string, 0, len(seen))
	for name := range seen {
		ov.fieldNames = append(ov.fieldNames, name)
	}
	sort.Strings(ov.fieldNames)
	ov.fieldDefs = make([]fields.Field, len(ov.fieldNames))
	ov.fieldMeta = make([]bool, len(ov.fieldNames))
	ov.fieldIndex = make(map[string]int32, len(ov.fieldNames))
	for i, name := range ov.fieldNames {
		ov.fieldDefs[i] = seen[name]
		ov.fieldMeta[i] = seen[name].IsMetadata()
		ov.fieldIndex[name] = int32(i)
	}
}

// buildFieldLists computes the flattened per-MAT read/write index
// lists. The external-read set mirrors the engine's read() calls
// exactly: all match keys (read even on a rule miss), plus each
// action's operand reads refined by the ops already executed — a field
// the same action wrote earlier is read locally, never from upstream.
func (ov *compiled) buildFieldLists() {
	n := len(ov.nodes)
	ov.readStart = make([]int32, n+1)
	ov.writeStart = make([]int32, n+1)
	var reads, writes []int32
	var scratch []int32
	for i, node := range ov.nodes {
		m := node.MAT
		scratch = scratch[:0]
		scratch = ov.appendExternalReads(scratch, m)
		reads = append(reads, dedupSorted(scratch)...)
		ov.readStart[i+1] = int32(len(reads))

		scratch = scratch[:0]
		for _, a := range m.Actions {
			for _, op := range a.Ops {
				scratch = append(scratch, ov.fieldIndex[op.Dst.Name])
			}
		}
		writes = append(writes, dedupSorted(scratch)...)
		ov.writeStart[i+1] = int32(len(writes))
	}
	ov.readF = reads
	ov.writeF = writes
}

// appendExternalReads appends the field indices the engine can read
// from pre-MAT state while executing m.
func (ov *compiled) appendExternalReads(dst []int32, m *program.MAT) []int32 {
	for _, k := range m.Keys {
		dst = append(dst, ov.fieldIndex[k.Field.Name])
	}
	local := map[int32]bool{}
	for _, a := range m.Actions {
		for k := range local {
			delete(local, k)
		}
		for _, op := range a.Ops {
			for _, src := range opReads(op) {
				fi := ov.fieldIndex[src.Name]
				if !local[fi] {
					dst = append(dst, fi)
				}
			}
			local[ov.fieldIndex[op.Dst.Name]] = true
		}
	}
	return dst
}

// opReads lists the fields one op reads from the context, matching
// matExecutor.runAction: OpSet reads nothing, OpCopy/OpHash/OpCount
// read their sources, OpAdd and OpDecrement read-modify-write Dst.
func opReads(op program.Op) []fields.Field {
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

// dedupSorted sorts the slice in place and returns the deduplicated
// prefix.
func dedupSorted(s []int32) []int32 {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// reachable reports whether the reference graph orders from before to:
// a directed path from→to exists. Used only on the diagnostic path to
// distinguish a reordered dependent pair (an equivalence break) from
// an interleaving the TDG never constrained.
func (ov *compiled) reachable(from, to int32) bool {
	if from == to {
		return true
	}
	// Iterative DFS pruned by reference position: every path moves
	// strictly forward in refPos, so nodes past to are dead ends.
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
