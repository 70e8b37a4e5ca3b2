package equiv

// This file builds the proof's dense reference, the compiled overlay of
// a reference graph. It reads the graph's tdg.Index — the name order,
// the topological order and the field table the lint gate shares — so
// a compile sorts and hashes no name. The overlay and its checker pool
// are memoized on the graph.

import (
	"fmt"
	"slices"
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

// compiled is the dense form of the reference graph the symbolic walk
// runs against, read off the graph's tdg.Index: MAT index x is the
// node's name rank, field index f its id in the index's field table
// (names ascending), per-MAT external-read and may-write sets are
// flattened index lists, and the reference execution order (the
// single-box engine's topological order) is folded into per-read writer
// counts and per-field writer-sequence hashes. No name is hashed or
// sorted here: the index sorts the node names once per graph and
// interns the fields once for every gate. Everything but the checker
// pool is read-only after newCompiled returns; Checkers share one
// compiled per graph.
type compiled struct {
	g  *tdg.Graph
	ix *tdg.Index

	// pool holds the idle Checkers the package-level gates
	// reuse (acquire/release). It never shrinks: it retains one Checker
	// per gate that ever ran concurrently on this graph, each O(MATs +
	// F + imports) of scratch, until the overlay itself is dropped.
	poolMu sync.Mutex
	pool   []*Checker

	// names and nodes by MAT index: ascending MAT index is exactly
	// lexicographic name order (the engine's within-stage tie break).
	names []string
	nodes []*tdg.Node

	// The field universe by field index, sorted by name; fieldDefs holds
	// each field's first definition in name order.
	fieldNames []string
	fieldDefs  []fields.Field
	fieldMeta  []bool

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
	topo, err := g.TopoIDs()
	if err != nil {
		return nil, fmt.Errorf("equiv: reference graph is not a DAG: %w", err)
	}
	ix := g.Index()
	ft := ix.Fields()
	n := len(ix.ByName)
	ov := &compiled{g: g, ix: ix, names: make([]string, n), nodes: make([]*tdg.Node, n),
		fieldNames: ft.Names, fieldDefs: ft.Defs, fieldMeta: make([]bool, len(ft.Defs))}
	for x, id := range ix.ByName {
		ov.names[x], ov.nodes[x] = ix.Names[id], g.NodeOf(id)
	}
	for fi, def := range ft.Defs {
		ov.fieldMeta[fi] = def.IsMetadata()
	}
	ov.buildFieldLists(ft)

	// Reference order and its inverse.
	ov.refOrder = make([]int32, n)
	ov.refPos = make([]int32, n)
	for i, id := range topo {
		x := ix.Rank[id]
		ov.refOrder[i] = x
		ov.refPos[x] = int32(i)
	}

	// Out-edge adjacency for reachability classification.
	ov.outStart = make([]int32, n+1)
	ov.outTo = make([]int32, g.NumEdges())
	for _, e := range g.EdgeList() {
		from, _ := e.Endpoints()
		ov.outStart[ix.Rank[from]+1]++
	}
	for x := 0; x < n; x++ {
		ov.outStart[x+1] += ov.outStart[x]
	}
	fill := make([]int32, n)
	for _, e := range g.EdgeList() {
		from, to := e.Endpoints()
		x := ix.Rank[from]
		ov.outTo[ov.outStart[x]+fill[x]] = ix.Rank[to]
		fill[x]++
	}

	ov.foldReference()
	return ov, nil
}

// foldReference walks the reference order once, recording for every
// read slot the writer count seen so far and folding writes into the
// per-field sequence digests, then marks the order-free fields. It
// reads refOrder, the field lists and the adjacency.
func (ov *compiled) foldReference() {
	f := len(ov.fieldNames)
	ov.refWHash = make([]uint64, f)
	ov.refWCnt = make([]int32, f)
	ov.refWSym = make([]uint64, f)
	for i := range ov.refWHash {
		ov.refWHash[i] = seqSeed
	}
	// Each field's writers in reference order, as one flat list.
	wStart := make([]int32, f+1)
	for _, fi := range ov.writeF {
		wStart[fi+1]++
	}
	for fi := 0; fi < f; fi++ {
		wStart[fi+1] += wStart[fi]
	}
	writers := make([]int32, len(ov.writeF))
	ov.refReadCnt = make([]int32, len(ov.readF))
	for _, x := range ov.refOrder {
		for s := ov.readStart[x]; s < ov.readStart[x+1]; s++ {
			ov.refReadCnt[s] = ov.refWCnt[ov.readF[s]]
		}
		for s := ov.writeStart[x]; s < ov.writeStart[x+1]; s++ {
			fi := ov.writeF[s]
			ov.refWHash[fi] = seqMix(ov.refWHash[fi], x)
			writers[wStart[fi]+ov.refWCnt[fi]] = x
			ov.refWCnt[fi]++
			ov.refWSym[fi] += symMix(x)
		}
	}

	// refWFree needs the adjacency: a field is order-free when no pair
	// of its writers is connected either way, which is exactly the
	// condition under which classifyOrder would call any multiset-equal
	// permutation a benign shuffle. Cross-program merges hit this
	// routinely (e.g. two programs' egress-port writers).
	ov.refWFree = make([]bool, f)
	var sc reachScratch
	for fi := 0; fi < f; fi++ {
		ws := writers[wStart[fi]:wStart[fi+1]]
		if len(ws) < 2 {
			continue
		}
		free := true
		for i := 0; i < len(ws) && free; i++ {
			for j := i + 1; j < len(ws); j++ {
				if ov.reachable(ws[i], ws[j], &sc) || ov.reachable(ws[j], ws[i], &sc) {
					free = false
					break
				}
			}
		}
		ov.refWFree[fi] = free
	}
}

// buildFieldLists computes the flattened per-MAT read/write index
// lists from the field table's key and op lists. The external-read set
// mirrors the engine's read() calls exactly: all match keys (read even
// on a rule miss), plus each action's operand reads refined by the ops
// already executed — a field the same action wrote earlier is read
// locally, never from upstream.
func (ov *compiled) buildFieldLists(ft *tdg.FieldTable) {
	n := len(ov.names)
	ov.readStart = make([]int32, n+1)
	ov.writeStart = make([]int32, n+1)
	// local[f] == act: field f was written earlier in the action
	// numbered act (numbered across all MATs, from 1).
	local := make([]int32, len(ov.fieldNames))
	act := int32(0)
	var reads, writes, scratch []int32
	read := func(fi int32) {
		if local[fi] != act {
			scratch = append(scratch, fi)
		}
	}
	//hermes:hot
	for x := int32(0); int(x) < n; x++ {
		scratch = append(scratch[:0], ft.Keys(x)...)
		prev := int32(-1)
		for _, op := range ft.Ops(x) {
			if op.Action != prev {
				prev = op.Action
				act++
			}
			switch op.Kind {
			case program.OpCopy, program.OpHash, program.OpCount:
				for _, fi := range op.Srcs {
					read(fi)
				}
			case program.OpAdd:
				read(op.Dst)
				if len(op.Srcs) > 0 {
					read(op.Srcs[0])
				}
			case program.OpDecrement:
				read(op.Dst)
			}
			local[op.Dst] = act
		}
		reads = append(reads, dedupSorted(scratch)...)
		ov.readStart[x+1] = int32(len(reads))

		scratch = scratch[:0]
		for _, op := range ft.Ops(x) {
			scratch = append(scratch, op.Dst)
		}
		writes = append(writes, dedupSorted(scratch)...)
		ov.writeStart[x+1] = int32(len(writes))
	}
	ov.readF = reads
	ov.writeF = writes
}

// dedupSorted sorts the slice in place and returns the deduplicated
// prefix.
func dedupSorted(s []int32) []int32 {
	slices.Sort(s)
	return slices.Compact(s)
}

// fieldID returns the field index of the named field.
func (ov *compiled) fieldID(name string) (int32, bool) {
	fi, ok := slices.BinarySearch(ov.fieldNames, name)
	return int32(fi), ok
}

// entryIndex returns the MAT index of a stage entry's reference MAT,
// -1 for a MAT the reference lacks: node is the entry's Node stamp,
// read where the reference's node of that id carries the entry's name
// (a string compare, no lookup; Compile stamps every entry so, whether
// the reference is the plan's graph or a rebuild of it in the same
// order). Any other entry resolves by name.
func (ov *compiled) entryIndex(node int32, name string) int32 {
	if node >= 0 && int(node) < len(ov.ix.Names) && ov.ix.Names[node] == name {
		return ov.ix.Rank[node]
	}
	x, _ := ov.matIndex(name)
	return x
}

// matIndex returns the MAT index of the named reference MAT.
func (ov *compiled) matIndex(name string) (int32, bool) {
	id, ok := ov.g.ID(name)
	if !ok {
		return -1, false
	}
	return ov.ix.Rank[id], true
}

// reachScratch is the reusable state of reachability searches: a visit
// stamp per MAT and the DFS stack. A compile builds one for its
// order-free pass; each Checker keeps one for the diagnostic pass.
type reachScratch struct {
	mark  []uint32
	epoch uint32
	stack []int32
}

// reachable reports whether the reference graph orders from before to:
// a directed path from→to exists. It distinguishes a reordered
// dependent pair (an equivalence break) from an interleaving the TDG
// never constrained. A warm call allocates nothing.
func (ov *compiled) reachable(from, to int32, sc *reachScratch) bool {
	if from == to {
		return true
	}
	if len(sc.mark) != len(ov.names) {
		sc.mark, sc.epoch = make([]uint32, len(ov.names)), 0
	}
	if sc.epoch++; sc.epoch == 0 {
		clear(sc.mark)
		sc.epoch = 1
	}
	// Iterative DFS pruned by reference position: every path moves
	// strictly forward in refPos, so nodes past to are dead ends.
	limit := ov.refPos[to]
	sc.mark[from] = sc.epoch
	stack := append(sc.stack[:0], from)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for s := ov.outStart[x]; s < ov.outStart[x+1]; s++ {
			next := ov.outTo[s]
			if next == to {
				sc.stack = stack
				return true
			}
			if sc.mark[next] != sc.epoch && ov.refPos[next] < limit {
				sc.mark[next] = sc.epoch
				stack = append(stack, next)
			}
		}
	}
	sc.stack = stack
	return false
}
