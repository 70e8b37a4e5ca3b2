package equiv

import (
	"fmt"
	"slices"
	"sort"

	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

// Checker proves deployments and plans equivalent to one reference
// graph. It owns reusable scratch sized to the reference, so repeated
// checks against the same graph are allocation-free on the green path;
// a Checker is not safe for concurrent use (share the graph, not the
// Checker). The package-level gates draw theirs from the per-graph pool
// (acquire/release), so that holds for them too.
type Checker struct {
	ov *compiled

	// Lowered pipeline, rebuilt per check in reused scratch.
	usedIDs []network.SwitchID // used switches, ascending
	swOf    map[network.SwitchID]int32
	adj     []uint64 // U×U contracted-adjacency bitset
	indeg   []int32
	visit   []int32 // used-switch index per visit rank
	rank    []int32 // visit rank per used-switch index, -1 if stuck
	cycle   bool

	execMAT  []int32  // overlay MAT index per execution slot, -1 unknown
	execName []string // MAT name per execution slot (diagnostics)
	execSw   []int32  // used-switch index per execution slot
	seenCnt  []int32  // executions per reference MAT
	unknown  []string // executed names absent from the reference
	noDef    []string // executed names absent from the deployed graph
	dirtyDef []int32  // executed ref MATs whose deployed def is a different struct

	impStart []int32 // import slots per visit rank
	impFrom  []int32 // used-switch index of the exporting switch
	impF     []int32 // delivered field index

	// Stage-order sort scratch (see entrySorter).
	entRank  []int32
	entStage []int32
	entName  []string
	entMAT   []int32
	firstSt  map[string]int32

	// Plan-lowering scratch: per communicating pair, the carried field
	// bitset the compiler would derive.
	pairIdx  map[int64]int32
	pairFrom []int32
	pairTo   []int32
	pairBits []uint64

	// Walk scratch. d* is the global per-field write history; vis* is
	// the history visible on the switch being walked — one F-sized row,
	// reset between switches through the touched list. snap* holds, per
	// import slot, the exporter's visible history of the delivered field
	// as it stood when the exporter finished; expStart/expSlot group the
	// import slots by exporting switch.
	dCnt     []int32
	dHash    []uint64
	dSym     []uint64
	dLast    []int32
	visHash  []uint64
	visLen   []int32
	visLast  []int32
	touched  []int32
	snapHash []uint64
	snapLen  []int32
	snapLast []int32
	expStart []int32
	expSlot  []int32

	// deployed remembers which artifact the scratch was lowered from,
	// for the diagnostic pass.
	dep  *deploy.Deployment
	plan *placement.Plan
}

// NewChecker compiles the reference graph (memoized on the graph) and
// returns a reusable checker for it, owned by the caller.
func NewChecker(ref *tdg.Graph) (*Checker, error) {
	ov, err := compile(ref)
	if err != nil {
		return nil, err
	}
	return newChecker(ov), nil
}

func newChecker(ov *compiled) *Checker {
	f := len(ov.fieldNames)
	return &Checker{
		ov:      ov,
		swOf:    map[network.SwitchID]int32{},
		firstSt: map[string]int32{},
		pairIdx: map[int64]int32{},
		dCnt:    make([]int32, f),
		dHash:   make([]uint64, f),
		dSym:    make([]uint64, f),
		dLast:   make([]int32, f),
		visHash: make([]uint64, f),
		visLen:  make([]int32, f),
		visLast: make([]int32, f),
		seenCnt: make([]int32, len(ov.names)),
	}
}

// acquire draws an idle Checker for ref from the pool kept on the
// compiled overlay, building one when none is idle. The pool lives and
// dies with the overlay: a graph mutation clears the memo, and the
// next gate compiles afresh with an empty pool.
func acquire(ref *tdg.Graph) (*Checker, error) {
	ov, err := compile(ref)
	if err != nil {
		return nil, err
	}
	ov.poolMu.Lock()
	defer ov.poolMu.Unlock()
	if n := len(ov.pool); n > 0 {
		c := ov.pool[n-1]
		ov.pool[n-1] = nil
		ov.pool = ov.pool[:n-1]
		return c, nil
	}
	return newChecker(ov), nil
}

// release returns an acquired Checker to its overlay's pool. The
// lowered artifact is dropped first so an idle checker pins neither a
// deployment nor a plan.
func (c *Checker) release() {
	c.dep, c.plan = nil, nil
	c.ov.poolMu.Lock()
	defer c.ov.poolMu.Unlock()
	c.ov.pool = append(c.ov.pool, c)
}

// Reference returns the graph this checker proves against.
func (c *Checker) Reference() *tdg.Graph { return c.ov.g }

// Check is the deployment gate: nil means the distributed pipeline is
// symbolically proven equivalent to the single-box reference for every
// program; otherwise the error folds the error-severity findings (use
// Diagnose for the full report). Steady-state green checks allocate
// nothing, on a held Checker and through the pooled gates alike.
func (c *Checker) Check(dep *deploy.Deployment) error {
	if err := c.lowerDeployment(dep); err != nil {
		return err
	}
	if c.clean() {
		return nil
	}
	return findingsErr(c.diagnose(false))
}

// CheckPlan gates a plan before compilation: the pipeline is the
// plan's switch and stage order with the coordination headers
// deploy.Compile would derive.
func (c *Checker) CheckPlan(p *placement.Plan) error {
	if err := c.lowerPlan(p); err != nil {
		return err
	}
	if c.clean() {
		return nil
	}
	return findingsErr(c.diagnose(false))
}

// clean runs the allocation-free structural screen and symbolic walk;
// false means the diagnostic pass must explain.
func (c *Checker) clean() bool {
	return c.structuralClean() && c.walkClean()
}

// structuralClean is the screen preceding the symbolic walk: the visit
// order is realizable, every reference MAT executes exactly once,
// nothing unknown executes, and drifted definitions are behaviorally
// equal. clean() runs it first and skips the walk on failure, as the
// diagnostic pass then reports the structural findings alone.
func (c *Checker) structuralClean() bool {
	if c.cycle || len(c.unknown) > 0 || len(c.noDef) > 0 {
		return false
	}
	for _, n := range c.seenCnt {
		if n != 1 {
			return false
		}
	}
	for _, x := range c.dirtyDef {
		ref := c.ov.nodes[x].MAT
		dep := c.deployedDef(c.ov.names[x])
		if dep == nil || !behaviorallyEqual(ref, dep) {
			return false
		}
	}
	return true
}

// deployedDef resolves the MAT definition the engine would execute.
func (c *Checker) deployedDef(name string) *program.MAT {
	g := c.ov.g
	if c.dep != nil {
		g = c.dep.Plan.Graph
	} else if c.plan != nil {
		g = c.plan.Graph
	}
	n, ok := g.Node(name)
	if !ok {
		return nil
	}
	return n.MAT
}

// lowerDeployment flattens the engine-visible pipeline of dep into the
// checker's scratch: switch visit order (the plan's contracted-DAG
// Kahn order with ascending-ID tie break), per-switch MATs by first
// stage then name, and the per-pair coordination-header field lists.
func (c *Checker) lowerDeployment(dep *deploy.Deployment) error {
	if dep == nil || dep.Plan == nil || dep.Plan.Graph == nil {
		return fmt.Errorf("equiv: nil deployment")
	}
	c.dep, c.plan = dep, nil
	c.collectSwitches(dep.Plan)
	c.orderSwitches(dep.Plan)

	// Execution entries: replicate dataplane.matsInStageOrder per
	// switch config — first stage of each MAT, dedup, (stage, name).
	c.entRank = c.entRank[:0]
	c.entStage = c.entStage[:0]
	c.entName = c.entName[:0]
	c.entMAT = c.entMAT[:0]
	for r, u := range c.visit {
		cfg := dep.Configs[c.usedIDs[u]]
		if cfg == nil {
			continue
		}
		for k := range c.firstSt {
			delete(c.firstSt, k)
		}
		for s, st := range cfg.Stages {
			for _, e := range st {
				if _, ok := c.firstSt[e.MAT]; !ok {
					c.firstSt[e.MAT] = int32(s)
				}
			}
		}
		for name, st := range c.firstSt {
			c.pushEntry(int32(r), st, name)
		}
	}
	c.sortEntries()
	c.buildExec()

	// Imports: each switch's configured coordination headers, emitted
	// in ascending upstream visit rank so the walk's overwrite-merge
	// reproduces the engine's deterministic later-upstream-wins order.
	c.impStart = append(c.impStart[:0], 0)
	c.impFrom = c.impFrom[:0]
	c.impF = c.impF[:0]
	for r, u := range c.visit {
		cfg := dep.Configs[c.usedIDs[u]]
		if cfg != nil {
			for rr := 0; rr < r; rr++ {
				from := c.visit[rr]
				hdr, ok := cfg.Imports[c.usedIDs[from]]
				if !ok {
					continue
				}
				for _, fld := range hdr.Fields {
					fi, ok := c.ov.fieldIndex[fld.Name]
					if !ok {
						continue // field unknown to the reference
					}
					c.impFrom = append(c.impFrom, from)
					c.impF = append(c.impF, fi)
				}
			}
		}
		c.impStart = append(c.impStart, int32(len(c.impF)))
	}
	return nil
}

// lowerPlan flattens the pipeline a compilation of p would induce:
// same switch and stage order, with per-pair carried fields derived
// from the cross edges exactly as deploy.Compile does via
// analyzer.MetadataFields.
func (c *Checker) lowerPlan(p *placement.Plan) error {
	if p == nil || p.Graph == nil {
		return fmt.Errorf("equiv: nil plan")
	}
	c.dep, c.plan = nil, p
	c.collectSwitches(p)
	c.orderSwitches(p)

	c.entRank = c.entRank[:0]
	c.entStage = c.entStage[:0]
	c.entName = c.entName[:0]
	c.entMAT = c.entMAT[:0]
	for name, sp := range p.Assignments {
		u, ok := c.swOf[sp.Switch]
		if !ok || c.rank[u] < 0 {
			continue
		}
		c.pushEntry(c.rank[u], int32(sp.Start), name)
	}
	c.sortEntries()
	c.buildExec()

	// Derive per-pair carried fields from the cross edges.
	for k := range c.pairIdx {
		delete(c.pairIdx, k)
	}
	c.pairFrom = c.pairFrom[:0]
	c.pairTo = c.pairTo[:0]
	fw := (len(c.ov.fieldNames) + 63) / 64
	c.pairBits = c.pairBits[:0]
	for _, e := range p.Graph.EdgeList() {
		spa, oka := p.Assignments[e.From]
		spb, okb := p.Assignments[e.To]
		if !oka || !okb || spa.Switch == spb.Switch {
			continue
		}
		ua, ub := c.swOf[spa.Switch], c.swOf[spb.Switch]
		key := int64(ua)<<32 | int64(uint32(ub))
		pi, ok := c.pairIdx[key]
		if !ok {
			pi = int32(len(c.pairFrom))
			c.pairIdx[key] = pi
			c.pairFrom = append(c.pairFrom, ua)
			c.pairTo = append(c.pairTo, ub)
			n := len(c.pairBits)
			c.pairBits = slices.Grow(c.pairBits, fw)[:n+fw]
			clear(c.pairBits[n:])
		}
		c.addCarriedFields(c.pairBits[int(pi)*fw:int(pi+1)*fw], e)
	}
	c.impStart = append(c.impStart[:0], 0)
	c.impFrom = c.impFrom[:0]
	c.impF = c.impF[:0]
	for r := range c.visit {
		// Ascending upstream rank, mirroring the engine's import order.
		for rr := 0; rr < r; rr++ {
			from := c.visit[rr]
			pi, ok := c.pairIdx[int64(from)<<32|int64(uint32(c.visit[r]))]
			if !ok {
				continue
			}
			bits := c.pairBits[int(pi)*fw : int(pi+1)*fw]
			for w, word := range bits {
				for b := 0; word != 0; b++ {
					if word&1 != 0 {
						c.impFrom = append(c.impFrom, from)
						c.impF = append(c.impF, int32(w*64+b))
					}
					word >>= 1
				}
			}
		}
		c.impStart = append(c.impStart, int32(len(c.impF)))
	}
	return nil
}

// addCarriedFields ORs into bits the metadata fields deploy.Compile
// would put in the pair header for edge e, mirroring
// analyzer.MetadataFields over the overlay's index lists.
func (c *Checker) addCarriedFields(bits []uint64, e *tdg.Edge) {
	ov := c.ov
	a, okA := ov.index[e.From]
	b, okB := ov.index[e.To]
	if c.plan != nil && c.plan.Graph != ov.g {
		// Mutated graph: fall back to name lookups against the overlay
		// universe; unknown MATs contribute nothing (flagged elsewhere).
		if !okA || !okB {
			return
		}
	}
	if !okA || !okB {
		return
	}
	set := func(fi int32) {
		if ov.fieldMeta[fi] {
			bits[fi/64] |= 1 << uint(fi%64)
		}
	}
	switch e.Type {
	case tdg.DepMatch, tdg.DepSuccessor:
		for s := ov.writeStart[a]; s < ov.writeStart[a+1]; s++ {
			set(ov.writeF[s])
		}
	case tdg.DepAction:
		for s := ov.writeStart[a]; s < ov.writeStart[a+1]; s++ {
			set(ov.writeF[s])
		}
		for s := ov.writeStart[b]; s < ov.writeStart[b+1]; s++ {
			set(ov.writeF[s])
		}
	case tdg.DepReverse:
		// R edges carry nothing.
	}
}

// collectSwitches gathers the used switches ascending into usedIDs and
// the dense index map swOf.
func (c *Checker) collectSwitches(p *placement.Plan) {
	for k := range c.swOf {
		delete(c.swOf, k)
	}
	c.usedIDs = c.usedIDs[:0]
	for _, sp := range p.Assignments {
		if _, ok := c.swOf[sp.Switch]; !ok {
			c.swOf[sp.Switch] = 0 // provisional; re-indexed after sort
			c.usedIDs = append(c.usedIDs, sp.Switch)
		}
	}
	// Insertion sort: U is small and the slice is reused scratch.
	for i := 1; i < len(c.usedIDs); i++ {
		for j := i; j > 0 && c.usedIDs[j] < c.usedIDs[j-1]; j-- {
			c.usedIDs[j], c.usedIDs[j-1] = c.usedIDs[j-1], c.usedIDs[j]
		}
	}
	for i, id := range c.usedIDs {
		c.swOf[id] = int32(i)
	}
}

// orderSwitches reproduces Plan.SwitchOrder (Kahn over the
// switch-contracted dependency graph, ties broken by ascending switch
// ID) on the dense index space. A cycle sets c.cycle; stuck switches
// keep rank -1.
func (c *Checker) orderSwitches(p *placement.Plan) {
	u := len(c.usedIDs)
	words := (u*u + 63) / 64
	c.adj = resized(c.adj, words, 0)
	c.indeg = resized(c.indeg, u, 0)
	for _, e := range p.Graph.EdgeList() {
		spa, oka := p.Assignments[e.From]
		spb, okb := p.Assignments[e.To]
		if !oka || !okb || spa.Switch == spb.Switch {
			continue
		}
		a, b := c.swOf[spa.Switch], c.swOf[spb.Switch]
		bit := int(a)*u + int(b)
		if c.adj[bit/64]&(1<<uint(bit%64)) == 0 {
			c.adj[bit/64] |= 1 << uint(bit%64)
			c.indeg[b]++
		}
	}
	c.visit = c.visit[:0]
	c.rank = resized(c.rank, u, -1)
	for len(c.visit) < u {
		picked := int32(-1)
		for i := 0; i < u; i++ { // ascending ID = ascending index
			if c.rank[i] < 0 && c.indeg[i] == 0 {
				picked = int32(i)
				break
			}
		}
		if picked < 0 {
			break
		}
		c.rank[picked] = int32(len(c.visit))
		c.visit = append(c.visit, picked)
		// Mark successors' indegrees; re-mark prevents double decrement.
		for b := 0; b < u; b++ {
			bit := int(picked)*u + b
			if c.adj[bit/64]&(1<<uint(bit%64)) != 0 {
				c.indeg[b]--
			}
		}
		c.indeg[picked] = -1
	}
	c.cycle = len(c.visit) < u
}

// resized returns s with length n and every element set to v, growing
// the backing array at most once.
func resized[T any](s []T, n int, v T) []T {
	s = slices.Grow(s[:0], n)[:n]
	for i := range s {
		s[i] = v
	}
	return s
}

func (c *Checker) pushEntry(rank, stage int32, name string) {
	c.entRank = append(c.entRank, rank)
	c.entStage = append(c.entStage, stage)
	c.entName = append(c.entName, name)
	if idx, ok := c.ov.index[name]; ok {
		c.entMAT = append(c.entMAT, idx)
	} else {
		c.entMAT = append(c.entMAT, -1)
	}
}

// entrySorter orders execution entries by (visit rank, first stage,
// name) — the engine's global MAT order. It lives on the Checker so
// sort.Sort sees a pointer and allocates nothing.
type entrySorter Checker

func (s *entrySorter) Len() int { return len(s.entRank) }
func (s *entrySorter) Less(i, j int) bool {
	if s.entRank[i] != s.entRank[j] {
		return s.entRank[i] < s.entRank[j]
	}
	if s.entStage[i] != s.entStage[j] {
		return s.entStage[i] < s.entStage[j]
	}
	return s.entName[i] < s.entName[j]
}
func (s *entrySorter) Swap(i, j int) {
	s.entRank[i], s.entRank[j] = s.entRank[j], s.entRank[i]
	s.entStage[i], s.entStage[j] = s.entStage[j], s.entStage[i]
	s.entName[i], s.entName[j] = s.entName[j], s.entName[i]
	s.entMAT[i], s.entMAT[j] = s.entMAT[j], s.entMAT[i]
}

func (c *Checker) sortEntries() {
	sort.Stable((*entrySorter)(c))
}

// buildExec materializes the sorted entries into the execution arrays
// and the per-reference-MAT execution counts.
func (c *Checker) buildExec() {
	c.execMAT = c.execMAT[:0]
	c.execName = c.execName[:0]
	c.execSw = c.execSw[:0]
	c.unknown = c.unknown[:0]
	c.noDef = c.noDef[:0]
	c.dirtyDef = c.dirtyDef[:0]
	for i := range c.seenCnt {
		c.seenCnt[i] = 0
	}
	for i := range c.entRank {
		x := c.entMAT[i]
		name := c.entName[i]
		c.execMAT = append(c.execMAT, x)
		c.execName = append(c.execName, name)
		c.execSw = append(c.execSw, c.visit[c.entRank[i]])
		if x < 0 {
			c.unknown = append(c.unknown, name)
			continue
		}
		c.seenCnt[x]++
		def := c.deployedDef(name)
		if def == nil {
			c.noDef = append(c.noDef, name)
		} else if def != c.ov.nodes[x].MAT {
			c.dirtyDef = append(c.dirtyDef, x)
		}
	}
}

// walkClean is the symbolic core: one pass over the lowered pipeline
// comparing every read's write history against the reference and every
// metadata read's switch-visible history against the global one. It
// returns false on the first discrepancy; the diagnostic pass
// reconstructs and classifies.
//
// Visible state is sparse: only the switch being walked has a row, and
// what a later switch may import from it is snapshotted per import
// slot when it finishes — the engine delivers exactly those fields and
// nothing else of an upstream switch's state is ever observed. A walk
// therefore costs O(F + reads + writes + imports) and the scratch a
// Checker retains for it is O(F + imports), independent of the switch
// count. All of it is reused: steady-state green walks allocate
// nothing.
func (c *Checker) walkClean() bool {
	ov := c.ov
	f := len(ov.fieldNames)
	for i := 0; i < f; i++ {
		c.dCnt[i] = 0
		c.dHash[i] = seqSeed
		c.dSym[i] = 0
		c.dLast[i] = -1
		c.visHash[i] = seqSeed
		c.visLen[i] = 0
		c.visLast[i] = -1
	}
	c.groupExports()
	// One switch touches at most its imports plus each field once (a
	// write is listed only when it finds the field's history empty), so
	// the list never grows inside the hot loops.
	c.touched = slices.Grow(c.touched[:0], len(c.impF)+f)
	touched := c.touched

	ei := 0
	for r, su := range c.visit {
		for _, fi := range touched {
			c.visHash[fi] = seqSeed
			c.visLen[fi] = 0
			c.visLast[fi] = -1
		}
		touched = touched[:0]
		// Imports overwrite-merge at switch entry in ascending upstream
		// visit rank (pre-sorted by the lowering), reproducing the
		// engine's deterministic later-upstream-wins delivery.
		for s := c.impStart[r]; s < c.impStart[r+1]; s++ {
			fi := c.impF[s]
			touched = append(touched, fi)
			c.visHash[fi] = c.snapHash[s]
			c.visLen[fi] = c.snapLen[s]
			c.visLast[fi] = c.snapLast[s]
		}
		for ; ei < len(c.execSw) && c.execSw[ei] == su; ei++ {
			x := c.execMAT[ei]
			// The per-table inner loop: compare each read's reference
			// writer count and, for metadata, the carried history.
			//hermes:hot
			for s := ov.readStart[x]; s < ov.readStart[x+1]; s++ {
				fi := ov.readF[s]
				if c.dCnt[fi] != ov.refReadCnt[s] {
					return false
				}
				if ov.fieldMeta[fi] {
					// A read observes only the LAST write: a visible
					// history that diverges from the global one but ends
					// on the same writer only dropped shadowed (value-
					// dead) entries, so the engine reads the identical
					// value — not carrying dead writes across a cut is
					// header optimization, not a coordination gap.
					if (c.visLen[fi] != c.dCnt[fi] || c.visHash[fi] != c.dHash[fi]) &&
						c.visLast[fi] != c.dLast[fi] {
						return false
					}
				}
			}
			//hermes:hot
			for s := ov.writeStart[x]; s < ov.writeStart[x+1]; s++ {
				fi := ov.writeF[s]
				c.dHash[fi] = seqMix(c.dHash[fi], x)
				c.dSym[fi] += symMix(x)
				c.dCnt[fi]++
				c.dLast[fi] = x
				if ov.fieldMeta[fi] {
					if c.visLen[fi] == 0 {
						touched = append(touched, fi)
					}
					c.visHash[fi] = seqMix(c.visHash[fi], x)
					c.visLen[fi]++
					c.visLast[fi] = x
				}
			}
		}
		// Freeze what downstream switches import from this one.
		for _, s := range c.expSlot[c.expStart[su]:c.expStart[su+1]] {
			fi := c.impF[s]
			c.snapHash[s] = c.visHash[fi]
			c.snapLen[s] = c.visLen[fi]
			c.snapLast[s] = c.visLast[fi]
		}
	}
	// Final write-sequence digests must match the reference per field
	// (WAW order matters even without a downstream reader: the engines
	// compare final values). A multiset-equal permutation on a field
	// whose writers the reference graph never ordered against each other
	// is accepted here: the diagnostic pass can only ever call it a
	// non-gating HE010 shuffle, and the replay twin covers the
	// non-commuting-write case — keeping cross-program merges on the
	// allocation-free path.
	for fi := 0; fi < f; fi++ {
		if c.dCnt[fi] != ov.refWCnt[fi] {
			return false
		}
		if c.dHash[fi] == ov.refWHash[fi] {
			continue
		}
		if !ov.refWFree[fi] || c.dSym[fi] != ov.refWSym[fi] {
			return false
		}
	}
	return true
}

// groupExports sizes the per-slot export snapshot to the import list
// and groups the import slots by exporting switch (counting sort), so
// a finishing switch can freeze exactly the histories it hands on:
// afterwards expSlot[expStart[u]:expStart[u+1]] lists the slots fed by
// used-switch index u.
func (c *Checker) groupExports() {
	n := len(c.impF)
	c.snapHash = slices.Grow(c.snapHash[:0], n)[:n]
	c.snapLen = slices.Grow(c.snapLen[:0], n)[:n]
	c.snapLast = slices.Grow(c.snapLast[:0], n)[:n]
	c.expSlot = slices.Grow(c.expSlot[:0], n)[:n]
	c.expStart = resized(c.expStart, len(c.usedIDs)+2, 0)
	for _, from := range c.impFrom {
		c.expStart[from+2]++
	}
	for i := 2; i < len(c.expStart); i++ {
		c.expStart[i] += c.expStart[i-1]
	}
	// expStart[u+1] is group u's fill cursor; once every slot is placed
	// it has advanced to the group's end, which is group u+1's start.
	for s, from := range c.impFrom {
		c.expSlot[c.expStart[from+1]] = int32(s)
		c.expStart[from+1]++
	}
}
