package equiv

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

// Checker proves deployments equivalent to one reference
// graph. It owns reusable scratch sized to the reference, so repeated
// checks against the same graph are allocation-free on the green path;
// a Checker is not safe for concurrent use (share the graph, not the
// Checker). The package-level gates draw theirs from the per-graph pool
// (acquire/release), so that holds for them too.
type Checker struct {
	ov *compiled

	// Lowered pipeline, rebuilt per check in reused scratch.
	usedIDs []network.SwitchID // used switches, ascending
	swIdx   []int32            // used-switch index by switch ID, -1 unused
	adj     []uint64           // U×U contracted-adjacency bitset
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

	// Execution entries before the stage-order sort, and the first-stage
	// dedup: stamp[x] == epoch once reference MAT x has an entry on the
	// switch being lowered.
	ents  []execEntry
	stamp []uint32
	epoch uint32
	imps  []importRef // one switch's upstream imports

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

	// dep is the deployment the scratch was lowered from, for the
	// diagnostic pass.
	dep *deploy.Deployment

	// reach is the diagnostic pass's reachability scratch.
	reach reachScratch
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
		stamp:   make([]uint32, len(ov.names)),
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
// lowered deployment is dropped first so an idle checker does not pin
// it.
func (c *Checker) release() {
	c.dep = nil
	c.ov.poolMu.Lock()
	defer c.ov.poolMu.Unlock()
	c.ov.pool = append(c.ov.pool, c)
}

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
	n, ok := c.dep.Plan.Graph.Node(name)
	if !ok {
		return nil
	}
	return n.MAT
}

// lowerDeployment flattens the engine-visible pipeline of dep into the
// checker's scratch: switch visit order (the plan's contracted-DAG
// Kahn order with ascending-ID tie break), per-switch MATs by first
// stage then name, and the per-pair coordination-header field lists.
// It lowers what ships, the Configs, reading each stage entry's Node
// stamp; the switches and their order come from the plan's host table.
func (c *Checker) lowerDeployment(dep *deploy.Deployment) error {
	if dep == nil || dep.Plan == nil || dep.Plan.Graph == nil {
		return fmt.Errorf("equiv: nil deployment")
	}
	c.dep = dep
	c.collectSwitches(dep.Plan)
	c.orderSwitches(dep.Plan)

	// Execution entries: replicate dataplane.matsInStageOrder per
	// switch config — first stage of each MAT, dedup, (stage, name).
	n := 0
	for _, u := range c.visit {
		if cfg := dep.Configs[c.usedIDs[u]]; cfg != nil {
			for _, st := range cfg.Stages {
				n += len(st)
			}
		}
	}
	ents := slices.Grow(c.ents[:0], n)
	for r, u := range c.visit {
		cfg := dep.Configs[c.usedIDs[u]]
		if cfg == nil {
			continue
		}
		if c.epoch++; c.epoch == 0 {
			clear(c.stamp)
			c.epoch = 1
		}
		lo := len(ents)
		for s, st := range cfg.Stages {
			// A stage's new entries follow the earlier stages' ones, so
			// only each stage's run needs sorting; Compile emits it
			// sorted already.
			run := len(ents)
			for _, e := range st {
				x := c.ov.entryIndex(e.Node, e.MAT)
				if x >= 0 {
					if c.stamp[x] == c.epoch {
						continue
					}
					c.stamp[x] = c.epoch
				} else if unknownSeen(ents[lo:], e.MAT) {
					continue
				}
				ents = append(ents, execEntry{rank: int32(r), stage: int32(s), x: x, name: e.MAT})
			}
			slices.SortFunc(ents[run:], compareEntries)
		}
	}
	c.ents = ents
	c.buildExec()

	// Imports: each switch's configured coordination headers, emitted
	// in ascending upstream visit rank so the walk's overwrite-merge
	// reproduces the engine's deterministic later-upstream-wins order.
	c.impStart = append(c.impStart[:0], 0)
	c.impFrom = c.impFrom[:0]
	c.impF = c.impF[:0]
	for r, u := range c.visit {
		if cfg := dep.Configs[c.usedIDs[u]]; cfg != nil {
			for _, im := range c.upstreamImports(cfg, int32(r)) {
				from := c.visit[im.rank]
				for _, fld := range im.fields {
					fi, ok := c.ov.fieldID(fld.Name)
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

// importRef is one header a switch imports, by its exporter's visit
// rank.
type importRef struct {
	rank   int32
	fields []fields.Field
}

// upstreamImports returns the headers cfg imports from switches visited
// before rank r, in ascending exporter rank: one pass over the imports
// rather than a lookup per earlier switch. Imports from a switch the
// plan does not use, or that the visit order never reaches, are not
// delivered.
func (c *Checker) upstreamImports(cfg *deploy.SwitchConfig, r int32) []importRef {
	imps := c.imps[:0]
	for from, hdr := range cfg.Imports {
		if from < 0 || int(from) >= len(c.swIdx) || c.swIdx[from] < 0 {
			continue
		}
		if fr := c.rank[c.swIdx[from]]; fr >= 0 && fr < r {
			imps = append(imps, importRef{rank: fr, fields: hdr.Fields})
		}
	}
	slices.SortFunc(imps, func(a, b importRef) int { return cmp.Compare(a.rank, b.rank) })
	c.imps = imps
	return imps
}

// unknownSeen reports whether ents, the current switch's entries so
// far, already hold the MAT name the reference does not know.
func unknownSeen(ents []execEntry, name string) bool {
	for _, e := range ents {
		if e.x < 0 && e.name == name {
			return true
		}
	}
	return false
}

// collectSwitches gathers the used switches ascending into usedIDs and
// their dense indexes into swIdx, from the plan's host table.
func (c *Checker) collectSwitches(p *placement.Plan) {
	hosts := p.Hosts()
	top := -1
	for _, u := range hosts {
		top = max(top, int(u))
	}
	c.swIdx = resized(c.swIdx, top+1, -1)
	for _, u := range hosts {
		if u >= 0 {
			c.swIdx[u] = 0
		}
	}
	c.usedIDs = c.usedIDs[:0]
	for u, x := range c.swIdx {
		if x == 0 {
			c.swIdx[u] = int32(len(c.usedIDs))
			c.usedIDs = append(c.usedIDs, network.SwitchID(u))
		}
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
	hosts := p.Hosts()
	//hermes:hot
	for _, e := range p.Graph.EdgeList() {
		from, to := e.Endpoints()
		ua, ub := hosts[from], hosts[to]
		if ua < 0 || ub < 0 || ua == ub {
			continue
		}
		a, b := c.swIdx[ua], c.swIdx[ub]
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

// execEntry is one MAT a switch executes: the switch's visit rank, the
// MAT's first stage there, its reference MAT index (-1 when the
// reference does not know it) and its name.
type execEntry struct {
	rank, stage, x int32
	name           string
}

// compareEntries orders execution entries by (visit rank, first stage,
// name) — the engine's global MAT order. A reference MAT index is its
// name rank, so two known MATs compare as integers and only a MAT the
// reference does not know compares by name.
func compareEntries(a, b execEntry) int {
	if a.rank != b.rank {
		return cmp.Compare(a.rank, b.rank)
	}
	if a.stage != b.stage {
		return cmp.Compare(a.stage, b.stage)
	}
	if a.x >= 0 && b.x >= 0 {
		return cmp.Compare(a.x, b.x)
	}
	return strings.Compare(a.name, b.name)
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
	// A deployment of the reference graph itself runs the reference
	// definitions: only a foreign graph's need resolving.
	foreign := c.dep.Plan.Graph != c.ov.g
	for _, e := range c.ents {
		x, name := e.x, e.name
		c.execMAT = append(c.execMAT, x)
		c.execName = append(c.execName, name)
		c.execSw = append(c.execSw, c.visit[e.rank])
		if x < 0 {
			c.unknown = append(c.unknown, name)
			continue
		}
		c.seenCnt[x]++
		if !foreign {
			continue
		}
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
