package placement

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/tdg"
)

// repairInstance is the working state every refinement runs on: a
// compiled instance over a sorted host list plus the mutable dense
// assignment, pair-byte table, per-switch resident lists, stage-packing
// scratch and (under a traffic matrix) the weight table in the same
// index space. Greedy's polish builds one over the MAT set it solved and
// the hosts it used, with every MAT dirty; the replan repair builds one
// per touched region (healInstance), places the displaced MATs on it and
// climbs over the dirty ones; the sharded reconcile builds one over the
// merged plan's hosts. place and climb are the only code that scores,
// checks and accepts a placement or a move.
type repairInstance struct {
	ci *CompiledInstance
	// sws resolves an instance switch index to the real switch behind it:
	// stage packing is decided against real switches and the full graph's
	// canonical order, which is what materialization packs by. cands lists
	// the indices a MAT may be placed on or moved to, ascending; frozen
	// halo anchors appear in sws but never in cands.
	sws    []*network.Switch
	cands  []int32
	assign []int32
	// residents lists each switch's MATs by index, ascending in TopoPos:
	// the canonical order stage packing processes them in.
	residents [][]int32
	pt        *PairTable
	wt        *WeightTable // nil off the traffic-weighted objectives
	// lat is the hosts' dense latency table (entry [i*U+j]), read by the
	// ε1 probe; nil when ε1 is off.
	lat []time.Duration
	ms  *MoveScratch
	// cyc is the contracted switch graph of assign, kept move by move;
	// acyclic records that it is a DAG, which every accepted move keeps.
	cyc     *CycleScratch
	acyclic bool
	// load is each switch's summed resident requirement: the capacity
	// precheck before packs.
	load []float64
	// packs scratch: a MAT is in the set being packed when its stamp
	// equals gen, and end then holds the last stage it uses.
	gen   int32
	stamp []int32
	end   []int32
	used  []float64
	steps int // packStep calls, flushed by Options.countPackSteps
	// scored counts the candidates scored and folded the cells the
	// folds visit (incident edges gathered, peer hosts overlaid), both
	// flushed by Options.countClimb.
	scored, folded int
}

// newRepairInstance builds the repair instance of the MATs ids — g's
// node ids, ascending in name order — on hosts, distinct switch IDs of
// topo in ascending order: instance switch i is hosts[i], so every
// table is U²-sized, U = len(hosts), whatever the size of topo. at[x] is
// MAT ids[x]'s switch, one of hosts, or -1 while it waits to be placed;
// cand picks the hosts a MAT may be placed on or moved to, the others
// being frozen anchors. weights, the table of all of topo (nil off the
// traffic objectives), is compacted onto hosts, and under ε1 the hosts'
// latencies are read off topo's path oracle. The dense scratch is
// recycled; the caller hands it back with release.
func newRepairInstance(g *tdg.Graph, gi *graphIndex, topo *network.Topology, hosts []network.SwitchID,
	ids []int32, at []network.SwitchID, cand func(*network.Switch) bool, weights *WeightTable, opts Options) (*repairInstance, error) {
	in := &repairInstance{
		ci:     compileSubset(g, gi, ids, int32(len(hosts))),
		sws:    make([]*network.Switch, len(hosts)),
		assign: make([]int32, len(ids)),
	}
	cands := make([]int32, 0, len(hosts))
	//hermes:hot
	for h, id := range hosts {
		sw, err := topo.Switch(id)
		if err != nil {
			return nil, err
		}
		in.sws[h] = sw
		if cand(sw) {
			cands = append(cands, int32(h))
		}
	}
	in.cands = cands
	//hermes:hot
	for x, u := range at {
		h := -1
		if u >= 0 {
			var ok bool
			if h, ok = slices.BinarySearch(hosts, u); !ok {
				return nil, fmt.Errorf("placement: MAT %q sits on switch %d, outside the instance's hosts", in.ci.name(int32(x)), u)
			}
		}
		in.assign[x] = int32(h)
	}
	if weights != nil {
		in.wt = weights.Compact(hosts)
	}
	if opts.Epsilon1 > 0 {
		in.lat = hostLatencies(topo, hosts)
	}
	in.seed()
	return in, nil
}

// seed lays out the working state behind an instance's ci, sws and
// assign: the resident lists and loads, the packing scratch and the
// dense kernel scratch, taken from the free list.
func (in *repairInstance) seed() {
	ci := in.ci
	ks := takeScratch(ci.S)
	in.pt, in.ms, in.cyc = ks.pt, ks.ms, ks.cyc
	in.residents = make([][]int32, len(in.sws))
	in.load = make([]float64, len(in.sws))
	in.stamp = make([]int32, len(ci.Req))
	in.end = make([]int32, len(ci.Req))
	for x, h := range in.assign {
		if h >= 0 {
			in.residents[h] = append(in.residents[h], int32(x))
			in.load[h] += ci.Req[x]
		}
	}
	stages := 0
	for h, sw := range in.sws {
		slices.SortFunc(in.residents[h], func(a, b int32) int { return int(ci.TopoPos[a] - ci.TopoPos[b]) })
		stages = max(stages, sw.Stages)
	}
	in.used = make([]float64, stages)
}

// switchOf returns the real switch MAT x sits on.
func (in *repairInstance) switchOf(x int32) network.SwitchID { return in.sws[in.assign[x]].ID }

// release cleans the instance's dense scratch in O(touched cells) and
// returns it to the free list; the instance must not score again.
func (in *repairInstance) release() {
	putScratch(kernelScratch{pt: in.pt, ms: in.ms, cyc: in.cyc})
	in.pt, in.ms, in.cyc = nil, nil, nil
}

// hostLatencies is the instance-sized twin of Topology.LatencyTable:
// entry [i*U+j] is the shortest-path latency hosts[i]→hosts[j] on topo,
// -1 when unreachable.
func hostLatencies(topo *network.Topology, hosts []network.SwitchID) []time.Duration {
	u := len(hosts)
	lat := make([]time.Duration, u*u)
	for i, a := range hosts {
		for j, b := range hosts {
			if i == j {
				continue
			}
			if p, err := topo.ShortestPath(a, b); err != nil {
				lat[i*u+j] = -1
			} else {
				lat[i*u+j] = p.Latency
			}
		}
	}
	return lat
}

// kernelScratch is the U²-sized scratch one repair instance scores on
// (U its host count): the pair table with its value histogram, the move
// overlay with its peer fold, and the incremental contracted switch
// graph.
type kernelScratch struct {
	pt  *PairTable
	ms  *MoveScratch
	cyc *CycleScratch
}

// cells is the U² capacity every part of the scratch has.
func (ks kernelScratch) cells() int { return cap(ks.pt.Cells) }

// scratchFree recycles the kernel scratch of finished repair instances.
// One deploy builds an instance per region solve, per reconcile and per
// repaired region, and their U² tables were ~40 % of a composite
// deploy's bytes. It is a plain list, not a sync.Pool, so it survives
// GC; it is bounded in entries and in cells, so an instance over
// thousands of hosts is never retained.
var scratchFree struct {
	sync.Mutex
	list []kernelScratch
}

const (
	scratchFreeEntries  = 4
	scratchFreeMaxCells = 1 << 19
)

// takeScratch returns clean scratch for an s-switch instance: the
// smallest free entry that is large enough, resliced to s, or a fresh
// one.
func takeScratch(s int32) kernelScratch {
	n := int(s) * int(s)
	scratchFree.Lock()
	best := -1
	for i, ks := range scratchFree.list {
		if c := ks.cells(); c >= n && (best < 0 || c < scratchFree.list[best].cells()) {
			best = i
		}
	}
	if best < 0 {
		scratchFree.Unlock()
		return kernelScratch{pt: newPairTable(s), ms: newMoveScratch(s), cyc: newCycleScratch(s)}
	}
	ks := scratchFree.list[best]
	scratchFree.list = slices.Delete(scratchFree.list, best, best+1)
	scratchFree.Unlock()
	pt, ms, cyc := ks.pt, ks.ms, ks.cyc
	pt.S, pt.Cells, pt.inKeys = s, pt.Cells[:n], pt.inKeys[:n]
	ms.delta, ms.inKeys = ms.delta[:n], ms.inKeys[:n]
	ms.outB, ms.inB, ms.outN, ms.inN = ms.outB[:s], ms.inB[:s], ms.outN[:s], ms.inN[:s]
	cyc.s, cyc.mult, cyc.succ, cyc.seen, cyc.indeg = s, cyc.mult[:n], cyc.succ[:s], cyc.seen[:s], cyc.indeg[:s]
	return ks
}

// putScratch cleans ks and keeps it when the list has room, or when it
// is larger than the smallest entry, which it then replaces.
func putScratch(ks kernelScratch) {
	if ks.cells() > scratchFreeMaxCells {
		return
	}
	ks.pt.Reset()
	ks.ms.reset()
	ks.ms.clearFold()
	ks.cyc.reset()
	scratchFree.Lock()
	defer scratchFree.Unlock()
	if len(scratchFree.list) < scratchFreeEntries {
		scratchFree.list = append(scratchFree.list, ks)
		return
	}
	small := 0
	for i, e := range scratchFree.list {
		if e.cells() < scratchFree.list[small].cells() {
			small = i
		}
	}
	if ks.cells() > scratchFree.list[small].cells() {
		scratchFree.list[small] = ks
	}
}

// packs reports whether switch h still packs its residents once MAT add
// joins and resident drop leaves (either may be -1) — FitsSwitch's
// verdict on that set against the real switch, decided by position: the
// residents are walked in canonical order with add merged in at its
// TopoPos, each MAT starting one stage past its latest packed
// predecessor (edges from outside the set are ignored, as in
// PackStages). An emptied switch trivially packs; a non-programmable
// (drained) one has no stage to offer, so it hosts nothing.
func (in *repairInstance) packs(h, add, drop int32) bool {
	res, sw, pos := in.residents[h], in.sws[h], in.ci.TopoPos
	stages := sw.Stages
	if !sw.Programmable {
		stages = 0
	}
	in.gen++
	used := in.used[:stages]
	clear(used)
	//hermes:hot
	for _, x := range res {
		if add >= 0 && pos[add] < pos[x] {
			if !in.packOne(add, used, sw.StageCapacity) {
				return false
			}
			add = -1
		}
		if x != drop && !in.packOne(x, used, sw.StageCapacity) {
			return false
		}
	}
	return add < 0 || in.packOne(add, used, sw.StageCapacity)
}

// loadFits is packs' capacity-sum precheck for MAT x joining switch h.
// It is false only when the residents' requirement plus x's exceeds the
// switch's stage capacity by more than packing's per-MAT tolerance and
// any rounding in the running sums could explain — a set packs would
// refuse too — so it decides nothing packs would decide otherwise.
func (in *repairInstance) loadFits(h, x int32) bool {
	sw := in.sws[h]
	capacity := 0.0
	if sw.Programmable {
		capacity = float64(sw.Stages) * sw.StageCapacity
	}
	margin := 1e-6*(1+capacity) + 1e-9*float64(len(in.residents[h])+1)
	return in.load[h]+in.ci.Req[x] <= capacity+margin
}

// packOne packs MAT x after the set members already packed this
// generation and stamps it into the set.
func (in *repairInstance) packOne(x int32, used []float64, stageCap float64) bool {
	ci := in.ci
	earliest := 0
	//hermes:hot
	for _, ei := range ci.In[x] {
		if p := ci.EdgeFrom[ei]; in.stamp[p] == in.gen && int(in.end[p])+1 > earliest {
			earliest = int(in.end[p]) + 1
		}
	}
	in.steps++
	end, ok := packStep(used, stageCap, ci.Req[x], earliest)
	in.stamp[x], in.end[x] = in.gen, int32(end)
	return ok
}

// settle records MAT x on switch to in the resident lists, leaving
// switch from when it had one (from < 0: x was unassigned).
func (in *repairInstance) settle(x, from, to int32) {
	if from >= 0 {
		l := in.residents[from]
		i := slices.Index(l, x)
		in.residents[from] = slices.Delete(l, i, i+1)
		in.load[from] -= in.ci.Req[x]
	}
	in.load[to] += in.ci.Req[x]
	pos, l := in.ci.TopoPos, in.residents[to]
	at := len(l)
	for at > 0 && pos[l[at-1]] > pos[x] {
		at--
	}
	in.residents[to] = slices.Insert(l, at, x)
}

// syncGraph rebuilds the contracted switch graph from assign and
// records whether it is a DAG.
func (in *repairInstance) syncGraph() {
	in.cyc.fill(in.ci, in.assign)
	in.acyclic = in.cyc.acyclic()
}

// acyclicWith reports whether the contracted switch graph stays a DAG
// once the MAT gathered in ms moves from switch old to switch c (old <
// 0: is placed on c), leaving the graph as it was. From a DAG, a move
// that creates no contracted edge keeps it one, and any other move
// breaks it exactly when c then reaches itself, since every new edge
// has c as an endpoint; from a cyclic graph (a seed no check has passed yet) the
// whole graph is checked.
func (in *repairInstance) acyclicWith(old, c int32) bool {
	cyc, ms := in.cyc, in.ms
	if in.acyclic && !cyc.adds(ms, c) {
		return true
	}
	cyc.retarget(ms, old, c)
	var ok bool
	if in.acyclic {
		ok = !cyc.onCycle(c)
	} else {
		ok = cyc.acyclic()
	}
	cyc.retarget(ms, c, old)
	return ok
}

// place lands the unassigned MATs xs, given in TDG topological order,
// one at a time on the feasible candidate minimizing (W, A_max, switch
// ID) against the already-assigned neighbors — W the weighted objective
// under a traffic matrix, zero otherwise. Each MAT's incident edges are
// gathered once; each candidate is scored allocation-free from the
// placement overlay built from that fold, which the weighted score
// reads too; feasibility is stage packing on the gaining switch plus
// acyclicity of the contracted switch graph.
func (in *repairInstance) place(xs []int32, opts Options) error {
	defer opts.countPackSteps(&in.steps)
	defer opts.countClimb(&in.scored, &in.folded)
	ci, ms := in.ci, in.ms
	ci.FillPairTable(in.assign, in.pt)
	in.syncGraph()
	var curSum int64
	if in.wt != nil {
		curSum, _ = in.wt.Score(in.pt)
	}
	poll := newDeadlinePoller(opts.Deadline, 16).withCancel(opts.done())
	type scored struct {
		h    int32
		w    int64
		amax int
	}
	less := func(a, b scored) bool {
		if a.w != b.w {
			return a.w < b.w
		}
		if a.amax != b.amax {
			return a.amax < b.amax
		}
		return a.h < b.h
	}
	scores := make([]scored, 0, len(in.cands))
	for _, x := range xs {
		if poll.Expired() {
			return fmt.Errorf("deadline expired or replan canceled during repair placement")
		}
		scores = scores[:0]
		in.folded += ms.gather(ci, in.assign, x)
		//hermes:hot
		for _, h := range in.cands {
			ms.overlayPlace(ci.S, h)
			in.scored++
			in.folded += len(ms.hosts)
			c := scored{h: h, amax: ms.maxOver(in.pt)}
			if in.wt != nil {
				c.w = opts.TrafficObjective.pick(ms.weightedOver(in.pt, in.wt, curSum))
			}
			scores = append(scores, c)
		}
		// Selection scan in (W, A_max, switch) order: nearly every MAT lands
		// on its first choice, so extracting minima on demand beats sorting
		// the whole candidate list per MAT.
		placed := false
		for range scores {
			best := -1
			for i, c := range scores {
				if c.h >= 0 && (best < 0 || less(c, scores[best])) {
					best = i
				}
			}
			h := scores[best].h
			scores[best].h = -1 // tried
			if !in.loadFits(h, x) || !in.packs(h, x, -1) || !in.acyclicWith(-1, h) {
				continue
			}
			in.assign[x] = h
			in.settle(x, -1, h)
			ms.overlayPlace(ci.S, h)
			in.folded += len(ms.hosts)
			in.pt.apply(ms)
			in.cyc.retarget(ms, -1, h)
			in.acyclic = true
			if in.wt != nil {
				curSum, _ = in.wt.Score(in.pt)
			}
			placed = true
			break
		}
		if !placed {
			return infeasibleError(fmt.Sprintf("no feasible switch for displaced MAT %q", ci.name(x)))
		}
	}
	return nil
}

// infeasibleError marks a repair instance whose candidate set cannot
// host a displaced MAT; a regional caller widens the set before giving
// up.
type infeasibleError string

func (e infeasibleError) Error() string { return string(e) }

// admits reports whether moving MAT x, gathered in the move scratch,
// to switch to keeps every constraint: both touched switches pack
// (Eq. 8–9; the gaining one's capacity sum first), the contracted
// switch graph stays acyclic (Eq. 7) and, when ε1 is set, the summed
// latency over the instance's communicating pairs stays within it
// (Eq. 4). The overlay doubles as the latency probe's seen-set — the
// scores it held were returned by value; the peer fold is untouched.
func (in *repairInstance) admits(x, to int32, opts Options) bool {
	from := in.assign[x]
	if !in.loadFits(to, x) || !in.packs(from, -1, x) || !in.packs(to, x, -1) || !in.acyclicWith(from, to) {
		return false
	}
	if opts.Epsilon1 <= 0 {
		return true
	}
	in.assign[x] = to
	lat, connected := in.ci.AssignmentLatency(in.lat, in.assign, in.ms)
	in.assign[x] = from
	return connected && lat <= opts.Epsilon1
}

// targetRule picks the switches climb tries moving a dirty MAT to.
type targetRule int

const (
	// occupiedTargets tries every candidate switch that holds MATs when
	// the climb starts (Greedy's polish, the replan repair).
	occupiedTargets targetRule = iota
	// peerTargets tries the switches hosting the MAT's TDG peers, read
	// when the MAT is visited (the sharded reconcile): only a move next
	// to a communication partner can delete cross bytes.
	peerTargets
)

// climb is the bounded first-improvement hill climb (the refinement
// extending the paper's Algorithm 2): it tries moving each dirty MAT to
// the switches rule names and keeps the move when it strictly reduces
// (A_max, total cross bytes) and admits holds. With a weight table a
// second phase descends the lexicographic (W, A_max, cross bytes) key
// from the structural optimum the first converged to, with A_max capped
// at AMaxSlack × that optimum — so the refined plan's worst pair stays
// within the slack of the plan an unweighted solve would ship
// (DESIGN.md §13). A move's score is the absolute state "MAT on that
// switch, everything else fixed", computed allocation-free: a visit
// gathers the MAT's incident edges once into per-peer-host sums, and
// each target's overlay is built from those hosts and its A_max read
// off the pair table's histogram, so a candidate costs O(peer hosts),
// not O(deg + pairs); the weighted phase reads the same overlay. The
// climb is serial, so every Options.Workers yields the same plan. dirty is ascending in MAT index. Each phase runs at most
// maxPasses passes over dirty, so the plan it reaches depends on the
// instance alone; Options.Deadline and cancellation cut it short,
// polled through a counter-gated clock read.
// It returns the passes run and the moves accepted.
func (in *repairInstance) climb(opts Options, dirty []int32, rule targetRule) (passes, moves int) {
	defer opts.countPackSteps(&in.steps)
	defer opts.countClimb(&in.scored, &in.folded)
	ci, ms := in.ci, in.ms
	var occupied, peers []int32
	if rule == occupiedTargets {
		occupied = make([]int32, 0, len(in.cands))
		for _, h := range in.cands {
			if len(in.residents[h]) > 0 {
				occupied = append(occupied, h)
			}
		}
	}
	total := ci.FillPairTable(in.assign, in.pt)
	in.syncGraph()
	bestA := in.pt.Max()
	poll := newDeadlinePoller(opts.Deadline, 32).withCancel(opts.done())

	var bestW, curSum int64
	var acap int
	phases := 1
	if in.wt != nil {
		phases = 2
	}
	const maxPasses = 4
	for phase := 0; phase < phases; phase++ {
		weighted := phase == 1
		if weighted {
			acap = opts.amaxCap(bestA)
			sum, max := in.wt.Score(in.pt)
			bestW, curSum = opts.TrafficObjective.pick(sum, max), sum
		}
		for pass := 0; pass < maxPasses; pass++ {
			passes++
			improved := false
			for _, x := range dirty {
				if poll.Expired() {
					return passes, moves
				}
				cur := in.assign[x]
				in.folded += ms.gather(ci, in.assign, x)
				targets := occupied
				if rule == peerTargets {
					peers = in.peerHosts(peers[:0])
					targets = peers
				}
				//hermes:hot
				for _, h := range targets {
					if h == cur {
						continue
					}
					in.scored++
					in.folded += len(ms.hosts)
					cross := total + ms.overlayMove(ci.S, cur, h)
					a := ms.maxOver(in.pt)
					worse := a > bestA || (a == bestA && cross >= total)
					var w, ws int64
					if weighted {
						if a > acap {
							continue
						}
						var wm int64
						ws, wm = ms.weightedOver(in.pt, in.wt, curSum)
						w = opts.TrafficObjective.pick(ws, wm)
						worse = w > bestW || (w == bestW && worse)
					}
					if worse || !in.admits(x, h, opts) {
						continue
					}
					// Re-overlay: the latency probe may have used the overlay.
					in.folded += len(ms.hosts)
					total += ms.overlayMove(ci.S, cur, h)
					in.pt.apply(ms)
					in.cyc.retarget(ms, cur, h)
					in.acyclic = true
					in.assign[x] = h
					in.settle(x, cur, h)
					bestA, bestW, curSum = a, w, ws
					cur = h
					moves++
					improved = true
				}
			}
			if !improved {
				break
			}
		}
	}
	return passes, moves
}

// peerHosts appends to buf the switches hosting the gathered MAT's TDG
// peers, ascending: the peer fold's host list, sorted.
func (in *repairInstance) peerHosts(buf []int32) []int32 {
	buf = append(buf, in.ms.hosts...)
	slices.Sort(buf)
	return buf
}

// deadlinePoller amortizes deadline checks over hot loops: Expired
// reads the clock only once every interval calls (satisfying the
// "counter-gated" requirement — time.Now is a syscall-class cost when
// polled per candidate move). A zero deadline never expires. An
// optional cancellation channel (withCancel) is polled at the same
// cadence, so a canceled solve is abandoned within one interval.
type deadlinePoller struct {
	deadline time.Time
	done     <-chan struct{}
	interval int
	count    int
	expired  bool
}

func newDeadlinePoller(deadline time.Time, interval int) *deadlinePoller {
	if interval <= 0 {
		interval = 64
	}
	return &deadlinePoller{deadline: deadline, interval: interval}
}

// withCancel attaches a cancellation channel (typically Options.done());
// nil is accepted and never fires.
func (d *deadlinePoller) withCancel(done <-chan struct{}) *deadlinePoller {
	d.done = done
	return d
}

func (d *deadlinePoller) Expired() bool {
	if d.expired {
		return true
	}
	if d.deadline.IsZero() && d.done == nil {
		return false
	}
	d.count++
	if d.count%d.interval != 0 {
		return false
	}
	select {
	case <-d.done:
		d.expired = true
		return true
	default:
	}
	if !d.deadline.IsZero() && time.Now().After(d.deadline) {
		d.expired = true
	}
	return d.expired
}
