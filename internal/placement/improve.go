package placement

import (
	"fmt"
	"slices"
	"time"

	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
)

// repairInstance is the working state every refinement runs on: a
// compiled instance plus the mutable dense assignment, pair-byte table,
// per-switch resident lists, stage-packing scratch and (under a traffic
// matrix) the weight table in the same index space. Greedy's polish
// builds one over the memoized whole-graph instance with every MAT
// dirty (wholeInstance); the replan repair builds one per touched
// region over a compact host set (healInstance), places the displaced
// MATs on it and climbs over the dirty ones. place and climb are the
// only code that scores, checks and accepts a placement or a move.
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
	ms        *MoveScratch
	cyc       *CycleScratch
	// packs scratch: a MAT is in the set being packed when its stamp
	// equals gen, and end then holds the last stage it uses.
	gen   int32
	stamp []int32
	end   []int32
	used  []float64
}

func newRepairInstance(ci *CompiledInstance, sws []*network.Switch, cands, assign []int32, wt *WeightTable) *repairInstance {
	in := &repairInstance{
		ci: ci, sws: sws, cands: cands, assign: assign, wt: wt,
		residents: make([][]int32, len(sws)),
		pt:        ci.NewPairTable(),
		ms:        ci.NewMoveScratch(),
		cyc:       ci.NewCycleScratch(),
		stamp:     make([]int32, len(ci.Names)),
		end:       make([]int32, len(ci.Names)),
	}
	for x, h := range assign {
		if h >= 0 {
			in.residents[h] = append(in.residents[h], int32(x))
		}
	}
	stages := 0
	for h, sw := range sws {
		slices.SortFunc(in.residents[h], func(a, b int32) int { return int(ci.TopoPos[a] - ci.TopoPos[b]) })
		stages = max(stages, sw.Stages)
	}
	in.used = make([]float64, stages)
	return in
}

// wholeInstance wraps a complete plan in the memoized whole-graph
// instance: switch index space is the topology's ID space and every
// live programmable switch is a candidate.
func wholeInstance(p *Plan, opts Options, rm program.ResourceModel) (*repairInstance, error) {
	ci := Compile(p.Graph, p.Topo, rm)
	sws := make([]*network.Switch, ci.S)
	for id := range sws {
		sw, err := p.Topo.Switch(network.SwitchID(id))
		if err != nil {
			return nil, err
		}
		sws[id] = sw
	}
	cands := make([]int32, len(ci.Prog))
	for i, u := range ci.Prog {
		cands[i] = int32(u)
	}
	var wt *WeightTable
	if opts.Traffic != nil {
		var err error
		if wt, err = ci.CompileWeights(opts.Traffic); err != nil {
			return nil, err
		}
	}
	return newRepairInstance(ci, sws, cands, ci.PlanAssign(p), wt), nil
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
	}
	pos, l := in.ci.TopoPos, in.residents[to]
	at := len(l)
	for at > 0 && pos[l[at-1]] > pos[x] {
		at--
	}
	in.residents[to] = slices.Insert(l, at, x)
}

// place lands the unassigned MATs xs, given in TDG topological order,
// one at a time on the feasible candidate minimizing (W, A_max, switch
// ID) against the already-assigned neighbors — W the weighted objective
// under a traffic matrix, zero otherwise. Candidates are scored
// allocation-free on the PlaceScore kernels; feasibility is stage
// packing on the gaining switch plus acyclicity of the contracted
// switch graph.
func (in *repairInstance) place(xs []int32, opts Options) error {
	ci := in.ci
	ci.FillPairTable(in.assign, in.pt)
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
		//hermes:hot
		for _, h := range in.cands {
			c := scored{h: h, amax: ci.PlaceScore(in.assign, in.pt, in.ms, x, h)}
			if in.wt != nil {
				ws, wm := ci.PlaceScoreWeighted(in.assign, in.pt, in.ms, in.wt, x, h, curSum)
				c.w = opts.TrafficObjective.pick(ws, wm)
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
			if !in.packs(h, x, -1) {
				continue
			}
			in.assign[x] = h
			if !ci.AssignmentAcyclic(in.assign, in.cyc) {
				in.assign[x] = -1
				continue
			}
			in.settle(x, -1, h)
			ci.ApplyPlace(in.assign, in.pt, x, h)
			if in.wt != nil {
				curSum, _ = in.wt.Score(in.pt)
			}
			placed = true
			break
		}
		if !placed {
			return infeasibleError(fmt.Sprintf("no feasible switch for displaced MAT %q", ci.Names[x]))
		}
	}
	return nil
}

// infeasibleError marks a repair instance whose candidate set cannot
// host a displaced MAT; a regional caller widens the set before giving
// up.
type infeasibleError string

func (e infeasibleError) Error() string { return string(e) }

// admits reports whether moving MAT x to switch to keeps every
// constraint: both touched switches pack (Eq. 8–9), the contracted
// switch graph stays acyclic (Eq. 7) and, when ε1 is set, the summed
// latency over the instance's communicating pairs stays within it
// (Eq. 4). The score scratch doubles as the latency probe's seen-set —
// the scores it held were returned by value.
func (in *repairInstance) admits(x, to int32, opts Options) bool {
	from := in.assign[x]
	if !in.packs(from, -1, x) || !in.packs(to, x, -1) {
		return false
	}
	in.assign[x] = to
	ok := in.ci.AssignmentAcyclic(in.assign, in.cyc)
	if ok && opts.Epsilon1 > 0 {
		lat, connected := in.ci.AssignmentLatency(in.assign, in.ms)
		ok = connected && lat <= opts.Epsilon1
	}
	in.assign[x] = from
	return ok
}

// climb is the bounded first-improvement hill climb (the refinement
// extending the paper's Algorithm 2): it tries moving each dirty MAT to
// another occupied candidate switch and keeps the move when it strictly
// reduces (A_max, total cross bytes) and admits holds. The target
// switches are fixed at climb start. With a weight table a second phase
// descends the lexicographic (W, A_max, cross bytes) key from the
// structural optimum the first converged to, with A_max capped at
// AMaxSlack × that optimum — so the refined plan's worst pair stays
// within the slack of the plan an unweighted solve would ship
// (DESIGN.md §13). A move's score is the absolute state "MAT on that
// switch, everything else fixed", computed allocation-free in
// O(deg + pairs) on the MoveScore kernels; the climb is serial, so
// every Options.Workers yields the same plan. dirty is ascending in MAT
// index. budget always caps the search and a tighter Options.Deadline
// wins; both, and cancellation, are polled through a counter-gated
// clock read.
func (in *repairInstance) climb(opts Options, budget time.Duration, dirty []int32) {
	ci := in.ci
	deadline := time.Now().Add(budget)
	if !opts.Deadline.IsZero() && opts.Deadline.Before(deadline) {
		deadline = opts.Deadline
	}
	targets := make([]int32, 0, len(in.cands))
	for _, h := range in.cands {
		if len(in.residents[h]) > 0 {
			targets = append(targets, h)
		}
	}
	total := ci.FillPairTable(in.assign, in.pt)
	bestA := in.pt.Max()
	poll := newDeadlinePoller(deadline, 32).withCancel(opts.done())

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
			improved := false
			for _, x := range dirty {
				if poll.Expired() {
					return
				}
				cur := in.assign[x]
				//hermes:hot
				for _, h := range targets {
					if h == cur {
						continue
					}
					a, cross := ci.MoveScore(in.assign, in.pt, in.ms, x, h, total)
					worse := a > bestA || (a == bestA && cross >= total)
					var w, ws int64
					if weighted {
						if a > acap {
							continue
						}
						var wm int64
						ws, wm = ci.MoveScoreWeighted(in.assign, in.pt, in.ms, in.wt, x, h, curSum)
						w = opts.TrafficObjective.pick(ws, wm)
						worse = w > bestW || (w == bestW && worse)
					}
					if worse || !in.admits(x, h, opts) {
						continue
					}
					total = ci.ApplyMove(in.assign, in.pt, x, h, total)
					in.settle(x, cur, h)
					bestA, bestW, curSum = a, w, ws
					cur = h
					improved = true
				}
			}
			if !improved {
				break
			}
		}
	}
}
