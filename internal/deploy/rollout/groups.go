package rollout

import (
	"slices"

	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/tdg"
)

// commitGroup is the atomic unit of a serving flip. Programs that
// share a merged TDG node (in either the old or the new graph) cannot
// flip epochs independently — the shared node's config serves them
// both — so they are unioned into one group that commits in a single
// op. The group ID is the lexicographically least member program.
type commitGroup struct {
	// id is the group name used in commit ops and reports.
	id string
	// progs are the member program names, sorted.
	progs []string
	// epoch is the target serving epoch on the forward path: the
	// rollout's To epoch, or 0 when every member is withdrawn from the
	// new plan (the group stops serving).
	epoch uint64
	// initial is the epoch the group serves before the rollout: the
	// From epoch when the old plan serves any member, else 0 (all
	// members are freshly added).
	initial uint64
}

// programIndex is a graph's program names interned to ints: names
// holds every program a node originates from, ascending, and node id's
// programs are prog[start[id]:start[id+1]], as indexes into names. It
// is memoized on the graph, so a heal's rollouts, whose old and new
// plans share one graph, intern its programs once.
type programIndex struct {
	names []string
	start []int32
	prog  []int32
}

// programIndexKey is programIndex's key in the graph's memo.
const programIndexKey = "rollout.programs"

// programsOf returns g's program index, building it on first use.
func programsOf(g *tdg.Graph) *programIndex {
	if v, ok := g.Memo(programIndexKey); ok {
		return v.(*programIndex)
	}
	n := g.NumNodes()
	pi := &programIndex{start: make([]int32, n+1)}
	for id := range n {
		pi.names = append(pi.names, g.NodeOf(int32(id)).Origin...)
	}
	pi.prog = make([]int32, 0, len(pi.names))
	slices.Sort(pi.names)
	pi.names = slices.Compact(pi.names)
	for id := range n {
		for _, p := range g.NodeOf(int32(id)).Origin {
			pi.prog = append(pi.prog, pi.lookup(p))
		}
		pi.start[id+1] = int32(len(pi.prog))
	}
	g.MemoSet(programIndexKey, pi)
	return pi
}

// lookup returns the index of program name, or -1.
func (pi *programIndex) lookup(name string) int32 {
	if x, ok := slices.BinarySearch(pi.names, name); ok {
		return int32(x)
	}
	return -1
}

// buildGroups unions programs over shared TDG nodes in both
// deployments and returns the groups sorted by ID, plus the
// program→group index. The programs of both graphs are numbered
// jointly in name order, by a merge of the two graphs' program indexes,
// so the union-find runs on ints, a group's least member is its root,
// and walking the programs in that order lists each group's members
// sorted and meets the groups in ID order.
func buildGroups(old, next *deploy.Deployment, to uint64) ([]*commitGroup, map[string]*commitGroup) {
	po, pn := programsOf(old.Plan.Graph), programsOf(next.Plan.Graph)
	// names is the joint program list; of[0] and of[1] map the old and
	// the new graph's program indexes into it.
	var names []string
	of := [2][]int32{make([]int32, len(po.names)), make([]int32, len(pn.names))}
	inNew := make([]bool, 0, len(po.names)+len(pn.names))
	for i, j := 0, 0; i < len(po.names) || j < len(pn.names); {
		x := int32(len(names))
		switch {
		case j == len(pn.names) || i < len(po.names) && po.names[i] < pn.names[j]:
			names, inNew = append(names, po.names[i]), append(inNew, false)
			of[0][i] = x
			i++
		case i == len(po.names) || pn.names[j] < po.names[i]:
			names, inNew = append(names, pn.names[j]), append(inNew, true)
			of[1][j] = x
			j++
		default:
			names, inNew = append(names, po.names[i]), append(inNew, true)
			of[0][i], of[1][j] = x, x
			i++
			j++
		}
	}
	parent := make([]int32, len(names))
	for x := range parent {
		parent[x] = int32(x)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for k, pi := range [2]*programIndex{po, pn} {
		for id := range len(pi.start) - 1 {
			progs := pi.prog[pi.start[id]:pi.start[id+1]]
			for _, p := range progs[min(1, len(progs)):] {
				// Deterministic: the least name wins the root.
				ra, rb := find(of[k][progs[0]]), find(of[k][p])
				parent[max(ra, rb)] = min(ra, rb)
			}
		}
	}
	var groups []*commitGroup
	byRoot := make([]*commitGroup, len(names))
	progGroup := make(map[string]*commitGroup, len(names))
	for x, name := range names {
		r := find(int32(x))
		g := byRoot[r]
		if g == nil {
			g = &commitGroup{id: name}
			byRoot[r] = g
			groups = append(groups, g)
		}
		g.progs = append(g.progs, name)
		if inNew[x] {
			g.epoch = to
		}
		progGroup[name] = g
	}
	return groups, progGroup
}

// hostsOf returns the distinct switches hosting any of progs' MATs in
// plan, ascending — the set that must hold the group's serving epoch
// for the flip to be consistent. It reads the plan's host table and its
// graph's program index.
func hostsOf(plan *placement.Plan, progs []string) []network.SwitchID {
	pi := programsOf(plan.Graph)
	want := make([]bool, len(pi.names))
	for _, p := range progs {
		if x := pi.lookup(p); x >= 0 {
			want[x] = true
		}
	}
	var out []network.SwitchID
	//hermes:hot
	for id, sw := range plan.Hosts() {
		if sw < 0 {
			continue
		}
		for _, x := range pi.prog[pi.start[id]:pi.start[id+1]] {
			if want[x] {
				out = append(out, sw)
				break
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// servedBy reports whether plan's graph contains any MAT originating
// from prog — i.e. whether that plan can serve the program at all.
func servedBy(plan *placement.Plan, prog string) bool {
	return programsOf(plan.Graph).lookup(prog) >= 0
}
