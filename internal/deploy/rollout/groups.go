package rollout

import (
	"slices"
	"sort"

	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
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

// buildGroups unions programs over shared TDG nodes in both
// deployments and returns the groups sorted by ID, plus the
// program→group index.
func buildGroups(old, next *deploy.Deployment, to uint64) ([]*commitGroup, map[string]*commitGroup) {
	parent := map[string]string{}
	var find func(string) string
	find = func(p string) string {
		if parent[p] == p {
			return p
		}
		parent[p] = find(parent[p])
		return parent[p]
	}
	add := func(p string) {
		if _, ok := parent[p]; !ok {
			parent[p] = p
		}
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if rb < ra { // deterministic: least name wins the root
			ra, rb = rb, ra
		}
		parent[rb] = ra
	}
	inNew := map[string]bool{}
	scan := func(dep *deploy.Deployment, fresh bool) {
		g := dep.Plan.Graph
		for id := range g.NumNodes() {
			n := g.NodeOf(int32(id))
			for i, p := range n.Origin {
				add(p)
				if fresh {
					inNew[p] = true
				}
				if i > 0 {
					union(n.Origin[0], p)
				}
			}
		}
	}
	scan(old, false)
	scan(next, true)

	byRoot := map[string]*commitGroup{}
	progGroup := map[string]*commitGroup{}
	for p := range parent {
		r := find(p)
		g := byRoot[r]
		if g == nil {
			g = &commitGroup{}
			byRoot[r] = g
		}
		g.progs = append(g.progs, p)
		progGroup[p] = g
	}
	groups := make([]*commitGroup, 0, len(byRoot))
	for _, g := range byRoot {
		sort.Strings(g.progs)
		g.id = g.progs[0]
		for _, p := range g.progs {
			if inNew[p] {
				g.epoch = to
				break
			}
		}
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].id < groups[j].id })
	return groups, progGroup
}

// hostsOf returns the distinct switches hosting any of progs' MATs in
// plan, ascending — the set that must hold the group's serving epoch
// for the flip to be consistent. It reads the plan's host table.
func hostsOf(plan *placement.Plan, progs []string) []network.SwitchID {
	want := make(map[string]bool, len(progs))
	for _, p := range progs {
		want[p] = true
	}
	g, hosts := plan.Graph, plan.Hosts()
	var out []network.SwitchID
	for id, sw := range hosts {
		if sw < 0 {
			continue
		}
		for _, p := range g.NodeOf(int32(id)).Origin {
			if want[p] {
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
	g := plan.Graph
	for id := range g.NumNodes() {
		if slices.Contains(g.NodeOf(int32(id)).Origin, prog) {
			return true
		}
	}
	return false
}
