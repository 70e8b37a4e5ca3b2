package rollout

import (
	"slices"
	"sort"
	"testing"

	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
)

// hostsOfRef and servedByRef are the group bookkeeping as it stood
// before it walked node ids: a copied Nodes() slice per call, each
// MAT's host looked up by name, a seen-set map.
func hostsOfRef(plan *placement.Plan, progs []string) []network.SwitchID {
	want := make(map[string]bool, len(progs))
	for _, p := range progs {
		want[p] = true
	}
	seen := map[network.SwitchID]bool{}
	for _, n := range plan.Graph.Nodes() {
		for _, p := range n.Origin {
			if want[p] {
				if sp, ok := plan.Assignments[n.Name()]; ok {
					seen[sp.Switch] = true
				}
				break
			}
		}
	}
	out := make([]network.SwitchID, 0, len(seen))
	for sw := range seen {
		out = append(out, sw)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func servedByRef(plan *placement.Plan, prog string) bool {
	for _, n := range plan.Graph.Nodes() {
		for _, p := range n.Origin {
			if p == prog {
				return true
			}
		}
	}
	return false
}

// TestGroupBookkeepingMatchesNameKeyed holds buildGroups' output and
// hostsOf/servedBy on both plans of the composite heal to the
// name-keyed reference: every group's hosts in the old and the new
// plan, every program's service, and a plan missing some assignments.
func TestGroupBookkeepingMatchesNameKeyed(t *testing.T) {
	old, next := compositeHeal(t)
	groups, byProg := buildGroups(old, next, 2)
	if len(groups) == 0 || len(byProg) == 0 {
		t.Fatal("no commit groups")
	}
	partial := *next.Plan
	partial.InvalidateCache()
	partial.Assignments = map[string]placement.StagePlacement{}
	for i, name := range next.Plan.Graph.NodeNames() {
		if i%3 != 0 {
			partial.Assignments[name] = next.Plan.Assignments[name]
		}
	}
	for _, plan := range []*placement.Plan{old.Plan, next.Plan, &partial} {
		for _, g := range groups {
			if got, want := hostsOf(plan, g.progs), hostsOfRef(plan, g.progs); !slices.Equal(got, want) {
				t.Fatalf("group %s: hostsOf = %v, name-keyed %v", g.id, got, want)
			}
			for _, p := range g.progs {
				if byProg[p] != g {
					t.Fatalf("program %s indexed to group %s, member of %s", p, byProg[p].id, g.id)
				}
				if got, want := servedBy(plan, p), servedByRef(plan, p); got != want {
					t.Fatalf("servedBy(%s) = %v, name-keyed %v", p, got, want)
				}
			}
		}
		if servedBy(plan, "no-such-program") {
			t.Fatal("a plan serves a program it does not carry")
		}
	}
}
