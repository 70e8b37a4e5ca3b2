package rollout

import (
	"fmt"
	"sort"
	"testing"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/workload"
)

// fingerprintPairs are fixed old→new transitions: one program on the
// 3-switch ring drained around its count MAT, the paper's evaluation
// point (EvaluationPrograms(30, 1) on Table III WAN 1) drained on its
// busiest switch, and a transition whose plans hold different MAT sets
// (p1 is withdrawn, p3 is fresh).
func fingerprintPairs(t *testing.T) map[string][2]*deploy.Deployment {
	t.Helper()
	pairs := map[string][2]*deploy.Deployment{}

	ring, _ := fixture(t, 1, 3)
	ringNext, _ := drained(t, ring, "p1")
	pairs["ring3"] = [2]*deploy.Deployment{ring, ringNext}

	progs, err := workload.EvaluationPrograms(30, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := analyzer.Analyze(progs, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	topo, err := network.TableIII(1, network.TofinoSpec())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := (placement.Greedy{}).Solve(g, topo, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wan, err := deploy.Compile(plan, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	load := map[network.SwitchID]int{}
	for _, sp := range plan.Assignments {
		load[sp.Switch]++
	}
	busiest := plan.UsedSwitches()
	sort.SliceStable(busiest, func(i, j int) bool { return load[busiest[i]] > load[busiest[j]] })
	wanNext, _, err := deploy.Redeploy(wan, nil, placement.ReplanOptions{}, busiest[0])
	if err != nil {
		t.Fatal(err)
	}
	pairs["eval30-drain"] = [2]*deploy.Deployment{wan, wanNext}

	three, _ := fixture(t, 3, 6)
	pairs["withdraw"] = [2]*deploy.Deployment{three, ringNext}
	return pairs
}

// TestFingerprintGolden pins the journal fingerprint's values: a
// journal written before any change to fingerprint must still resume
// after it. A changed value here orphans every journal on disk.
func TestFingerprintGolden(t *testing.T) {
	want := map[string]uint64{
		"ring3 1>2":        0xa0a8b640c38e1912,
		"ring3 7>8":        0x6c50c240a5cd6df6,
		"eval30-drain 1>2": 0x5b4205b2341f01a1,
		"withdraw 1>2":     0x3f6ac6bdadd3dcd5,
	}
	pairs := fingerprintPairs(t)
	for key, fp := range want {
		var name string
		var from, to uint64
		if _, err := fmt.Sscanf(key, "%s %d>%d", &name, &from, &to); err != nil {
			t.Fatal(err)
		}
		p := pairs[name]
		if got := fingerprint(p[0], p[1], from, to); got != fp {
			t.Errorf("fingerprint(%s) = %#016x, want %#016x", key, got, fp)
		}
	}
}

// fingerprintRef is fingerprint as it hashed before the name order came
// from the graph's index: every plan's names collected and sorted.
func fingerprintRef(old, next *deploy.Deployment, from, to uint64) uint64 {
	h := uint64(1469598103934665603)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	for i, p := range []*placement.Plan{old.Plan, next.Plan} {
		mix([]string{"old", "new"}[i])
		names := make([]string, 0, len(p.Assignments))
		for name := range p.Assignments {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			sp := p.Assignments[name]
			mix(fmt.Sprintf("%s@%d:%d;", name, sp.Switch, sp.Start))
		}
	}
	mix(fmt.Sprintf("|%d>%d", from, to))
	return h
}

// TestFingerprintMatchesSortedReference holds fingerprint to the
// sorting reference on every golden pair and on plans whose MAT set is
// not their graph's node set: one MAT unplaced, and one name the graph
// does not hold.
func TestFingerprintMatchesSortedReference(t *testing.T) {
	pairs := fingerprintPairs(t)
	wan, wanNext := pairs["eval30-drain"][0], pairs["eval30-drain"][1]
	edited := func(edit func(map[string]placement.StagePlacement)) *deploy.Deployment {
		p := *wanNext.Plan
		p.Assignments = make(map[string]placement.StagePlacement, len(wanNext.Plan.Assignments))
		for name, sp := range wanNext.Plan.Assignments {
			p.Assignments[name] = sp
		}
		edit(p.Assignments)
		p.InvalidateCache()
		return &deploy.Deployment{Plan: &p}
	}
	first := wan.Plan.Graph.NodeNames()[0]
	pairs["unplaced"] = [2]*deploy.Deployment{wan, edited(func(as map[string]placement.StagePlacement) { delete(as, first) })}
	pairs["foreign"] = [2]*deploy.Deployment{wan, edited(func(as map[string]placement.StagePlacement) {
		sp := as[first]
		delete(as, first)
		as["zz-not-in-graph"] = sp
	})}
	for name, p := range pairs {
		for _, ep := range [][2]uint64{{1, 2}, {7, 8}} {
			if got, want := fingerprint(p[0], p[1], ep[0], ep[1]), fingerprintRef(p[0], p[1], ep[0], ep[1]); got != want {
				t.Errorf("fingerprint(%s %d>%d) = %#016x, sorted reference %#016x", name, ep[0], ep[1], got, want)
			}
			if got, want := fingerprint(p[1], p[0], ep[0], ep[1]), fingerprintRef(p[1], p[0], ep[0], ep[1]); got != want {
				t.Errorf("fingerprint(%s reversed %d>%d) = %#016x, sorted reference %#016x", name, ep[0], ep[1], got, want)
			}
		}
	}
}

// recordedJournal is an eval30-drain rollout interrupted at its second
// commit, as the engine wrote it before fingerprint stopped formatting
// strings.
const recordedJournal = `rollout from=1 to=2 fingerprint=5b4205b2341f01a1
0 prepare sw=3 epoch=2 done attempts=1
1 prepare sw=4 epoch=2 done attempts=1
2 prepare sw=6 epoch=2 done attempts=1
3 prepare sw=16 epoch=2 done attempts=1
4 prepare sw=19 epoch=2 done attempts=1
5 prepare sw=20 epoch=2 done attempts=1
6 prepare sw=39 epoch=2 done attempts=1
7 prepare sw=46 epoch=2 done attempts=1
8 prepare sw=49 epoch=2 done attempts=1
9 prepare sw=59 epoch=2 done attempts=1
10 commit "acl" epoch=2 done attempts=1
11 commit "cmsketch" epoch=2 pending attempts=1
`

// TestRecordedJournalResumes replays a journal recorded by the
// string-formatting fingerprint onto a fresh fabric and finishes the
// rollout from it.
func TestRecordedJournalResumes(t *testing.T) {
	p := fingerprintPairs(t)["eval30-drain"]
	j, err := ParseJournal(recordedJournal)
	if err != nil {
		t.Fatal(err)
	}
	fab := NewMemFabric(p[1].Plan.Topo)
	fab.Replay(j, p[0])
	r, err := New(p[0], p[1], Options{Topo: p[1].Plan.Topo, Fabric: fab, Journal: j, Retry: quickRetry()})
	if err != nil {
		t.Fatalf("recorded journal no longer resumes: %v", err)
	}
	rep, err := r.Execute()
	if err != nil || rep.Outcome != OutcomeCommitted || !rep.Resumed {
		t.Fatalf("resume = %v, %v (resumed=%v), want committed", rep.Outcome, err, rep.Resumed)
	}
}

// unchangedRef is the count countUnchanged kept before its one-pass
// form: per-switch name→window maps compared map against map. It looks
// a missing name up as the zero window, so a MAT new to switch 0 in
// stage window [0,0] compared equal to nothing; the reference skips
// names the old switch lacks to count what the doc comment says.
func unchangedRef(old, next *deploy.Deployment) int {
	type slot struct {
		sw         network.SwitchID
		start, end int
	}
	byHost := func(as map[string]placement.StagePlacement) map[network.SwitchID]map[string]slot {
		out := map[network.SwitchID]map[string]slot{}
		for name, sp := range as {
			if out[sp.Switch] == nil {
				out[sp.Switch] = map[string]slot{}
			}
			out[sp.Switch][name] = slot{sp.Switch, sp.Start, sp.End}
		}
		return out
	}
	oldAt, newAt := byHost(old.Plan.Assignments), byHost(next.Plan.Assignments)
	n := 0
	for sw, nm := range newAt {
		om := oldAt[sw]
		if len(om) != len(nm) {
			continue
		}
		same := true
		for name, s := range nm {
			if o, ok := om[name]; !ok || o != s {
				same = false
				break
			}
		}
		if same {
			n++
		}
	}
	return n
}

func TestCountUnchangedMatchesReference(t *testing.T) {
	pairs := fingerprintPairs(t)
	// Switch 0 trades a MAT for another in the same [0,0] window: the
	// counts match, the footprint does not.
	ring := pairs["ring3"][0]
	swapped := *ring.Plan
	swapped.Assignments = map[string]placement.StagePlacement{}
	for name, sp := range ring.Plan.Assignments {
		swapped.Assignments[name] = sp
	}
	for name, sp := range swapped.Assignments {
		if sp.Switch == 0 {
			delete(swapped.Assignments, name)
			sp.Start, sp.End = 0, 0
			swapped.Assignments["other"] = sp
			break
		}
	}
	swapped.InvalidateCache()
	pairs["swapped-on-0"] = [2]*deploy.Deployment{ring, {Plan: &swapped}}
	unchanged := func(old, next *deploy.Deployment) int {
		r := &Rollout{old: old, next: next}
		r.countUnchanged()
		return r.unchanged
	}
	for name, p := range pairs {
		for _, dir := range [][2]*deploy.Deployment{p, {p[1], p[0]}} {
			if got, want := unchanged(dir[0], dir[1]), unchangedRef(dir[0], dir[1]); got != want {
				t.Errorf("%s: countUnchanged = %d, reference %d", name, got, want)
			}
		}
		if got, want := unchanged(p[0], p[0]), len(p[0].Plan.UsedSwitches()); got != want {
			t.Errorf("%s: a plan against itself leaves %d of %d switches unchanged", name, got, want)
		}
	}
	if got, all := unchanged(ring, &deploy.Deployment{Plan: &swapped}), len(ring.Plan.UsedSwitches()); got != all-1 {
		t.Errorf("swapping a MAT on switch 0 leaves %d of %d switches unchanged, want %d", got, all, all-1)
	}
}

// Replay reconstructs fabric state from a journal after a process
// crash: bootstrap the old deployment at the journal's from-epoch,
// then re-apply every done switch op in order. Because ops are
// idempotent, replaying over surviving state is also safe.
func (f *MemFabric) Replay(j *Journal, old *deploy.Deployment) {
	if j == nil {
		return
	}
	f.Bootstrap(old, j.From)
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, e := range j.Entries {
		if e.Status != StatusDone {
			continue
		}
		switch e.Kind {
		case OpPrepare:
			f.install(e.Switch, e.Epoch)
		case OpRetire, OpAbort:
			delete(f.installed[e.Switch], e.Epoch)
		}
	}
}
