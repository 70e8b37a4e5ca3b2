package shard

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/lint"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
	"github.com/hermes-net/hermes/internal/workload"
)

// qualityRatio is the acceptance gate: a sharded plan's A_max may
// exceed the whole-graph Greedy plan's by at most this factor. The
// gate is fixed (not tuned per topology) so quality regressions in the
// partitioner or the reconcile fail loudly.
const qualityRatio = 1.5

// sharedTestInstance builds a merged TDG over a topology from the
// paper's synthetic workload.
func sharedTestInstance(t *testing.T, topo *network.Topology, programs int, seed int64) *tdg.Graph {
	t.Helper()
	progs, err := workload.SyntheticSet(programs, workload.PaperSyntheticSpec(), seed)
	if err != nil {
		t.Fatalf("SyntheticSet: %v", err)
	}
	g, err := analyzer.Analyze(progs, analyzer.Options{})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return g
}

// solveBoth runs the whole-graph Greedy and the sharded solver on the
// same instance and returns both plans plus the shard stats.
func solveBoth(t *testing.T, g *tdg.Graph, topo *network.Topology, shards int, opts placement.Options) (*placement.Plan, *placement.Plan, Stats) {
	t.Helper()
	whole, err := (placement.Greedy{}).Solve(g, topo, opts)
	if err != nil {
		t.Fatalf("whole-graph Greedy: %v", err)
	}
	opts.Shards = shards
	sharded, st, err := ShardedGreedy{Seed: 42}.SolveStats(g, topo, opts)
	if err != nil {
		t.Fatalf("ShardedGreedy (k=%d): %v", shards, err)
	}
	return whole, sharded, st
}

// TestShardedQualityGate is the satellite acceptance test: on the
// Table III WANs with 2-4 shards, the sharded plan must validate, pass
// the independent lint oracle, and stay within the fixed quality ratio
// of the whole-graph Greedy A_max.
func TestShardedQualityGate(t *testing.T) {
	rm := program.DefaultResourceModel
	for wan := 1; wan <= 3; wan++ {
		topo, err := network.TableIII(wan, network.TofinoSpec())
		if err != nil {
			t.Fatalf("TableIII(%d): %v", wan, err)
		}
		g := sharedTestInstance(t, topo, 12, 1000+int64(wan))
		for _, k := range []int{2, 3, 4} {
			t.Run(fmt.Sprintf("%s/k=%d", topo.Name, k), func(t *testing.T) {
				whole, sharded, st := solveBoth(t, g, topo, k, placement.Options{})
				if st.FellBack {
					t.Fatalf("sharded solve fell back to whole-graph on %d switches", topo.NumSwitches())
				}
				if err := sharded.Validate(rm, 0, 0); err != nil {
					t.Fatalf("sharded plan invalid: %v", err)
				}
				if err := lint.CheckPlanOracle(sharded, rm, 0, 0); err != nil {
					t.Fatalf("lint oracle rejected sharded plan: %v", err)
				}
				w, s := whole.AMax(), sharded.AMax()
				if float64(s) > float64(w)*qualityRatio {
					t.Fatalf("quality gate: sharded A_max %d vs whole-graph %d exceeds ratio %.2f",
						s, w, qualityRatio)
				}
				if st.AMaxAfter > st.AMaxBefore {
					t.Fatalf("reconcile worsened A_max: %d -> %d", st.AMaxBefore, st.AMaxAfter)
				}
			})
		}
	}
}

// assignmentOf flattens a plan to its MAT->switch map for comparison.
func assignmentOf(p *placement.Plan) map[string]network.SwitchID {
	out := make(map[string]network.SwitchID, len(p.Assignments))
	for name, sp := range p.Assignments {
		out[name] = sp.Switch
	}
	return out
}

func sameAssignment(a, b map[string]network.SwitchID) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestShardedWorkersInvariance is the nested-parallelism satellite:
// every Workers value must produce the identical plan (region solves
// run with Workers=1 inside the shard pool), and the solve must not
// fan out more goroutines than the shard pool allows.
func TestShardedWorkersInvariance(t *testing.T) {
	topo, err := network.CompositeWAN(4, network.TofinoSpec(), 11)
	if err != nil {
		t.Fatal(err)
	}
	g := sharedTestInstance(t, topo, 16, 7)
	s := ShardedGreedy{Seed: 42}

	base, _, err := s.SolveStats(g, topo, placement.Options{Workers: 1, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := assignmentOf(base)

	for _, w := range []int{2, 4, 8} {
		// Sample the goroutine count while the solve runs: with serial
		// region interiors the fan-out stays bounded by the shard pool
		// width plus harness overhead, instead of Workers * inner-Workers.
		before := runtime.NumGoroutine()
		done := make(chan struct{})
		peakCh := make(chan int, 1)
		go func() {
			peak := before
			tick := time.NewTicker(200 * time.Microsecond)
			defer tick.Stop()
			for {
				select {
				case <-done:
					peakCh <- peak
					return
				case <-tick.C:
					if n := runtime.NumGoroutine(); n > peak {
						peak = n
					}
				}
			}
		}()
		p, _, err := s.SolveStats(g, topo, placement.Options{Workers: w, Shards: 4})
		close(done)
		peak := <-peakCh
		if err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
		if !sameAssignment(want, assignmentOf(p)) {
			t.Fatalf("Workers=%d produced a different plan than Workers=1", w)
		}
		// Bound: sampler + shard pool + per-region solver overhead
		// (deadline pollers etc.). Without the Workers=1 pinning each of
		// the 4 regions would spawn w workers of its own, blowing well
		// past this.
		limit := before + w + 4*4 + 8
		if peak > limit {
			t.Fatalf("Workers=%d: goroutine peak %d exceeds bound %d (nested parallelism?)",
				w, peak, limit)
		}
	}
}

// TestShardedDeterministic: same seed, same plan, byte-identical
// partition and assignment across repeated solves.
func TestShardedDeterministic(t *testing.T) {
	topo, err := network.CompositeWAN(3, network.TofinoSpec(), 5)
	if err != nil {
		t.Fatal(err)
	}
	g := sharedTestInstance(t, topo, 10, 3)
	s := ShardedGreedy{Seed: 9}
	a, _, err := s.SolveStats(g, topo, placement.Options{Workers: 4, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := s.SolveStats(g, topo, placement.Options{Workers: 2, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !sameAssignment(assignmentOf(a), assignmentOf(b)) {
		t.Fatal("repeated sharded solves diverged")
	}
}

// TestShardedFallback: degenerate shard counts and tiny instances fall
// back to the whole-graph solver and report it in the stats.
func TestShardedFallback(t *testing.T) {
	topo, err := network.TableIII(1, network.TofinoSpec())
	if err != nil {
		t.Fatal(err)
	}
	g := sharedTestInstance(t, topo, 4, 1)
	for _, k := range []int{0, 1, 1000} {
		p, st, err := (ShardedGreedy{}).SolveStats(g, topo, placement.Options{Shards: k})
		if err != nil {
			t.Fatalf("Shards=%d: %v", k, err)
		}
		if !st.FellBack {
			t.Fatalf("Shards=%d: expected fallback", k)
		}
		if p.SolverName != (ShardedGreedy{}).Name() {
			t.Fatalf("fallback plan reports solver %q", p.SolverName)
		}
		if err := p.Validate(program.DefaultResourceModel, 0, 0); err != nil {
			t.Fatalf("fallback plan invalid: %v", err)
		}
	}
}

// TestShardedHonorsOptionsShards: Options.Shards is the region count,
// the facade contract the CLI relies on.
func TestShardedHonorsOptionsShards(t *testing.T) {
	topo, err := network.CompositeWAN(3, network.TofinoSpec(), 5)
	if err != nil {
		t.Fatal(err)
	}
	g := sharedTestInstance(t, topo, 8, 2)
	_, st, err := (ShardedGreedy{Seed: 9}).SolveStats(g, topo, placement.Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.FellBack || st.Shards != 3 {
		t.Fatalf("Options.Shards not honored: %+v", st)
	}
}

// TestShardedBeatsTrivialBaseline sanity-checks the end-to-end path on
// a mid-size composite WAN: the sharded solver completes, uses more
// than one region, and its stats are internally consistent.
func TestShardedEndToEndStats(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-size instance")
	}
	topo, err := network.CompositeWAN(6, network.TofinoSpec(), 13)
	if err != nil {
		t.Fatal(err)
	}
	g := sharedTestInstance(t, topo, 24, 17)
	s := ShardedGreedy{Seed: 1}
	p, st, err := s.SolveStats(g, topo, placement.Options{Workers: 4, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.FellBack || st.Shards != 4 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	if st.Hosts <= 0 || st.AMaxBefore < st.AMaxAfter {
		t.Fatalf("inconsistent reconcile stats: %+v", st)
	}
	if p.AMax() != st.AMaxAfter {
		t.Fatalf("plan A_max %d != reconcile A_max %d", p.AMax(), st.AMaxAfter)
	}
	if err := p.Validate(program.DefaultResourceModel, 0, 0); err != nil {
		t.Fatal(err)
	}
	used := p.UsedSwitches()
	sort.Slice(used, func(i, j int) bool { return used[i] < used[j] })
	if len(used) == 0 {
		t.Fatal("no switches used")
	}
}
