package placement

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/workload"
)

func TestParallelFor(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		var hits [37]atomic.Int32
		parallelFor(len(hits), workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
	parallelFor(0, 4, func(int) { t.Fatal("fn called for n=0") })
}

// samePlan fails the test unless the two plans agree on every
// assignment, every route, and the headline objective.
func samePlan(t *testing.T, label string, a, b *Plan) {
	t.Helper()
	if a.AMax() != b.AMax() {
		t.Errorf("%s: A_max %d vs %d", label, a.AMax(), b.AMax())
	}
	if len(a.Assignments) != len(b.Assignments) {
		t.Fatalf("%s: %d vs %d assignments", label, len(a.Assignments), len(b.Assignments))
	}
	for name, sa := range a.Assignments {
		sb, ok := b.Assignments[name]
		if !ok || sa.Switch != sb.Switch || sa.Start != sb.Start || sa.End != sb.End {
			t.Errorf("%s: assignment %s differs: %+v vs %+v", label, name, sa, sb)
		}
	}
	if len(a.Routes) != len(b.Routes) {
		t.Fatalf("%s: %d vs %d routes", label, len(a.Routes), len(b.Routes))
	}
	for key, ra := range a.Routes {
		rb, ok := b.Routes[key]
		if !ok || len(ra.Switches) != len(rb.Switches) {
			t.Errorf("%s: route %v differs: %v vs %v", label, key, ra.Switches, rb.Switches)
			continue
		}
		for i := range ra.Switches {
			if ra.Switches[i] != rb.Switches[i] {
				t.Errorf("%s: route %v hop %d: %d vs %d", label, key, i, ra.Switches[i], rb.Switches[i])
			}
		}
	}
}

// TestGreedyParallelMatchesSerial checks the headline determinism
// guarantee: the same bundle solved with Workers=1 and Workers=8 on
// three Table III WANs yields identical plans.
func TestGreedyParallelMatchesSerial(t *testing.T) {
	progs, err := workload.EvaluationPrograms(15, 1)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := analyzer.Analyze(progs, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, topoIdx := range []int{1, 2, 3} {
		tp, err := network.TableIII(topoIdx, network.TofinoSpec())
		if err != nil {
			t.Fatal(err)
		}
		serial, err := (Greedy{}).Solve(merged, tp, Options{Workers: 1})
		if err != nil {
			t.Fatalf("topology %d serial: %v", topoIdx, err)
		}
		parallel, err := (Greedy{}).Solve(merged, tp, Options{Workers: 8})
		if err != nil {
			t.Fatalf("topology %d parallel: %v", topoIdx, err)
		}
		samePlan(t, tp.Name, serial, parallel)
	}
}

// TestExactParallelMatchesSerial checks that the parallel branch
// search reproduces the serial optimum bit for bit on an uncapped run.
func TestExactParallelMatchesSerial(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f", "g"}
	bytes := []int{3, 1, 4, 1, 5, 9}
	g := chainTDG(t, names, bytes, 0.5)
	tp := twoMATSwitchTopo(t, 6)
	serial, err := (Exact{}).Solve(g, tp, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := (Exact{}).Solve(g, tp, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Proven || !parallel.Proven {
		t.Fatalf("proven = %v/%v, want both true", serial.Proven, parallel.Proven)
	}
	samePlan(t, "exact", serial, parallel)
}

// TestGreedyDeadlineCutsImprovement: Options.Deadline is the only
// clock that bounds the local search, so a deadline 50 ms out must stop
// the solve promptly and still return a valid plan.
func TestGreedyDeadlineCutsImprovement(t *testing.T) {
	progs, err := workload.EvaluationPrograms(20, 1)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := analyzer.Analyze(progs, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := network.TableIII(2, network.TofinoSpec())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	plan, err := (Greedy{}).Solve(merged, tp, Options{Deadline: time.Now().Add(50 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	// The generous margin keeps slow CI machines from flaking.
	if elapsed := time.Since(start); elapsed > 1500*time.Millisecond {
		t.Fatalf("Solve took %v with a 50ms deadline", elapsed)
	}
	if err := plan.Validate(program.DefaultResourceModel, 0, 0); err != nil {
		t.Fatal(err)
	}
}

// TestPackMemoConsistency checks that the memoized PackStages returns
// independent maps that match a cold computation.
func TestPackMemoConsistency(t *testing.T) {
	names := []string{"a", "b"}
	bytes := []int{3}
	g := chainTDG(t, names, bytes, 0.4)
	tp := twoMATSwitchTopo(t, 4)
	sw, err := tp.Switch(0)
	if err != nil {
		t.Fatal(err)
	}
	rm := program.DefaultResourceModel
	first, err := PackStages(g, names, sw, rm)
	if err != nil {
		t.Fatal(err)
	}
	second, err := PackStages(g, names, sw, rm)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(second) {
		t.Fatalf("memoized pack differs in size: %d vs %d", len(first), len(second))
	}
	for name, a := range first {
		if b := second[name]; a.Switch != b.Switch || a.Start != b.Start || a.End != b.End {
			t.Errorf("memoized pack differs for %s: %+v vs %+v", name, a, b)
		}
	}
	// The two calls must not alias: corrupting one result map must not
	// leak into a third call.
	for name := range first {
		first[name] = StagePlacement{Switch: 99}
		break
	}
	third, err := PackStages(g, names, sw, rm)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range third {
		if b := second[name]; c.Switch != b.Switch || c.Start != b.Start || c.End != b.End {
			t.Errorf("cache aliased caller map for %s: %+v vs %+v", name, c, b)
		}
	}
}
