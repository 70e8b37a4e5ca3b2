package hermes_test

import (
	"runtime"
	"sync"
	"testing"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/equiv"
	"github.com/hermes-net/hermes/internal/lint"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/racetest"
	"github.com/hermes-net/hermes/internal/tdg"
	"github.com/hermes-net/hermes/internal/workload"
)

// gateFixture analyzes the paper's evaluation point (30 programs on
// Table III WAN 1) afresh and compiles its Greedy plan.
func gateFixture(t *testing.T) ([]*program.Program, *tdg.Graph, *deploy.Deployment) {
	t.Helper()
	topo, err := network.TableIII(1, network.TofinoSpec())
	if err != nil {
		t.Fatal(err)
	}
	progs, err := workload.EvaluationPrograms(30, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := analyzer.Analyze(progs, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := (placement.Greedy{}).Solve(g, topo, placement.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := deploy.Compile(plan, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return progs, g, dep
}

// TestGateAllocationCeiling pins what the two graph gates allocate cold,
// in hermes.Deploy's order: LintGraph on a freshly analyzed graph, then
// CheckDeployment of its compiled Greedy plan, on 30 programs over
// Table III WAN 1. Both read the graph's tdg.Index: lint builds the
// field table, the proof's compile reuses it. 1,554 allocations, most of
// them the proof's diagnostic pass explaining the corpus's benign
// shuffles (HE010); 4,830 when lint built two name-keyed maps per MAT
// and the compile interned the fields into maps of its own. The ceiling
// is the measured count plus 3 %. Allocation counts mean nothing under
// the race detector.
func TestGateAllocationCeiling(t *testing.T) {
	if racetest.Enabled() {
		t.Skip("allocation ceilings do not hold under the race detector")
	}
	progs, _, dep := gateFixture(t)
	var total uint64
	const runs = 3
	for i := 0; i < runs; i++ {
		g, err := analyzer.Analyze(progs, analyzer.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := lint.LintGraph(g, lint.Options{}).Err(); err != nil {
			t.Fatal(err)
		}
		if err := equiv.CheckDeployment(g, dep); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		total += after.Mallocs - before.Mallocs
	}
	allocs := total / runs
	t.Logf("cold LintGraph + CheckDeployment on wan30: %d allocs", allocs)
	const ceiling = 1_601
	if allocs > ceiling {
		t.Fatalf("cold gates on wan30 allocate %d times, ceiling %d", allocs, ceiling)
	}
}

// TestConcurrentGatesOnFreshGraph gates one freshly analyzed graph from
// eight goroutines at once: each lints it and proves a deployment
// against it, so the graph's index, its lazily built field table and
// the proof's compile are all first built under contention. Run under
// -race (make race) it shows the lazy builds race-free; every
// goroutine must also see the same verdicts.
func TestConcurrentGatesOnFreshGraph(t *testing.T) {
	progs, _, dep := gateFixture(t)
	g, err := analyzer.Analyze(progs, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	findings := make([]int, goroutines)
	errs := make([]error, goroutines)
	start := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			fs := lint.LintGraph(g, lint.Options{})
			findings[i] = len(fs)
			if err := fs.Err(); err != nil {
				errs[i] = err
				return
			}
			errs[i] = equiv.CheckDeployment(g, dep)
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if findings[i] != findings[0] {
			t.Fatalf("goroutine %d saw %d lint findings, goroutine 0 saw %d", i, findings[i], findings[0])
		}
	}
}
