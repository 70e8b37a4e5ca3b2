// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus micro-benchmarks of the load-bearing components.
// One benchmark per artifact:
//
//	Table I    -> BenchmarkTableIMetadataCatalog
//	Table III  -> BenchmarkTableIIITopologies
//	Figure 2   -> BenchmarkFig2OverheadImpact
//	Figure 5   -> BenchmarkExp1Testbed
//	Figure 6   -> BenchmarkExp2Overhead
//	Figure 7   -> BenchmarkExp3ExecTime
//	Figure 8   -> BenchmarkExp4EndToEnd
//	Figure 9   -> BenchmarkExp5Scalability
//	Exp#6      -> BenchmarkExp6Resources
//	Exp#7      -> BenchmarkExp7Replan
//
// The experiment benchmarks run the heuristic comparison lineup (the
// genuinely ILP-backed frameworks are exercised by cmd/hermes-bench,
// where multi-minute runtimes are expected); each reports the headline
// metric of its figure as a custom unit so `go test -bench` output
// documents the reproduced numbers.
package hermes_test

import (
	"fmt"
	"testing"
	"time"

	hermes "github.com/hermes-net/hermes"
	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/experiments"
	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/workload"
)

// benchConfig keeps the in-tree benchmarks laptop-sized. Workers is
// pinned above GOMAXPROCS so the experiment sweeps overlap their
// deadline-capped solver cells even on single-core runners; the rows
// are identical either way.
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.IncludeILPFrameworks = false
	cfg.SolverDeadline = time.Second
	cfg.Workers = 8
	return cfg
}

// BenchmarkTableIMetadataCatalog regenerates Table I: the metadata
// catalog with its per-switch sizes.
func BenchmarkTableIMetadataCatalog(b *testing.B) {
	b.ReportAllocs()
	var total int
	for i := 0; i < b.N; i++ {
		cat := fields.Catalog()
		total = 0
		for _, name := range []string{
			fields.MetaSwitchID, fields.MetaQueueLen,
			fields.MetaTimestamp, fields.MetaCounterIndex,
		} {
			f, ok := cat.Get(name)
			if !ok {
				b.Fatalf("catalog missing %s", name)
			}
			total += f.Bytes()
		}
	}
	if total != 26 { // 4 + 6 + 12 + 4
		b.Fatalf("Table I sizes sum to %d, want 26", total)
	}
	b.ReportMetric(float64(total), "tableI-bytes")
}

// BenchmarkTableIIITopologies regenerates the ten WAN topologies of
// Table III.
func BenchmarkTableIIITopologies(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for t := 1; t <= network.NumTableIII(); t++ {
			tp, err := network.TableIII(t, network.TofinoSpec())
			if err != nil {
				b.Fatal(err)
			}
			if err := tp.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig2OverheadImpact regenerates Figure 2's series.
func BenchmarkFig2OverheadImpact(b *testing.B) {
	b.ReportAllocs()
	var worst float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, p := range pts {
			if p.FCTIncrease > worst {
				worst = p.FCTIncrease
			}
		}
	}
	b.ReportMetric(worst*100, "worst-fct-increase-%")
}

// BenchmarkExp1Testbed regenerates Figure 5: the testbed comparison.
func BenchmarkExp1Testbed(b *testing.B) {
	b.ReportAllocs()
	var gap int
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Exp1(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		gap = overheadGap(rows[len(rows)-1].Results)
	}
	b.ReportMetric(float64(gap), "testbed-overhead-reduction-B")
}

// BenchmarkExp2Overhead regenerates Figure 6 on the first Table III
// topology (the full ten-topology sweep lives in cmd/hermes-bench).
func BenchmarkExp2Overhead(b *testing.B) {
	b.ReportAllocs()
	var gap int
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Exp2(benchConfig(), 50)
		if err != nil {
			b.Fatal(err)
		}
		gap = overheadGap(rows[0].Results)
	}
	b.ReportMetric(float64(gap), "sim-overhead-reduction-B")
}

// BenchmarkExp3ExecTime regenerates Figure 7's solver-time comparison
// on one simulated instance: the Hermes heuristic itself is the unit
// under measurement.
func BenchmarkExp3ExecTime(b *testing.B) {
	b.ReportAllocs()
	progs, err := workload.EvaluationPrograms(50, 1)
	if err != nil {
		b.Fatal(err)
	}
	merged, err := hermes.Analyze(progs, hermes.AnalyzeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	topo, err := network.TableIII(10, network.TofinoSpec())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (placement.Greedy{}).Solve(merged, topo, placement.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExp4EndToEnd regenerates Figure 8: the end-to-end penalty of
// each framework's overhead at 1024-byte packets.
func BenchmarkExp4EndToEnd(b *testing.B) {
	b.ReportAllocs()
	flow := hermes.DefaultFlow(1024)
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, overhead := range []int{0, 43, 65, 124, 136} { // measured Exp#2 headers
			imp, err := flow.ImpactOf(overhead)
			if err != nil {
				b.Fatal(err)
			}
			if imp.FCTIncrease > worst {
				worst = imp.FCTIncrease
			}
		}
	}
	b.ReportMetric(worst*100, "worst-baseline-fct-%")
}

// BenchmarkExp5Scalability regenerates Figure 9's 10..50-program sweep
// on topology 10.
func BenchmarkExp5Scalability(b *testing.B) {
	b.ReportAllocs()
	var gap int
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Exp5(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		gap = overheadGap(rows[len(rows)-1].Results)
	}
	b.ReportMetric(float64(gap), "50prog-overhead-reduction-B")
}

// BenchmarkExp6Resources regenerates the resource-consumption study.
func BenchmarkExp6Resources(b *testing.B) {
	b.ReportAllocs()
	var extra float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Exp6(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		extra = res.HermesExtra
	}
	b.ReportMetric(extra, "hermes-extra-stage-units")
}

// BenchmarkExp7Replan regenerates the churn study: incremental
// replanning after a single-switch drain, reporting the 50-program
// speedup of the delta repair over the from-scratch solve.
func BenchmarkExp7Replan(b *testing.B) {
	b.ReportAllocs()
	var speedup float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Exp7(benchConfig(), 50)
		if err != nil {
			b.Fatal(err)
		}
		speedup = pts[len(pts)-1].Speedup
	}
	b.ReportMetric(speedup, "50prog-replan-speedup-x")
}

// overheadGap returns worstBaseline - hermes header bytes.
func overheadGap(results []experiments.SolverResult) int {
	hermesBytes := 0
	worst := 0
	for _, r := range results {
		if r.Err != "" {
			continue
		}
		if r.Solver == "Hermes" {
			hermesBytes = r.HeaderBytes
			continue
		}
		if r.HeaderBytes > worst {
			worst = r.HeaderBytes
		}
	}
	return worst - hermesBytes
}

// --- micro-benchmarks of the load-bearing components ---

// BenchmarkAnalyzer measures Algorithm 1 on the 50-program workload.
func BenchmarkAnalyzer(b *testing.B) {
	b.ReportAllocs()
	progs, err := workload.EvaluationPrograms(50, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hermes.Analyze(progs, hermes.AnalyzeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedySmall measures Algorithm 2 on the testbed instance.
func BenchmarkGreedySmall(b *testing.B) {
	b.ReportAllocs()
	progs := workload.RealPrograms()
	merged, err := hermes.Analyze(progs, hermes.AnalyzeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	spec := network.TestbedSpec()
	spec.StageCapacity = 0.15
	topo, err := network.Linear(3, spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (placement.Greedy{}).Solve(merged, topo, placement.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelSpeedup measures the greedy solver at increasing
// worker counts on a mid-size WAN instance. Every worker count
// produces the identical plan; only wall-clock changes, so the ratio
// of the workers=1 and workers=N lines is the solver's parallel
// speedup on this machine.
func BenchmarkParallelSpeedup(b *testing.B) {
	b.ReportAllocs()
	progs, err := workload.EvaluationPrograms(30, 1)
	if err != nil {
		b.Fatal(err)
	}
	merged, err := hermes.Analyze(progs, hermes.AnalyzeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	topo, err := network.TableIII(5, network.TofinoSpec())
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := (placement.Greedy{}).Solve(merged, topo, placement.Options{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExactSmall measures the branch & bound on the Figure 1
// instance.
func BenchmarkExactSmall(b *testing.B) {
	b.ReportAllocs()
	progs := workload.RealPrograms()[:4]
	merged, err := hermes.Analyze(progs, hermes.AnalyzeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	spec := network.TestbedSpec()
	spec.StageCapacity = 0.15
	topo, err := network.Linear(3, spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (placement.Exact{}).Solve(merged, topo, placement.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataplaneThroughput measures packets/second through a
// three-switch deployed pipeline.
func BenchmarkDataplaneThroughput(b *testing.B) {
	b.ReportAllocs()
	progs := workload.RealPrograms()[:6]
	spec := network.TestbedSpec()
	spec.StageCapacity = 0.15
	topo, err := network.Linear(3, spec)
	if err != nil {
		b.Fatal(err)
	}
	res, err := hermes.Deploy(progsAlias(progs), topo, hermes.DeployOptions{})
	if err != nil {
		b.Fatal(err)
	}
	eng, err := hermes.NewEngine(res.Deployment)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := &hermes.Packet{Headers: map[string]uint64{
			"ipv4.srcAddr": uint64(i % 64), "ipv4.dstAddr": uint64(i % 16),
			"tcp.srcPort": uint64(i % 512), "tcp.dstPort": 80,
			"ipv4.ttl": 64,
		}}
		if _, err := eng.Process(pkt); err != nil {
			b.Fatal(err)
		}
	}
}

func progsAlias(ps []*hermes.Program) []*hermes.Program { return ps }

// BenchmarkKShortestPaths measures Yen's algorithm on a Table III WAN.
func BenchmarkKShortestPaths(b *testing.B) {
	b.ReportAllocs()
	tp, err := network.TableIII(1, network.TofinoSpec())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tp.KShortestPaths(0, network.SwitchID(tp.NumSwitches()-1), 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMergeFiftyPrograms measures SPEED-style TDG merging.
func BenchmarkMergeFiftyPrograms(b *testing.B) {
	b.ReportAllocs()
	progs, err := workload.EvaluationPrograms(50, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hermes.Analyze(progs, hermes.AnalyzeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEquivGateHook measures the equivalence proof where
// production pays for it — through placement.PlanEquivHook and
// deploy.EquivHook, which draw a pooled Checker per call — on the
// composite:60 instance (4,218 switches, 200 synthetic programs, 16
// shards). cold is the first proof on a graph, which compiles the
// reference overlay and builds the Checker (what every gated Deploy
// pays, since it analyzes a fresh graph); warm is every later proof on
// that graph (a heal's three proofs).
func BenchmarkEquivGateHook(b *testing.B) {
	topo, err := network.CompositeWAN(60, network.TofinoSpec(), 1)
	if err != nil {
		b.Fatal(err)
	}
	progs, err := workload.SyntheticSet(200, workload.PaperSyntheticSpec(), 1)
	if err != nil {
		b.Fatal(err)
	}
	res, err := hermes.Deploy(progs, topo, hermes.DeployOptions{Shards: 16, Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	gates := []struct {
		name string
		run  func(*deploy.Deployment) error
	}{
		{"plan", func(d *deploy.Deployment) error { return placement.PlanEquivHook(d.Plan, placement.Options{}) }},
		{"deployment", deploy.EquivHook},
	}
	for _, gate := range gates {
		b.Run(gate.name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				plan := *res.Plan
				plan.Graph = res.Plan.Graph.Clone() // same MATs, empty memo
				dep := *res.Deployment
				dep.Plan = &plan
				b.StartTimer()
				if err := gate.run(&dep); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(gate.name+"/warm", func(b *testing.B) {
			if err := gate.run(res.Deployment); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := gate.run(res.Deployment); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
