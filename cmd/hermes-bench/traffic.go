// The "traffic" experiment (Exp#9) evaluates the traffic-weighted
// objective and the batched replay engine together.
//
// The rows table sweeps the built-in traffic models over spread-out
// fixtures: each cell solves the same instance structurally (A_max-only)
// and weighted (min-max w·A under AMaxSlack), compiles both, and replays
// the matrix through the batched engine to measure the hot-pair
// byte-rate each plan pays on the wire, not just what the solver scored.
//
// The throughput table measures the batched pipeline against the
// single-box ReferenceEngine, its independent twin, over one packet
// stream (Engine.Process, the same pipeline over a batch of one, is
// informational). Its speedup divides two independently noisy
// measurements, so the calibrator slack is 1.5: a genuine
// batched-engine regression drags it far below that anyway.
package main

import (
	"fmt"
	"testing"

	hermes "github.com/hermes-net/hermes"
	"github.com/hermes-net/hermes/internal/dataplane"
	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/workload"
)

const (
	// On skewed models the weighted plan must cut the hot-pair
	// coordination byte-rate by at least this factor ...
	trafficHotCutFloor = 2.0
	// ... at no more than this structural A_max inflation (also the
	// constraint handed to the solver).
	trafficAMaxSlack = 1.2
	// Batched packets/sec over the reference engine's (EXPERIMENTS.md Exp#9).
	trafficBatchSpeedupFloor = 5.0
	// trafficReps / trafficReplayPackets size the measurements.
	trafficReps          = 5
	trafficReplayPackets = 4096
	// trafficCapacity tightens the stage capacity so MATs spread across
	// switches and coordination pairs actually exist.
	trafficCapacity = 0.1
)

// trafficFixture is one workload/topology cell; seedOff varies the
// workload and matrix seeds.
type trafficFixture struct {
	name     string
	programs int
	topoID   int
	seedOff  int64
}

var trafficFixtures = []trafficFixture{
	{name: "mixed12_tableIII1", programs: 12, topoID: 1},
	{name: "mixed10_tableIII2", programs: 10, topoID: 2, seedOff: 1},
}

// skewed selects the rows the acceptance bars apply to; uniform rides
// along as the informational null model.
func skewed(r row) bool { return r.str("model") != network.TrafficUniform }

// trafficPoint is one (fixture, model) cell: the structural and the
// weighted deployment, both replayed under the model's matrix.
type trafficPoint struct {
	name, model              string
	structAMax, weightedAMax int
	structRes, weightedRes   *dataplane.TrafficResult
}

// cut is before/after; when the weighted plan eliminated every byte the
// cut is unbounded and the structural rate stands in.
func cut(before, after float64) float64 {
	before, after = round3(before), round3(after)
	if after > 0 {
		return before / after
	}
	return before
}

// throughputPoint is the engine comparison on one fixture.
type throughputPoint struct {
	fixture                       string
	perPacket, reference, batched testing.BenchmarkResult
}

var trafficExp = experiment{
	name: "traffic", title: "Exp#9 Traffic: weighted objective and batched replay",
	baseline: true,
	tables: []table{
		{name: "rows",
			cols: []column{
				col(key, "name", "fixture", "", func(p trafficPoint) any { return p.name }),
				col(key, "model", "model", "", func(p trafficPoint) any { return p.model }),
				col(det, "struct_a_max_bytes", "sAmax", "%.0fB", func(p trafficPoint) any { return p.structAMax }),
				col(det, "weighted_a_max_bytes", "wAmax", "%.0fB", func(p trafficPoint) any { return p.weightedAMax }),
				col(det, "a_max_inflation", "inflate", "%.2fx", func(p trafficPoint) any { return ratio(p.weightedAMax, p.structAMax) }),
				col(det, "struct_hot_pair_rate", "struct hot", "%.1f", func(p trafficPoint) any { return p.structRes.HotPairByteRate }),
				col(det, "weighted_hot_pair_rate", "weighted hot", "%.1f", func(p trafficPoint) any { return p.weightedRes.HotPairByteRate }),
				col(det, "hot_pair_cut", "hot cut", "%.1fx", func(p trafficPoint) any {
					return cut(p.structRes.HotPairByteRate, p.weightedRes.HotPairByteRate)
				}).within(0.10),
				col(det, "struct_weighted_rate", "", "", func(p trafficPoint) any { return p.structRes.WeightedByteRate }),
				col(det, "weighted_weighted_rate", "", "", func(p trafficPoint) any { return p.weightedRes.WeightedByteRate }),
				col(det, "weighted_rate_cut", "sum cut", "%.1fx", func(p trafficPoint) any {
					return cut(p.structRes.WeightedByteRate, p.weightedRes.WeightedByteRate)
				}),
			},
			checks: []check{
				bound("hot_pair_cut", ">=", trafficHotCutFloor).when("on skewed models", skewed),
				bound("a_max_inflation", "<=", trafficAMaxSlack).when("on skewed models", skewed),
			}},
		{name: "throughput",
			cols: []column{
				col(key, "fixture", "engines on", "", func(p throughputPoint) any { return p.fixture }),
				col(timing, "per_packet_ns_per_op", "batch-of-1 ns", "", func(p throughputPoint) any { return p.perPacket.NsPerOp() }),
				col(timing, "reference_ns_per_op", "reference ns", "", func(p throughputPoint) any { return p.reference.NsPerOp() }),
				col(timing, "batched_ns_per_op", "batched ns", "", func(p throughputPoint) any { return p.batched.NsPerOp() }).dual("speedup", 1.10, 1.5),
				col(alloc, "batched_allocs_per_packet", "allocs/pkt", "", func(p throughputPoint) any { return p.batched.AllocsPerOp() }),
				col(timing, "speedup", "speedup", "%.1fx", func(p throughputPoint) any { return ratio(p.reference.NsPerOp(), p.batched.NsPerOp()) }).up(),
			},
			checks: []check{
				bound("speedup", ">=", trafficBatchSpeedupFloor),
				bound("batched_allocs_per_packet", "==", 0),
			}},
	},
	run: func(c *runCtx) (result, error) {
		reps := trafficReps
		if c.smoke {
			reps = 2
		}
		var pts []trafficPoint
		var tp throughputPoint
		for i, fx := range trafficFixtures {
			seed := c.cfg.Seed + fx.seedOff
			structDep, err := trafficSolve(fx, seed, nil)
			if err != nil {
				return result{}, fmt.Errorf("traffic: fixture %s: %w", fx.name, err)
			}
			for _, model := range network.TrafficModels() {
				p, err := measureTraffic(fx, seed, model, structDep)
				if err != nil {
					return result{}, fmt.Errorf("traffic: fixture %s model %s: %w", fx.name, model, err)
				}
				pts = append(pts, p)
			}
			if i == 0 {
				if tp, err = trafficThroughput(fx, seed, structDep, reps); err != nil {
					return result{}, err
				}
			}
		}
		return result{points: map[string]any{"rows": pts, "throughput": []throughputPoint{tp}}}, nil
	},
}

// trafficSolve analyzes and deploys one fixture under the given
// traffic matrix (nil = structural objective).
func trafficSolve(fx trafficFixture, seed int64, tm *network.TrafficMatrix) (*deploy.Deployment, error) {
	progs, err := workload.EvaluationPrograms(fx.programs, seed)
	if err != nil {
		return nil, err
	}
	opts := placement.Options{}
	if tm != nil {
		opts.Traffic = tm
		opts.TrafficObjective = placement.TrafficWeightedMax
		opts.AMaxSlack = trafficAMaxSlack
	}
	plan, err := tableIIIPlan(progs, fx.topoID, trafficCapacity, opts)
	if err != nil {
		return nil, err
	}
	return deploy.Compile(plan, hermes.AnalyzeOptions{})
}

// measureTraffic solves one (fixture, model) cell weighted and replays
// the model's matrix through both deployments.
func measureTraffic(fx trafficFixture, seed int64, model string, structDep *deploy.Deployment) (trafficPoint, error) {
	tm, err := network.GenerateTraffic(structDep.Plan.Topo, model, seed)
	if err != nil {
		return trafficPoint{}, err
	}
	weightedDep, err := trafficSolve(fx, seed, tm)
	if err != nil {
		return trafficPoint{}, err
	}
	structRes, err := dataplane.ReplayTraffic(structDep, tm, trafficReplayPackets, 0, 0)
	if err != nil {
		return trafficPoint{}, err
	}
	weightedRes, err := dataplane.ReplayTraffic(weightedDep, tm, trafficReplayPackets, 0, 0)
	if err != nil {
		return trafficPoint{}, err
	}
	return trafficPoint{
		name: fx.name, model: model,
		structAMax: structDep.Plan.AMax(), weightedAMax: weightedDep.Plan.AMax(),
		structRes: structRes, weightedRes: weightedRes,
	}, nil
}

// trafficThroughput measures Engine.Process, the reference engine and
// the batched pipeline on the structural deployment of one fixture,
// over the same deterministic packet stream.
func trafficThroughput(fx trafficFixture, seed int64, dep *deploy.Deployment, reps int) (throughputPoint, error) {
	eng, err := dataplane.NewEngine(dep)
	if err != nil {
		return throughputPoint{}, err
	}
	ref, err := dataplane.NewReferenceEngine(dep.Plan.Graph)
	if err != nil {
		return throughputPoint{}, err
	}
	pkts := equivReplayStream(dep.Plan.Graph, seed, 256)
	perPacket := func(process func(*dataplane.Packet) (*dataplane.Result, error)) testing.BenchmarkResult {
		return measureBest(reps, loop(func(i int) error {
			_, err := process(pkts[i%len(pkts)].Clone())
			return err
		}))
	}

	p, err := dataplane.NewPipeline(dep, nil, len(pkts))
	if err != nil {
		return throughputPoint{}, err
	}
	replay := func() error {
		batch, err := p.Load(pkts)
		if err == nil {
			err = p.Run(batch)
			p.PutBatch(batch)
		}
		return err
	}
	if err := replay(); err != nil { // warm the pool and the compiled tables
		return throughputPoint{}, err
	}
	batched := measureBest(reps, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i += len(pkts) {
			if err := replay(); err != nil {
				b.Fatal(err)
			}
		}
	})

	return throughputPoint{fixture: fx.name, perPacket: perPacket(eng.Process), reference: perPacket(ref.Process), batched: batched}, nil
}
