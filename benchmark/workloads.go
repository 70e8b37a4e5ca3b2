package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	hermes "github.com/hermes-net/hermes"
	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/placement/shard"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/supervisor"
	"github.com/hermes-net/hermes/internal/workload"
)

// corpusSeed fixes the plan-shaping inputs of every workload —
// programs, topology, partition, the placement objective's traffic
// matrix and the churn fault schedules. One 30-program draw moves
// deploy_p50_ms by ±25 % and A_max by ±15 % from seed to seed, and the
// equivalence gate rejects the greedy plan on most
// EvaluationPrograms(30, seed) draws (README, "known gate rejections"),
// so a per-run draw would measure the draw, not the code. The -seed
// argument drives the request streams instead: the replayed traffic
// matrix, the drain order and the packets of the replay equivalence
// check.
const corpusSeed = 1

// workers is the solver and replay parallelism of every operation:
// one closed-loop client, at most two worker goroutines.
var workers = min(runtime.NumCPU(), 2)

var (
	rm    = program.DefaultResourceModel
	aopts = analyzer.Options{}
)

// spec is one benchmark workload: how to generate its inputs and how
// the run's seconds are shared between the four phases.
type spec struct {
	name string
	why  string
	// gen builds the workload's inputs; smoke shrinks them.
	gen func(in *instance, smoke bool) error
	// setupReps is how many times a run sets up from scratch; setup_s
	// is their median.
	setupReps int
	// shares of -seconds given to deploy, gated_deploy, heal, replay.
	shares [4]float64
	// packets per ReplayTraffic call, sized so a call takes ~0.1 s: a
	// call's rate varies by ±15 % whatever its size, so the median wants
	// many short calls, not few long ones.
	packets int
	// enginePackets is the traced pass's sample through the per-packet
	// interpreters (Engine / ReferenceEngine).
	enginePackets int
	// checkPackets is the size of the replay equivalence check. The
	// reference interpreter snapshots every field around every MAT, so a
	// packet costs ~0.3 s on composite60's 2,822 MATs and 256 of them
	// would outlast the run.
	checkPackets int
	// traffic is the replay traffic model.
	traffic string
	// churn workloads heal through the supervisor and a fault schedule
	// instead of fault-free drains.
	churn bool
}

var specs = []*spec{
	{
		name:      "wan30",
		why:       "paper's evaluation point: 30 programs on Table III WAN 1, whole-graph Greedy dominates deploy, delta-repair heal; sharding bypassed",
		gen:       genWAN30,
		setupReps: 5, shares: [4]float64{0.30, 0.25, 0.25, 0.20},
		packets: 5000, enginePackets: 200, checkPackets: 256, traffic: network.TrafficGravity,
	},
	{
		name:      "composite60",
		why:       "4,218 switches x 200 programs, 16 shards: sharded solve, merge, lint and equiv all visible; regional replan heal; whole-graph Greedy bypassed",
		gen:       genComposite60,
		setupReps: 3, shares: [4]float64{0.24, 0.23, 0.41, 0.12},
		packets: 500, enginePackets: 5, checkPackets: 4, traffic: network.TrafficGravity,
	},
	{
		name:      "real_hotspot",
		why:       "10 real programs at 0.1 stage capacity under the traffic-weighted-max objective: weighted kernels, ms-scale deploys, dataplane per-packet overhead dominates replay",
		gen:       genRealHotspot,
		setupReps: 15, shares: [4]float64{0.25, 0.25, 0.30, 0.20},
		packets: 50000, enginePackets: 2000, checkPackets: 256, traffic: network.TrafficHotspot,
	},
	{
		name:      "churn16",
		why:       "16 synthetic programs healed by the supervisor through seeded fault schedules: faulted route materialisation, monitor, rollout retries, not fault-free drains",
		gen:       genChurn16,
		setupReps: 5, shares: [4]float64{0.25, 0.10, 0.50, 0.15},
		packets: 5000, enginePackets: 300, checkPackets: 256, traffic: network.TrafficGravity,
		churn: true,
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// instance is one generated set of workload inputs; the program under
// test sees nothing else of the seed.
type instance struct {
	sp   *spec
	seed int64

	// newTopo regenerates the workload's topology; churn operations
	// each start from a fresh, fault-free one.
	newTopo func() (*network.Topology, error)
	topo    *network.Topology
	progs   []*program.Program
	shards  int
	part    *network.Partition
	// planTM is the placement objective's matrix (nil = structural
	// A_max); replayTM is the seeded matrix ReplayTraffic drives.
	weighted  bool
	planTM    *network.TrafficMatrix
	objective placement.TrafficObjective
	slack     float64
	replayTM  *network.TrafficMatrix

	// Generator timings kept for the per-layer network.* metrics.
	partitionMS, trafficMS float64
}

// generate builds the workload's inputs from the seed.
func generate(sp *spec, seed int64, smoke bool) (*instance, error) {
	in := &instance{sp: sp, seed: seed}
	if err := sp.gen(in, smoke); err != nil {
		return nil, fmt.Errorf("%s: generating inputs: %w", sp.name, err)
	}
	var err error
	if in.topo, err = in.newTopo(); err != nil {
		return nil, err
	}
	if in.shards > 1 {
		t := time.Now()
		if in.part, err = network.PartitionRegions(in.topo, in.shards, corpusSeed); err != nil {
			return nil, err
		}
		in.partitionMS = msSince(t)
	}
	t := time.Now()
	if in.replayTM, err = network.GenerateTraffic(in.topo, sp.traffic, seed); err != nil {
		return nil, err
	}
	in.trafficMS = msSince(t)
	if in.weighted {
		if in.planTM, err = network.GenerateTraffic(in.topo, sp.traffic, corpusSeed); err != nil {
			return nil, err
		}
	}
	return in, nil
}

func tableIII(capacity float64) func() (*network.Topology, error) {
	return func() (*network.Topology, error) {
		s := network.TofinoSpec()
		s.StageCapacity = capacity
		return network.TableIII(1, s)
	}
}

func genWAN30(in *instance, smoke bool) (err error) {
	in.newTopo = tableIII(1.0)
	in.progs, err = workload.EvaluationPrograms(30, corpusSeed)
	return err
}

func genComposite60(in *instance, smoke bool) (err error) {
	regions, programs := 60, 200
	in.shards = 16
	if smoke {
		regions, programs, in.shards = 10, 30, 4
	}
	in.newTopo = func() (*network.Topology, error) {
		return network.CompositeWAN(regions, network.TofinoSpec(), corpusSeed)
	}
	in.progs, err = workload.SyntheticSet(programs, workload.PaperSyntheticSpec(), corpusSeed)
	return err
}

func genRealHotspot(in *instance, smoke bool) error {
	in.newTopo = tableIII(0.1)
	in.progs = workload.RealPrograms()
	in.weighted, in.objective, in.slack = true, placement.TrafficWeightedMax, 1.2
	return nil
}

func genChurn16(in *instance, smoke bool) (err error) {
	in.newTopo = tableIII(0.3)
	in.progs, err = workload.SyntheticSet(16, workload.PaperSyntheticSpec(), corpusSeed)
	return err
}

func (in *instance) deployOptions(gated bool) hermes.DeployOptions {
	return hermes.DeployOptions{
		Workers: workers, Shards: in.shards, Partition: in.part,
		Traffic: in.planTM, TrafficObjective: in.objective, AMaxSlack: in.slack,
		Lint: gated, Equiv: gated,
	}
}

// solver mirrors hermes.Deploy's choice for these options.
func (in *instance) solver() placement.Solver {
	if in.shards > 1 {
		return shard.ShardedGreedy{Partition: in.part}
	}
	return placement.Greedy{}
}

func (in *instance) placementOptions(gated bool) placement.Options {
	return placement.Options{
		Workers: workers, Shards: in.shards,
		Traffic: in.planTM, TrafficObjective: in.objective, AMaxSlack: in.slack,
		Lint: gated, Equiv: gated,
	}
}

func (in *instance) replanOptions(gated bool) placement.ReplanOptions {
	return placement.ReplanOptions{Options: in.placementOptions(gated), Partition: in.part}
}

func (in *instance) supervisorOptions(gated bool) supervisor.Options {
	return supervisor.Options{
		Equiv:  gated,
		Replan: placement.ReplanOptions{Options: placement.Options{Workers: workers}},
		Monitor: supervisor.MonitorOptions{
			Window: 2, FailThreshold: 2, RecoverThreshold: 1, BackoffMax: 2, Seed: corpusSeed,
		},
		RolloutRetry: virtualBackoff,
	}
}

// virtualBackoff is the rollout engine's default retry policy (3
// attempts, 2 ms doubling backoff) with the waits skipped. A retire op
// against a crashed switch retries through ~6 ms of sleep, more than
// the heal's own work: wall-clock sleep no code change can move, and
// that does not scale with host speed.
var virtualBackoff = deploy.RetryPolicy{Attempts: 3, Backoff: 2 * time.Millisecond, Sleep: func(time.Duration) {}}

// schedule generates the fault schedule of churn pass p. The passes'
// schedules are part of the corpus — pass 0's carries the deterministic
// heal metrics — because heal latency differs by fault archetype and a
// per-run draw moved heal_p90_ms by 10 % from seed to seed.
func (in *instance) schedule(topo *network.Topology, pass int, smoke bool) (*network.Schedule, error) {
	seed := int64(corpusSeed*1000 + pass)
	events := 40
	if smoke {
		events = 6
	}
	return network.GenerateSchedule(topo, network.ScheduleOptions{
		Seed: seed, Events: events, MinUpProgrammable: 3,
	})
}

// busiest returns the k switches hosting the most MATs, busiest first,
// ties to the lower ID.
func busiest(p *placement.Plan, k int) []network.SwitchID {
	load := map[network.SwitchID]int{}
	for _, sp := range p.Assignments {
		load[sp.Switch]++
	}
	ids := make([]network.SwitchID, 0, len(load))
	for id := range load {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if load[ids[i]] != load[ids[j]] {
			return load[ids[i]] > load[ids[j]]
		}
		return ids[i] < ids[j]
	})
	return ids[:min(k, len(ids))]
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
