package main

import (
	"fmt"
	"time"

	hermes "github.com/hermes-net/hermes"
	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/dataplane"
	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/deploy/rollout"
	"github.com/hermes-net/hermes/internal/equiv"
	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/lint"
	"github.com/hermes-net/hermes/internal/merge"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/placement/shard"
	"github.com/hermes-net/hermes/internal/supervisor"
	"github.com/hermes-net/hermes/internal/tdg"
)

// The traced pass re-runs a smaller count of the timed pass's
// operations as staged calls into each layer's public functions, one
// span per call, recorded from this file only. Every staged operation
// runs as timing ops (spans carry wall time) and as a few alloc ops
// (spans carry exact Mallocs deltas; their times are discarded because
// ReadMemStats stops the world). Counts are read at the same boundary
// from the returned Stats/Report values, always from the first op or
// the first round of drains so they do not depend on how many ops fit
// in the budget.

// tracedShare is the part of -seconds the traced pass may measure for.
const tracedShare = 0.25

const allocOps = 2

// loop runs op closed-loop until minOps have run and the budget is
// spent; smoke mode has no budget and at most three ops.
func (h *harness) loop(minOps int, budget time.Duration, op func(i int)) {
	if h.cfg.smoke {
		minOps, budget = min(minOps, 3), 0
	}
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < budget; i++ {
		op(i)
	}
}

type tracer struct {
	h     *harness
	in    *instance
	st    *deploy.Deployment // the standing gated deployment
	rec   *recorder
	speed *speedometer // sampled between staged ops; the pass uses its overall factor
	// overhead is staged ÷ facade deploy time − 1, per alternated pair.
	overhead []float64
	out      map[string]float64
	// replayed and interpreted are the packet counts behind the
	// dataplane spans.
	replayed, interpreted int
}

func (h *harness) runTraced() (map[string]metricValue, *recorder, error) {
	in, st, err := h.coldStart()
	if !h.tally.attempt("traced set-up", err) {
		return nil, nil, fmt.Errorf("traced set-up failed: %w", err)
	}
	t := &tracer{h: h, in: in, st: st, rec: newRecorder(), speed: newSpeedometer(), out: map[string]float64{}}
	budget := time.Duration(tracedShare * h.cfg.seconds * float64(time.Second))
	stages := []func(){
		func() { t.deploys(budget * 45 / 100) },
		func() { t.heals(budget * 35 / 100) },
		t.replays,
	}
	if h.sp.churn {
		stages = append(stages, t.supervise)
	}
	t.speed.sample()
	for _, stage := range stages {
		stage()
		t.speed.sample()
	}
	t.rec.speed = t.speed.factor()
	t.out["network.partition_ms"] = in.partitionMS / t.rec.speed
	t.out["network.traffic_gen_ms"] = in.trafficMS / t.rec.speed
	t.summarise()

	metrics := map[string]metricValue{}
	for _, d := range perLayer {
		metrics[d.Name] = metricValue{Value: t.out[d.Name], Unit: d.Unit}
	}
	return metrics, t.rec, nil
}

// stage records one layer call as a span and counts a returned error
// against the tally; it reports whether the op may continue.
func (t *tracer) stage(name string, f func() error) (*span, bool) {
	var err error
	s := t.rec.do(name, func() { err = f() })
	return s, t.h.tally.attempt("traced "+name, err)
}

// solve runs the workload's solver with the gates off, as hermes.Deploy
// would, and hangs the sharded solver's own phase report on the span.
func (t *tracer) solve(g *tdg.Graph) (*placement.Plan, bool) {
	var plan *placement.Plan
	var stats shard.Stats
	sg, sharded := t.in.solver().(shard.ShardedGreedy)
	s, ok := t.stage("placement.solve", func() (err error) {
		if sharded {
			plan, stats, err = sg.SolveStats(g, t.in.topo, t.in.placementOptions(false))
		} else {
			plan, err = t.in.solver().Solve(g, t.in.topo, t.in.placementOptions(false))
		}
		return err
	})
	if !ok {
		return nil, false
	}
	s.count("used_switches", float64(plan.QOcc()))
	if sharded {
		s.count("shard.partition_ms", ms(stats.PartitionTime))
		s.count("shard.region_ms", ms(stats.RegionTime))
		s.count("shard.exchange_ms", ms(stats.ExchangeTime))
		s.count("shard.exchange_rounds", float64(stats.Rounds))
		s.count("shard.exchange_moves", float64(stats.Moves))
		s.count("shard.boundary_hosts", float64(stats.Hosts))
		s.count("shard.fell_back", b2f(stats.FellBack))
	}
	return plan, true
}

// stagedDeploy is hermes.Deploy with the gates off, one span per
// layer: analyze (merge inside) → solve → compile → verify.
func (t *tracer) stagedDeploy(allocs bool) (g *tdg.Graph, dep *deploy.Deployment, ok bool) {
	in, r := t.in, t.rec
	before := in.topo.PathCacheStats()
	root := r.beginOp("deploy", allocs)
	defer func() {
		s := r.end(root)
		after := in.topo.PathCacheStats()
		s.count("oracle_hits", float64(after.Hits-before.Hits))
		s.count("oracle_misses", float64(after.Misses-before.Misses))
	}()
	s, ok := t.stage("analyzer.analyze", func() (err error) {
		g, err = analyzer.Analyze(in.progs, aopts)
		return err
	})
	if !ok {
		return nil, nil, false
	}
	s.count("mats_out", float64(g.NumNodes()))
	s.count("edges_out", float64(g.NumEdges()))
	plan, ok := t.solve(g)
	if !ok {
		return nil, nil, false
	}
	s, ok = t.stage("deploy.compile", func() (err error) {
		dep, err = deploy.Compile(plan, aopts)
		return err
	})
	if !ok {
		return nil, nil, false
	}
	s.count("header_bytes_max", float64(dep.MaxHeaderBytes()))
	s.count("switch_configs", float64(len(dep.Configs)))
	_, ok = t.stage("deploy.verify", dep.Verify)
	return g, dep, ok
}

// stagedGates runs what Lint:true, Equiv:true add to a deploy, on the
// staged deploy's outputs.
func (t *tracer) stagedGates(g *tdg.Graph, dep *deploy.Deployment, allocs bool) {
	r := t.rec
	root := r.beginOp("gates", allocs)
	defer r.end(root)
	findings := 0
	s, _ := t.stage("lint.graph", func() error {
		fs := lint.LintGraph(g, lint.Options{Analyzer: aopts})
		findings += len(fs)
		return fs.Err()
	})
	t.stage("placement.validate", func() error { return dep.Plan.Validate(rm, 0, 0) })
	t.stage("lint.plan", func() error {
		fs := lint.LintPlan(dep.Plan, rm, 0, 0)
		findings += len(fs)
		return fs.Err()
	})
	s.count("findings", float64(findings))
	t.stage("equiv.plan_check", func() error { return equiv.CheckPlanAgainst(g, dep.Plan, aopts) })
	t.stage("equiv.check", func() error { return equiv.CheckDeployment(g, dep) })
}

// deploys alternates the hermes.Deploy facade with its staged twin, so
// trace.overhead_share compares like with like inside one process.
func (t *tracer) deploys(budget time.Duration) {
	in := t.in
	opts := in.deployOptions(false)
	var g *tdg.Graph
	var dep *deploy.Deployment
	facade := func() float64 {
		start := time.Now()
		_, err := hermes.Deploy(in.progs, in.topo, opts)
		d := time.Since(start)
		t.h.tally.attempt("traced facade deploy", err)
		return ms(d)
	}
	staged := func() (float64, bool) {
		var ok bool
		g, dep, ok = t.stagedDeploy(false)
		return t.rec.spans[len(t.rec.spans)-1].rootMS(t.rec), ok
	}
	t.h.loop(6, budget, func(i int) {
		// Whichever of the pair runs second inherits the other's garbage;
		// alternating the order shares that cost. The pair's ratio, not
		// the two medians', is what trace.overhead_share is made of:
		// both halves see the same host.
		var f, s float64
		var ok bool
		if i%2 == 0 {
			f = facade()
			s, ok = staged()
		} else {
			s, ok = staged()
			f = facade()
		}
		if ok && f > 0 {
			t.overhead = append(t.overhead, s/f-1)
		}
		// The gates cost more than the pair on the large workload; every
		// third iteration is enough for their medians.
		if ok && i%3 == 0 {
			t.stagedGates(g, dep, false)
		}
		t.speed.tick()
	})
	for i := 0; i < allocOps; i++ {
		if g, dep, ok := t.stagedDeploy(true); ok {
			t.stagedGates(g, dep, true)
		}
	}
	if g == nil {
		return
	}
	// merge.Savings needs the per-program graphs the analyzer folds.
	var inputs []*tdg.Graph
	for _, p := range in.progs {
		pg, err := tdg.FromProgram(p)
		if err != nil {
			return
		}
		inputs = append(inputs, pg)
	}
	t.out["merge.savings_mats"] = float64(merge.Savings(inputs, g))
	warn, errs, err := equivFindings(g, dep)
	if t.h.tally.attempt("traced equiv diagnose", err) {
		t.out["equiv.findings_warn"], t.out["equiv.findings_err"] = float64(warn), float64(errs)
	}
}

// stagedHeal is the heal operation with one span per layer: replan
// (gates off) → lint → incremental equivalence recheck → compile →
// verify → deployment equivalence → rollout. Churn workloads crash the
// switch on the live topology instead of draining it, so the replan
// takes the faulted route materialisation and the rollout's retire op
// meets a down switch, as under the supervisor.
func (t *tracer) stagedHeal(drain network.SwitchID, rc *equiv.Rechecker, allocs bool) {
	in, st, r := t.in, t.st, t.rec
	// Every heal starts from the standing plan, so the rechecker's
	// baseline is reset to it (untimed) rather than left on the last
	// repair.
	if !t.h.tally.attempt("traced rechecker baseline", rc.Check(st.Plan, aopts)) {
		return
	}
	ropts := in.replanOptions(false)
	drained := []network.SwitchID{drain}
	if t.h.sp.churn {
		if err := in.topo.SetSwitchDown(drain); err != nil {
			t.h.tally.attempt("traced crash", err)
			return
		}
		defer func() { _ = in.topo.SetSwitchUp(drain) }() // cannot fail: just set down
		ropts.Topology, drained = in.topo, nil
	}
	root := r.beginOp("heal", allocs)
	defer r.end(root)

	var next *placement.Plan
	var rep *placement.ReplanReport
	s, ok := t.stage("placement.replan", func() (err error) {
		next, rep, err = placement.ReplanWithOptions(st.Plan, in.solver(), ropts, drained...)
		return err
	})
	if !ok {
		return
	}
	oracle := next.Topo.PathCacheStats() // the replan's own topology clone: counts start at zero
	s.count("dirty_mats", float64(rep.DirtyMATs))
	s.count("moved_mats", float64(rep.MovedMATs))
	s.count("used_repair", b2f(rep.UsedRepair))
	s.count("regional_ms", ms(rep.Phases.Regions))
	s.count("regions_touched", float64(len(rep.RegionsTouched)))
	s.count("oracle_hits", float64(oracle.Hits))
	s.count("oracle_misses", float64(oracle.Misses))

	t.stage("lint.plan", func() error { return lint.LintPlan(next, rm, 0, 0).Err() })
	share := 1.0 // components re-proved ÷ total; a full walk re-proves all
	s, ok = t.stage("equiv.recheck", func() error {
		stats, err := rc.RecheckReplan(next, rep, aopts)
		if n := len(rc.Components()); !stats.Full && n > 0 {
			share = float64(stats.DirtyComponents) / float64(n)
		}
		return err
	})
	s.count("share", share)
	if !ok {
		return
	}
	var dep *deploy.Deployment
	if _, ok = t.stage("deploy.compile", func() (err error) {
		dep, err = deploy.Compile(next, aopts)
		return err
	}); !ok {
		return
	}
	t.stage("deploy.verify", dep.Verify)
	t.stage("equiv.check", func() error { return equiv.CheckDeployment(st.Plan.Graph, dep) })
	var ro *rollout.Rollout
	if _, ok = t.stage("rollout.new", func() (err error) {
		fab := rollout.NewMemFabric(in.topo)
		fab.Bootstrap(st, 1)
		ro, err = rollout.New(st, dep, rollout.Options{Topo: in.topo, Fabric: fab, Retry: virtualBackoff})
		return err
	}); !ok {
		return
	}
	var rrep *rollout.Report
	s, _ = t.stage("rollout.execute", func() (err error) {
		rrep, err = ro.Execute()
		return err
	})
	if rrep != nil {
		s.count("ops", float64(rrep.Ops))
		s.count("retries", float64(rrep.Retries))
	}
}

// healTargets are the standing plan's five busiest switches; a churn
// workload crashes them, so it skips any whose loss would disconnect
// the topology, as the fault-schedule generator does.
func (t *tracer) healTargets() []network.SwitchID {
	if !t.h.sp.churn {
		return busiest(t.st.Plan, 5)
	}
	var out []network.SwitchID
	for _, id := range busiest(t.st.Plan, len(t.st.Plan.Assignments)) {
		if len(out) == 5 || t.in.topo.SetSwitchDown(id) != nil {
			break
		}
		if t.in.topo.Connected() {
			out = append(out, id)
		}
		_ = t.in.topo.SetSwitchUp(id) // cannot fail: the switch was just set down
	}
	return out
}

func (t *tracer) heals(budget time.Duration) {
	rc, err := equiv.NewRechecker(t.st.Plan.Graph)
	if !t.h.tally.attempt("traced rechecker", err) {
		return
	}
	drains := t.healTargets()
	t.h.loop(len(drains), budget, func(i int) {
		t.stagedHeal(drains[i%len(drains)], rc, false)
		t.speed.tick()
	})
	for i := 0; i < allocOps; i++ {
		t.stagedHeal(drains[i%len(drains)], rc, true)
	}
}

// replays stages hermes.ReplayTraffic: pipeline compile → packet
// synthesis (this file's stand-in for the library's unexported
// generator) → batch load → run; then a small sample through the two
// per-packet interpreters.
func (t *tracer) replays() {
	dep, r := t.st, t.rec
	n := t.h.packets() / 4
	hdrs := []string{fields.IPv4Src, fields.IPv4Dst, fields.TCPSrc, fields.TCPDst, fields.IPv4Proto, fields.IPv4TTL}
	var pkts []*dataplane.Packet
	for _, allocs := range []bool{false, true} {
		root := r.beginOp("replay", allocs)
		var p *dataplane.Pipeline
		_, ok := t.stage("dataplane.pipeline_build", func() (err error) {
			p, err = dataplane.NewPipeline(dep, hdrs, 256)
			return err
		})
		if ok {
			r.do("replay.synthesis", func() { pkts = demandPackets(t.in.replayTM, n) })
			var batches []*dataplane.Batch
			_, ok = t.stage("dataplane.load", func() error {
				for i := 0; i < len(pkts); i += p.BatchSize() {
					b, err := p.Load(pkts[i:min(i+p.BatchSize(), len(pkts))])
					if err != nil {
						return err
					}
					batches = append(batches, b)
				}
				return nil
			})
			if ok {
				var stats *dataplane.ReplayStats
				s, ok := t.stage("dataplane.run", func() (err error) {
					stats, err = p.Replay(batches, 1)
					return err
				})
				if ok && stats.Packets > 0 {
					s.count("coord_bytes_per_pkt", float64(stats.CoordBytes)/float64(stats.Packets))
				}
			}
		}
		r.end(root)
	}

	k := min(t.h.sp.enginePackets, len(pkts))
	t.replayed, t.interpreted = max(n, 1), max(k, 1)
	root := r.beginOp("interpreters", false)
	defer r.end(root)
	t.stage("dataplane.engine", func() error {
		eng, err := dataplane.NewEngine(dep)
		for i := 0; err == nil && i < k; i++ {
			_, err = eng.Process(pkts[i].Clone())
		}
		return err
	})
	t.stage("dataplane.reference", func() error {
		ref, err := dataplane.NewReferenceEngine(t.st.Plan.Graph)
		for i := 0; err == nil && i < k; i++ {
			_, err = ref.Process(pkts[i].Clone())
		}
		return err
	})
}

// demandPackets apportions n packets over the matrix's demands by
// rate (inverse CDF on a regular grid, no RNG) and encodes each
// demand's endpoints and index in the 5-tuple, as ReplayTraffic does.
func demandPackets(tm *network.TrafficMatrix, n int) []*dataplane.Packet {
	total := 0.0
	for _, d := range tm.Demands {
		total += d.Rate
	}
	out := make([]*dataplane.Packet, 0, n)
	di, cum := 0, tm.Demands[0].Rate
	for j := 0; j < n; j++ {
		at := (float64(j) + 0.5) / float64(n) * total
		for cum < at && di < len(tm.Demands)-1 {
			di++
			cum += tm.Demands[di].Rate
		}
		d := tm.Demands[di]
		out = append(out, &dataplane.Packet{Headers: map[string]uint64{
			fields.IPv4Src:   uint64(0x0A000000) + uint64(d.Src),
			fields.IPv4Dst:   uint64(0x0B000000) + uint64(d.Dst),
			fields.TCPSrc:    uint64(1024 + di%60000),
			fields.TCPDst:    uint64(di % 1024),
			fields.IPv4Proto: 6,
			fields.IPv4TTL:   64,
		}})
	}
	return out
}

// supervise drives one gated supervisor through the corpus fault
// schedule, one span per supervisor.New and per Poll; polls are split
// after the fact into those that healed and those that found nothing
// to do.
func (t *tracer) supervise() {
	in, r := t.in, t.rec
	topo, err := in.newTopo()
	if !t.h.tally.attempt("traced topology", err) {
		return
	}
	var sup *supervisor.Supervisor
	root := r.beginOp("supervisor.new", false)
	sup, err = supervisor.New(in.progs, topo, in.supervisorOptions(true))
	r.end(root)
	if !t.h.tally.attempt("traced supervisor.New", err) {
		return
	}
	sched, err := in.schedule(topo, 0, t.h.cfg.smoke)
	if !t.h.tally.attempt("traced fault schedule", err) {
		return
	}
	for _, ev := range sched.Events {
		if !t.h.tally.attempt("traced fault event", ev.Apply(topo)) {
			return
		}
		for i := 0; i < 80; i++ {
			id := r.beginOp("supervisor.poll_idle", false)
			res, err := sup.Poll()
			s := r.end(id)
			if !t.h.tally.attempt("traced poll", err) {
				return
			}
			if res.Replanned || len(res.Shed) > 0 || len(res.Restored) > 0 {
				s.Name = "supervisor.poll_heal"
			}
			settled := len(res.Down) == 0 && len(res.Up) == 0 && len(res.Shed) == 0 && len(res.Restored) == 0
			if settled && monitorConverged(topo, sup.Monitor()) && !sup.PlanBroken() {
				break
			}
		}
	}
	st := sup.Stats()
	t.out["supervisor.polls"] = float64(st.Polls)
	t.out["supervisor.replans"] = float64(st.Replans)
	if st.Replans > 0 {
		t.out["supervisor.incremental_share"] = float64(st.IncrementalReplans) / float64(st.Replans)
	}
	t.out["supervisor.shed_events"] = float64(st.ShedPrograms)
	t.out["supervisor.monitor_probes"] = float64(sup.Monitor().Probes())
}

// counts returns, in op order, the value every span of the given name
// recorded under key.
func (r *recorder) counts(name, key string) []float64 {
	var out []float64
	for i := range r.spans {
		if v, ok := r.spans[i].Counts[key]; ok && r.spans[i].Name == name {
			out = append(out, v)
		}
	}
	return out
}

func first(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[0]
}

// firstRound is the mean over the first round of the five drains.
func firstRound(xs []float64) float64 {
	xs = xs[:min(len(xs), 5)]
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// summarise folds the spans into the per-layer metrics: a time is the
// median over the timing ops, an alloc count the median over the alloc
// ops, a count the first op's (deploy) or first round's (heal) value.
func (t *tracer) summarise() {
	r, o := t.rec, t.out
	for metric, spanName := range map[string]string{
		"analyzer.analyze_ms": "analyzer.analyze", "lint.graph_ms": "lint.graph", "lint.plan_ms": "lint.plan",
		"placement.solve_ms": "placement.solve", "placement.validate_ms": "placement.validate",
		"placement.replan_ms": "placement.replan", "deploy.compile_ms": "deploy.compile",
		"deploy.verify_ms": "deploy.verify", "equiv.plan_check_ms": "equiv.plan_check",
		"equiv.check_ms": "equiv.check", "equiv.recheck_ms": "equiv.recheck",
		"rollout.new_ms": "rollout.new", "rollout.execute_ms": "rollout.execute",
		"dataplane.pipeline_build_ms": "dataplane.pipeline_build",
		"supervisor.new_ms":           "supervisor.new", "supervisor.poll_heal_ms": "supervisor.poll_heal",
	} {
		o[metric] = median(r.times(spanName))
	}
	o["supervisor.poll_idle_us"] = median(r.times("supervisor.poll_idle")) * 1e3
	for metric, spanName := range map[string]string{
		"analyzer.allocs": "analyzer.analyze", "placement.solve_allocs": "placement.solve",
		"placement.replan_allocs": "placement.replan", "deploy.compile_allocs": "deploy.compile",
		"equiv.check_allocs": "equiv.check",
	} {
		o[metric] = median(r.allocsOf(spanName))
	}
	o["rollout.allocs"] = median(r.allocsOf("rollout.new")) + median(r.allocsOf("rollout.execute"))
	o["dataplane.engine_ns_per_pkt"] = median(r.times("dataplane.engine")) * 1e6 / float64(t.interpreted)
	o["dataplane.reference_ns_per_pkt"] = median(r.times("dataplane.reference")) * 1e6 / float64(t.interpreted)
	o["dataplane.load_ns_per_pkt"] = median(r.times("dataplane.load")) * 1e6 / float64(t.replayed)
	o["dataplane.run_ns_per_pkt"] = median(r.times("dataplane.run")) * 1e6 / float64(t.replayed)
	o["dataplane.allocs_per_pkt"] = median(r.allocsOf("dataplane.run")) / float64(t.replayed)

	o["analyzer.mats_out"] = first(r.counts("analyzer.analyze", "mats_out"))
	o["analyzer.edges_out"] = first(r.counts("analyzer.analyze", "edges_out"))
	o["lint.findings"] = first(r.counts("lint.graph", "findings"))
	o["placement.used_switches"] = first(r.counts("placement.solve", "used_switches"))
	o["deploy.header_bytes_max"] = first(r.counts("deploy.compile", "header_bytes_max"))
	o["deploy.switch_configs"] = first(r.counts("deploy.compile", "switch_configs"))
	o["dataplane.coord_bytes_per_pkt"] = first(r.counts("dataplane.run", "coord_bytes_per_pkt"))

	o["placement.replan_dirty_mats"] = firstRound(r.counts("placement.replan", "dirty_mats"))
	o["placement.replan_moved_mats"] = firstRound(r.counts("placement.replan", "moved_mats"))
	o["placement.replan_repair_share"] = firstRound(r.counts("placement.replan", "used_repair"))
	o["shard.regions_touched"] = firstRound(r.counts("placement.replan", "regions_touched"))
	o["equiv.recheck_share"] = firstRound(r.counts("equiv.recheck", "share"))
	o["rollout.ops"] = firstRound(r.counts("rollout.execute", "ops"))
	o["rollout.retries"] = firstRound(r.counts("rollout.execute", "retries"))
	// One staged deploy plus one staged heal: the path-oracle traffic of
	// a lifecycle step on a warm standing topology.
	o["network.oracle_hits"] = first(r.counts("deploy", "oracle_hits")) + firstRound(r.counts("placement.replan", "oracle_hits"))
	o["network.oracle_misses"] = first(r.counts("deploy", "oracle_misses")) + firstRound(r.counts("placement.replan", "oracle_misses"))

	if t.in.shards > 1 {
		o["shard.solve_ms"] = o["placement.solve_ms"]
		for _, k := range []string{"shard.partition_ms", "shard.region_ms", "shard.exchange_ms"} {
			o[k] = median(r.counts("placement.solve", k)) / r.speed
		}
		// ROADMAP item 1's hole: solve wall time the solver's own phase
		// report does not account for.
		o["shard.unattributed_ms"] = o["shard.solve_ms"] - o["shard.partition_ms"] - o["shard.region_ms"] - o["shard.exchange_ms"]
		for _, k := range []string{"shard.exchange_rounds", "shard.exchange_moves", "shard.boundary_hosts", "shard.fell_back"} {
			o[k] = first(r.counts("placement.solve", k))
		}
		o["shard.regional_replan_ms"] = median(r.counts("placement.replan", "regional_ms")) / r.speed
	}

	o["trace.deploy_coverage"] = r.coverage("deploy")
	o["trace.overhead_share"] = median(t.overhead)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
