package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	hermes "github.com/hermes-net/hermes"
	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/supervisor"
)

// harness carries one workload run: its inputs, the op and failure
// tallies of the output checks, and notes for the summary.
type harness struct {
	sp    *spec
	cfg   config
	in    *instance
	tally tally
}

// tally counts operations attempted and operations that returned an
// error, were refused by a gate, or failed an output check.
type tally struct {
	attempted, failed int
	errs              []string
	notes             []string
}

// attempt counts one operation; a non-nil err counts it failed.
func (t *tally) attempt(what string, err error) bool {
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if len(t.errs) < 10 {
		t.errs = append(t.errs, what+": "+err.Error())
	}
	return false
}

func (t *tally) note(format string, a ...any) { t.notes = append(t.notes, fmt.Sprintf(format, a...)) }

// rounds is how many slices the run's seconds are cut into. Every
// phase runs in every round, so each metric samples the whole run's
// timeline and a burst of interference from the shared host lands on
// all phases alike instead of swallowing one.
const rounds = 10

// phase is one resumable closed loop of the lifecycle. step runs one
// operation — the next starts when the previous one and its checks have
// returned — and stamps its samples with the pass's clock.
type phase struct {
	share  float64 // of -seconds
	minOps int     // in the first round; smoke mode's only stop condition
	step   func(i int)
	ops    int
}

// samples are one metric's raw measurements, each stamped with the
// pass's clock so it can be set against the host speed around it.
type samples struct{ at, v []float64 }

func (s *samples) add(at, v float64) {
	s.at = append(s.at, at)
	s.v = append(s.v, v)
}

// atReferenceSpeed returns every sample as it would have read on the
// nominal host: a duration is divided by the slowdown factor around
// it, a rate (inverse true) multiplied by it.
func (s *samples) atReferenceSpeed(sp *speedometer, inverse bool) []float64 {
	out := make([]float64, len(s.v))
	for i, v := range s.v {
		if f := sp.factorAt(s.at[i]); inverse {
			out[i] = v * f
		} else {
			out[i] = v / f
		}
	}
	return out
}

// timedResult is what the untraced pass measured.
type timedResult struct {
	speed                 *speedometer // of the four phases
	setupSpeed            *speedometer
	setupS                []float64
	deployMS, gatedMS     samples
	healMS                samples
	replayPPS             samples
	deployMallocs         uint64
	amax, cross, healAmax int
	healMoved             float64
}

// runRounds drives the phases round-robin: in each round every phase
// runs for its share of the round (at least one op), with kernel
// samples between operations. Smoke mode runs one round of minOps ops
// per phase.
func (h *harness) runRounds(res *timedResult, phases ...*phase) {
	n := rounds
	if h.cfg.smoke {
		n = 1
	}
	res.speed.sample()
	for round := 0; round < n; round++ {
		for _, p := range phases {
			slice := time.Duration(p.share * h.cfg.seconds / float64(n) * float64(time.Second))
			want := 1
			if h.cfg.smoke {
				slice, want = 0, min(p.minOps, 3)
			} else if round == 0 {
				want = p.minOps
			}
			start := p.ops
			for t := time.Now(); p.ops-start < want || time.Since(t) < slice; p.ops++ {
				p.step(p.ops)
				res.speed.tick()
			}
		}
	}
}

func (h *harness) packets() int {
	if h.cfg.smoke {
		return 2000
	}
	return h.sp.packets
}

// coldStart generates the inputs and brings up the standing gated
// deployment — the one an operator would be running, from which the
// heal and replay phases start — on a cold path oracle — everything an operator pays once
// before the first steady-state operation, which is what setup_s
// reports.
func (h *harness) coldStart() (*instance, *deploy.Deployment, error) {
	in, err := generate(h.sp, h.cfg.seed, h.cfg.smoke)
	if err != nil {
		return nil, nil, err
	}
	if h.sp.churn {
		sup, err := supervisor.New(in.progs, in.topo, in.supervisorOptions(true))
		if err != nil {
			return nil, nil, err
		}
		return in, sup.Deployment(), nil
	}
	res, err := hermes.Deploy(in.progs, in.topo, in.deployOptions(true))
	if err != nil {
		return nil, nil, err
	}
	return in, res.Deployment, nil
}

// setup runs coldStart from scratch at least setupReps times, and for
// at least a second when a set-up is cheap; setup_s is the median. The
// last one stands.
func (h *harness) setup(res *timedResult) (*deploy.Deployment, error) {
	var st *deploy.Deployment
	res.setupSpeed.sample()
	start := time.Now()
	for i := 0; i < h.sp.setupReps || time.Since(start) < time.Second && i < 100; i++ {
		t := time.Now()
		in, s, err := h.coldStart()
		d := time.Since(t)
		if !h.tally.attempt("setup", firstErr(err, func() error { return checkDeployment(s) })) {
			return nil, fmt.Errorf("setup failed: %v", h.tally.errs)
		}
		res.setupS = append(res.setupS, d.Seconds())
		res.setupSpeed.sample()
		h.in, st = in, s
		if h.cfg.smoke {
			break
		}
	}
	return st, nil
}

// runTimed is the untraced pass: set-up, then the four closed-loop
// phases in rounds, then the replay equivalence check.
func (h *harness) runTimed() (*timedResult, error) {
	res := &timedResult{speed: newSpeedometer(), setupSpeed: newSpeedometer()}
	st, err := h.setup(res)
	if err != nil {
		return nil, err
	}
	hashes := planHashes{}
	h.warmUp(hashes)
	sh := h.sp.shares
	if h.sp.churn {
		h.runRounds(res,
			h.superviseNewPhase(res, hashes, sh[0]),
			h.churnPhase(res, hashes, sh[1]+sh[2]),
			h.replayPhase(res, st, sh[3]))
	} else {
		h.runRounds(res,
			h.deployPhase(res, hashes, false, sh[0]),
			h.deployPhase(res, hashes, true, sh[1]),
			h.healPhase(res, hashes, st, sh[2]),
			h.replayPhase(res, st, sh[3]))
	}
	res.amax, res.cross = st.Plan.AMax(), st.Plan.TotalCrossBytes()
	h.equivalenceCheck(st)
	return res, nil
}

// warmUp is the untimed deploy that leaves the standing topology's
// path oracle and the TDG memos as warm as an operator's, run once per
// worker count: every worker count must produce the same plan.
func (h *harness) warmUp(hashes planHashes) {
	in := h.in
	for _, w := range []int{1, max(workers, 2)} {
		opts := in.deployOptions(false)
		opts.Workers = w
		r, err := hermes.Deploy(in.progs, in.topo, opts)
		h.tally.attempt(fmt.Sprintf("warm-up deploy workers=%d", w), firstErr(err,
			func() error { return checkDeployment(r.Deployment) },
			func() error { return hashes.same("workers", r.Plan) }))
	}
}

// deployPhase times hermes.Deploy with the gates off (the CLI default
// and the paper's "execution time") or on (Lint + Equiv).
func (h *harness) deployPhase(res *timedResult, hashes planHashes, gated bool, share float64) *phase {
	in, key := h.in, "deploy"
	if gated {
		key = "gated_deploy"
	}
	opts := in.deployOptions(gated)
	return &phase{share: share, minOps: 2, step: func(int) {
		m0 := mallocs()
		t := time.Now()
		r, err := hermes.Deploy(in.progs, in.topo, opts)
		d := time.Since(t)
		m1 := mallocs()
		if !h.tally.attempt(key, firstErr(err,
			func() error { return checkDeployment(r.Deployment) },
			func() error { return hashes.same(key, r.Plan) })) {
			return
		}
		if gated {
			res.gatedMS.add(res.speed.now(), ms(d))
		} else {
			res.deployMS.add(res.speed.now(), ms(d))
			res.deployMallocs += m1 - m0
		}
	}}
}

// healPhase drains one of the standing plan's five busiest switches,
// round-robin from a seeded offset, and heals through the gated
// Redeploy and a transactional rollout. Each drain is a fifth of the
// samples, so p90 sits inside the slowest drain's samples and not on a
// class boundary.
func (h *harness) healPhase(res *timedResult, hashes planHashes, st *deploy.Deployment, share float64) *phase {
	in := h.in
	drains := busiest(st.Plan, 5)
	offset := int(uint64(in.seed) % uint64(len(drains)))
	solver, ropts := in.solver(), in.replanOptions(true)
	heal := func(i int) (d time.Duration, next *deploy.Deployment, rep *placement.ReplanReport, err error) {
		drain := drains[(i+offset)%len(drains)]
		var ro *hermes.Rollout
		var fab *hermes.RolloutMemFabric
		var rrep *hermes.RolloutReport
		t := time.Now()
		next, rep, err = hermes.Redeploy(st, solver, ropts, aopts, drain)
		if err == nil {
			// hermes.ExecuteRollout with the fabric held here, so the
			// torn-state check below can read it.
			fab = hermes.NewRolloutFabric(in.topo)
			fab.Bootstrap(st, 1)
			ro, err = hermes.NewRollout(st, next, hermes.RolloutOptions{Topo: in.topo, Equiv: true, Fabric: fab})
			if err == nil {
				rrep, err = ro.Execute()
			}
		}
		d = time.Since(t)
		err = firstErr(err,
			func() error {
				if rrep.Outcome != hermes.RolloutCommitted {
					return fmt.Errorf("rollout %s", rrep.Outcome)
				}
				return nil
			},
			func() error { return checkDeployment(next, drain) },
			func() error { return ro.View().CheckInstalled(fab) },
			func() error { return hashes.same(fmt.Sprintf("heal drain=%d", drain), next.Plan) })
		return d, next, rep, err
	}
	_, _, _, err := heal(0) // untimed warm-up
	h.tally.attempt("warm-up heal", err)
	moved := 0
	return &phase{share: share, minOps: len(drains), step: func(i int) {
		d, next, rep, err := heal(i)
		if !h.tally.attempt("heal", err) {
			return
		}
		res.healMS.add(res.speed.now(), ms(d))
		// The deterministic heal metrics cover exactly one round-robin
		// of the drains, whatever the op count.
		if i < len(drains) {
			res.healAmax = max(res.healAmax, next.Plan.AMax())
			moved += rep.MovedMATs
			res.healMoved = float64(moved) / float64(i+1)
		}
	}}
}

// replayPhase drives the seeded traffic matrix through the standing
// deployment; a sample is packets ÷ wall time of the whole call
// (packet synthesis, batch load and run).
func (h *harness) replayPhase(res *timedResult, st *deploy.Deployment, share float64) *phase {
	tm, n := h.in.replayTM, h.packets()
	replay := func(packets int) (float64, error) {
		// A call allocates a map per packet; collecting the previous
		// call's outside the window keeps the heap, and with it
		// peak_rss_mb, from depending on where a GC cycle happens to fall.
		runtime.GC()
		t := time.Now()
		r, err := hermes.ReplayTraffic(st, tm, packets, 256, 1)
		d := time.Since(t)
		return float64(packets) / d.Seconds(), firstErr(err, func() error {
			if r.Stats.Packets != packets {
				return fmt.Errorf("replayed %d of %d packets", r.Stats.Packets, packets)
			}
			return nil
		})
	}
	_, err := replay(min(n, 2000)) // untimed warm-up
	h.tally.attempt("warm-up replay", err)
	return &phase{share: share, minOps: 2, step: func(int) {
		pps, err := replay(n)
		if h.tally.attempt("replay", err) {
			res.replayPPS.add(res.speed.now(), pps)
		}
	}}
}

// equivalenceCheck cross-checks the standing deployment against the
// single-box reference interpreter wherever the symbolic checker has
// nothing to say; a deployment with (benign) findings is skipped and
// says so.
func (h *harness) equivalenceCheck(st *deploy.Deployment) {
	warn, errs, err := equivFindings(st.Plan.Graph, st)
	if !h.tally.attempt("equiv diagnose", err) {
		return
	}
	if warn+errs > 0 {
		h.tally.note("replay equivalence check skipped: equiv.Diagnose reports %d warning(s), %d error(s)", warn, errs)
		if errs > 0 {
			h.tally.attempt("equiv diagnose", fmt.Errorf("%d error finding(s) on the standing deployment", errs))
		}
		return
	}
	h.tally.attempt("replay equivalence", replayAgrees(st, h.sp.checkPackets, h.cfg.seed))
}

// The supervisor-driven lifecycle of churn workloads. deploy is
// supervisor.New on a fresh topology with Equiv off; a churn op builds
// a gated supervisor (one gated_deploy sample) and drives it through a
// whole fault schedule, one event at a time, polling to quiescence; the
// polls that replanned, shed or restored are the heal samples. (Replay
// stays on the set-up's fault-free standing deployment: a supervised
// plan's topology snapshot keeps the faults of its last replan, and
// ReplayTraffic cannot route the demands of a down switch.)

func (h *harness) buildSupervisor(gated bool) (time.Duration, *network.Topology, *supervisor.Supervisor, error) {
	topo, err := h.in.newTopo()
	if err != nil {
		return 0, nil, nil, err
	}
	t := time.Now()
	sup, err := supervisor.New(h.in.progs, topo, h.in.supervisorOptions(gated))
	return time.Since(t), topo, sup, err
}

// supervised lists the output checks of a supervisor at rest; key,
// when set, also pins its plan's hash.
func supervised(hashes planHashes, key string, topo *network.Topology, sup *supervisor.Supervisor) []func() error {
	return []func() error{
		func() error { return checkDeployment(sup.Deployment(), topo.DownSwitches()...) },
		func() error { return untorn(sup) },
		func() error {
			if key == "" {
				return nil
			}
			return hashes.same(key, sup.Deployment().Plan)
		},
	}
}

func (h *harness) superviseNewPhase(res *timedResult, hashes planHashes, share float64) *phase {
	return &phase{share: share, minOps: 2, step: func(int) {
		m0 := mallocs()
		d, topo, sup, err := h.buildSupervisor(false)
		m1 := mallocs()
		if h.tally.attempt("deploy", firstErr(err, supervised(hashes, "deploy", topo, sup)...)) {
			res.deployMS.add(res.speed.now(), ms(d))
			res.deployMallocs += m1 - m0
		}
	}}
}

func (h *harness) churnPhase(res *timedResult, hashes planHashes, share float64) *phase {
	return &phase{share: share, minOps: 2, step: func(pass int) {
		d, topo, sup, err := h.buildSupervisor(true)
		if !h.tally.attempt("gated_deploy", firstErr(err, supervised(hashes, "gated_deploy", topo, sup)...)) {
			return
		}
		res.gatedMS.add(res.speed.now(), ms(d))
		sched, err := h.in.schedule(topo, pass, h.cfg.smoke)
		if err != nil {
			h.tally.attempt("fault schedule", err)
			return
		}
		// Pass 0 runs the corpus schedule; the deterministic heal
		// metrics are taken on it alone.
		moved, heals := 0, 0
		for _, ev := range sched.Events {
			if !h.tally.attempt("fault event", ev.Apply(topo)) {
				return
			}
			err := quiesce(topo, sup, func(d time.Duration, prev *placement.Plan) {
				res.healMS.add(res.speed.now(), ms(d))
				m, _ := placement.Diff(prev, sup.Deployment().Plan)
				moved += m
				heals++
			})
			h.tally.attempt("heal", firstErr(err, supervised(hashes, "", topo, sup)...))
			if pass == 0 {
				res.healAmax = max(res.healAmax, sup.Deployment().Plan.AMax())
			}
		}
		if pass == 0 {
			if heals > 0 {
				res.healMoved = float64(moved) / float64(heals)
			}
			if s := sup.Stats(); s.ShedPrograms > 0 {
				h.tally.attempt("heal", fmt.Errorf("supervisor shed %d program(s) on the corpus schedule", s.ShedPrograms))
			}
		}
	}}
}

// quiesce polls until the monitor's confirmed view matches the fault
// overlay and the plan is consistent with it, reporting each poll that
// acted (replanned, shed or restored) with its wall time and the plan
// it replaced.
func quiesce(topo *network.Topology, sup *supervisor.Supervisor, acted func(time.Duration, *placement.Plan)) error {
	for i := 0; i < 80; i++ {
		prev := sup.Deployment().Plan
		t := time.Now()
		r, err := sup.Poll()
		d := time.Since(t)
		if err != nil {
			return err
		}
		if r.Replanned || len(r.Shed) > 0 || len(r.Restored) > 0 {
			acted(d, prev)
		}
		settled := len(r.Down) == 0 && len(r.Up) == 0 && len(r.Shed) == 0 && len(r.Restored) == 0
		if settled && monitorConverged(topo, sup.Monitor()) && !sup.PlanBroken() {
			return nil
		}
	}
	return fmt.Errorf("supervisor failed to quiesce in 80 polls")
}

func monitorConverged(topo *network.Topology, m *supervisor.Monitor) bool {
	conf := m.ConfirmedDown()
	if len(conf) != len(topo.DownSwitches()) {
		return false
	}
	for _, id := range conf {
		if !topo.SwitchIsDown(id) {
			return false
		}
	}
	return true
}

// untorn is the supervisor-side torn-state check: every switch hosting
// a MAT of the serving plan holds the serving epoch on the fabric.
func untorn(sup *supervisor.Supervisor) error {
	for name, sp := range sup.Deployment().Plan.Assignments {
		if !sup.Fabric().Installed(sp.Switch, sup.Epoch()) {
			return fmt.Errorf("torn state: MAT %q served from switch %d, which does not hold epoch %d", name, sp.Switch, sup.Epoch())
		}
	}
	return nil
}

// metrics turns the pass's samples into the end-to-end metrics.
func (r *timedResult) metrics(t *tally) map[string]metricValue {
	out := map[string]metricValue{}
	put := func(name string, v float64, n int) {
		for _, d := range endToEnd {
			if d.Name == name {
				out[name] = metricValue{Value: v, Unit: d.Unit, N: n}
			}
		}
	}
	t.note("host speed factor %.3f (%.3f–%.3f over %d kernel samples; set-up %.3f): timings are divided by it, rates multiplied",
		r.speed.factor(), slices.Min(r.speed.ms)/nominalKernelMS, slices.Max(r.speed.ms)/nominalKernelMS, len(r.speed.ms), r.setupSpeed.factor())
	deploy, gated := r.deployMS.atReferenceSpeed(r.speed, false), r.gatedMS.atReferenceSpeed(r.speed, false)
	heal, replay := r.healMS.atReferenceSpeed(r.speed, false), r.replayPPS.atReferenceSpeed(r.speed, true)
	put("setup_s", median(r.setupS)/r.setupSpeed.factor(), len(r.setupS))
	put("deploy_p50_ms", median(deploy), len(deploy))
	put("deploys_per_s", float64(len(deploy))/(sum(deploy)/1e3), len(deploy))
	put("gated_deploy_p50_ms", median(gated), len(gated))
	put("deploy_allocs_per_op", float64(r.deployMallocs)/math.Max(1, float64(len(deploy))), len(deploy))
	put("heal_p50_ms", median(heal), len(heal))
	p90, ok := percentileOrMax(heal, 0.9)
	if !ok {
		t.note("heal_p90_ms is the maximum: %d samples do not support a p90", len(heal))
	}
	put("heal_p90_ms", p90, len(heal))
	put("replay_pkts_per_s", median(replay), len(replay))
	put("amax_bytes", float64(r.amax), 0)
	put("cross_bytes_total", float64(r.cross), 0)
	put("heal_amax_bytes", float64(r.healAmax), 0)
	put("heal_moved_mats", r.healMoved, 0)
	put("peak_rss_mb", peakRSSMB(), 0)
	return out
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
