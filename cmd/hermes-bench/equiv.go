// The "equiv" experiment measures the symbolic plan-equivalence
// checker against the packet-replay differential it supersedes as the
// deployment gate. Every row solves one Table III instance, compiles
// it, and measures (a) the steady-state symbolic Check — the fast path
// a Deploy/Redeploy/Supervisor gate pays on every adoption — and (b)
// the sampled replay it replaces, the dual condition's calibrator
// (slack 1.25: the replay is a ~1 ms measurement the allocating checks
// jitter ±12 % against run to run; EXPERIMENTS.md, Equiv).
package main

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	hermes "github.com/hermes-net/hermes"
	"github.com/hermes-net/hermes/internal/dataplane"
	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/equiv"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/tdg"
	"github.com/hermes-net/hermes/internal/workload"
)

const (
	// equivBudgetNs is the per-program budget of one symbolic check:
	// 10 ms, three orders of magnitude above the measured cost, so it
	// holds on any host that can run the suite at all.
	equivBudgetNs = 10e6
	// equivReplayRatio: the symbolic check must beat the sampled replay
	// it replaces by this factor, same host, same process.
	equivReplayRatio = 5.0
	// equivReps / equivReplayPackets size the measurement.
	equivReps          = 5
	equivReplayPackets = 64
)

// equivFixture names one workload/topology cell of the sweep. The
// first pins the allocation-free contract: the real-program fixture's
// benign WAW interleaving is covered by the checker's order-free
// relaxation, so its steady-state Check must stay on the alloc-free
// walkClean path. The synthetic mixed fixtures contain read-side HE010
// interleavings that force the allocating diagnose pass on every check;
// they gate the time budget, not allocations.
type equivFixture struct {
	name     string
	programs int
	topoID   int
	mixed    bool
}

var equivFixtures = []equivFixture{
	{name: "real4_tableIII1", programs: 4, topoID: 1},
	{name: "mixed10_tableIII2", programs: 10, topoID: 2, mixed: true},
	{name: "mixed20_tableIII5", programs: 20, topoID: 5, mixed: true},
}

// equivPoint is one fixture measurement. findings counts the checker's
// non-gating warnings (benign HE010 interleavings).
type equivPoint struct {
	equivFixture
	mats, switches, findings int
	symbolic, replay         testing.BenchmarkResult
}

var equivExp = experiment{
	name: "equiv", title: "Equiv: symbolic equivalence checker vs packet replay",
	baseline: true,
	tables: []table{{name: "rows",
		cols: []column{
			col(key, "name", "fixture", "", func(p equivPoint) any { return p.name }),
			col(det, "programs", "progs", "", func(p equivPoint) any { return p.programs }),
			col(det, "mats", "mats", "", func(p equivPoint) any { return p.mats }),
			col(det, "switches", "sw", "", func(p equivPoint) any { return p.switches }),
			col(det, "findings", "warns", "", func(p equivPoint) any { return p.findings }),
			col(timing, "symbolic_ns_per_op", "symbolic ns/op", "", func(p equivPoint) any { return p.symbolic.NsPerOp() }).dual("replay_ratio", 1.10, 1.25),
			col(alloc, "symbolic_allocs_per_op", "allocs/op", "", func(p equivPoint) any { return p.symbolic.AllocsPerOp() }),
			col(timing, "ns_per_program", "ns/program", "%.0f", func(p equivPoint) any { return float64(p.symbolic.NsPerOp()) / float64(p.programs) }),
			col(timing, "replay_ns_per_op", "replay ns/op", "", func(p equivPoint) any { return p.replay.NsPerOp() }),
			col(timing, "replay_ratio", "ratio", "%.0fx", func(p equivPoint) any { return ratio(p.replay.NsPerOp(), p.symbolic.NsPerOp()) }).up(),
		},
		checks: []check{
			bound("ns_per_program", "<", equivBudgetNs),
			bound("symbolic_allocs_per_op", "==", 0).when("on the fast-path fixture",
				func(r row) bool { return r.Key == equivFixtures[0].name }),
			bound("replay_ratio", ">=", equivReplayRatio),
		},
	}},
	run: func(c *runCtx) (result, error) {
		reps := equivReps
		if c.smoke {
			reps = 2
		}
		var pts []equivPoint
		for _, fx := range equivFixtures {
			p, err := measureEquiv(fx, c.cfg.Seed, reps)
			if err != nil {
				return result{}, err
			}
			pts = append(pts, p)
		}
		return oneTable(nil, pts), nil
	},
}

// measureEquiv solves, compiles, and measures one fixture.
func measureEquiv(fx equivFixture, seed int64, reps int) (equivPoint, error) {
	progs := workload.RealPrograms()
	if fx.mixed {
		var err error
		if progs, err = workload.EvaluationPrograms(fx.programs, seed); err != nil {
			return equivPoint{}, err
		}
	} else {
		progs = progs[:fx.programs]
	}
	plan, err := tableIIIPlan(progs, fx.topoID, 0, placement.Options{})
	if err != nil {
		return equivPoint{}, err
	}
	merged := plan.Graph
	dep, err := deploy.Compile(plan, hermes.AnalyzeOptions{})
	if err != nil {
		return equivPoint{}, err
	}
	checker, err := equiv.NewChecker(merged)
	if err != nil {
		return equivPoint{}, err
	}
	if err := checker.Check(dep); err != nil {
		return equivPoint{}, fmt.Errorf("equiv: fixture %s not equivalent: %w", fx.name, err)
	}
	report, err := equiv.Diagnose(merged, dep)
	if err != nil {
		return equivPoint{}, err
	}

	symbolic := measureBest(reps, loop(func(int) error { return checker.Check(dep) }))

	// The replay twin is measured as raw engine cost — one distributed
	// and one reference run per packet, an upper bound on the work
	// VerifyEquivalence does before comparing write histories. The
	// comparison itself is not part of the measurement: synthetic mixed
	// workloads contain unordered non-commuting writers (the checker's
	// benign HE010 findings), so replay's final states legitimately
	// differ between the two schedules on adversarial inputs.
	eng, err := dataplane.NewEngine(dep)
	if err != nil {
		return equivPoint{}, err
	}
	refEng, err := dataplane.NewReferenceEngine(dep.Plan.Graph)
	if err != nil {
		return equivPoint{}, err
	}
	pkts := equivReplayStream(merged, seed, equivReplayPackets)
	replay := measureBest(reps, loop(func(int) error {
		for _, p := range pkts {
			if _, err := eng.Process(p.Clone()); err != nil {
				return err
			}
			if _, err := refEng.Process(p.Clone()); err != nil {
				return err
			}
		}
		return nil
	}))

	return equivPoint{
		equivFixture: fx,
		mats:         merged.NumNodes(),
		switches:     plan.QOcc(),
		findings:     len(report.Findings),
		symbolic:     symbolic,
		replay:       replay,
	}, nil
}

// equivReplayStream synthesizes a deterministic packet stream over the
// graph's header fields (match keys plus action operands), width-masked
// so every field stays in range.
func equivReplayStream(g *tdg.Graph, seed int64, n int) []*dataplane.Packet {
	bits := map[string]int{}
	for _, node := range g.Nodes() {
		m := node.MAT
		for _, k := range m.Keys {
			if !k.Field.IsMetadata() {
				bits[k.Field.Name] = k.Field.Bits
			}
		}
		for _, a := range m.Actions {
			for _, op := range a.Ops {
				if !op.Dst.IsMetadata() {
					bits[op.Dst.Name] = op.Dst.Bits
				}
				for _, s := range op.Srcs {
					if !s.IsMetadata() {
						bits[s.Name] = s.Bits
					}
				}
			}
		}
	}
	names := make([]string, 0, len(bits))
	for name := range bits {
		names = append(names, name)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(seed))
	out := make([]*dataplane.Packet, n)
	for i := range out {
		hdr := make(map[string]uint64, len(names))
		for _, name := range names {
			mask := uint64(1)<<uint(bits[name]) - 1
			if bits[name] >= 64 {
				mask = ^uint64(0)
			}
			hdr[name] = rng.Uint64() & mask
		}
		out[i] = &dataplane.Packet{Headers: hdr}
	}
	return out
}
