package equiv_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/dataplane"
	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/equiv"
	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/lint"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/p4lite"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
	"github.com/hermes-net/hermes/internal/workload"
)

var (
	fSrc = fields.Header(fields.IPv4Src, 32)
	fX   = fields.Metadata("meta.x", 32)
	fW   = fields.Metadata("meta.w", 32)
	fM   = fields.Metadata("meta.m", 32)
	fY   = fields.Metadata("meta.y", 32)
	fZ   = fields.Metadata("meta.z", 32)
)

// applyMutation selects a seeded source-level mutation of the carry
// pipeline's "apply" table.
type applyMutation int

const (
	applyClean       applyMutation = iota
	applyDefaultV                  // default action swapped u -> v (HE006)
	applyDefaultNone               // default action removed (HE006)
	applyDropZ                     // Set z=3 dropped from the default action (HE007)
	applyRuleValue8                // installed rule mutated to match x==8 (HE007)
)

// carryProgram is the two-table pipeline every mutation test riffs on:
// "gen" computes meta.x = ipv4.src + 7 (non-idempotent on purpose, so
// duplicated execution diverges), "apply" matches x exactly — rule
// x==7 sets y=99, the default copies y<-x and sets z=3. On the all-zero
// packet the rule hits; on the all-ones packet it misses and the
// default runs, so both the rule path and the default path have a
// deterministic divergence witness among the checker's candidates.
func carryProgram(t testing.TB, mut applyMutation) *program.Program {
	t.Helper()
	b := program.NewBuilder("p").
		Table("gen", 1).
		ActionDef("g", program.AddOp(fX, fSrc, 7)).
		Default("g").
		Table("apply", 1024).
		Key(fX, program.MatchExact)
	uOps := []program.Op{program.CopyOp(fY, fX), program.SetOp(fZ, 3)}
	if mut == applyDropZ {
		uOps = uOps[:1]
	}
	b = b.ActionDef("u", uOps...).
		ActionDef("v", program.SetOp(fY, 1)).
		ActionDef("r", program.SetOp(fY, 99))
	switch mut {
	case applyDefaultV:
		b = b.Default("v")
	case applyDefaultNone:
		// no default: a miss is a no-op
	default:
		b = b.Default("u")
	}
	val := uint64(7)
	if mut == applyRuleValue8 {
		val = 8
	}
	b = b.Rule(program.Rule{
		Matches: map[string]program.Pattern{"meta.x": {Value: val}},
		Action:  "r",
	})
	return b.MustBuild()
}

func mustAnalyze(t testing.TB, progs []*program.Program, opts analyzer.Options) *tdg.Graph {
	t.Helper()
	g, err := analyzer.Analyze(progs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// lineTopo builds n programmable switches with the given stage shape,
// chained by 1 ms links.
func lineTopo(t testing.TB, n, stages int, cap float64) *network.Topology {
	t.Helper()
	tp := network.NewTopology("equiv-test")
	for i := 0; i < n; i++ {
		tp.AddSwitch(network.Switch{
			Programmable: true, Stages: stages, StageCapacity: cap,
			TransitLatency: time.Microsecond,
		})
	}
	for i := 0; i+1 < n; i++ {
		if err := tp.AddLink(network.SwitchID(i), network.SwitchID(i+1), time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	return tp
}

// splitDeployment solves and compiles the carry pipeline onto two
// 1-stage switches whose capacity forces gen and apply apart.
func splitDeployment(t testing.TB, g *tdg.Graph) *deploy.Deployment {
	t.Helper()
	plan, err := (placement.Greedy{}).Solve(g, lineTopo(t, 2, 1, 0.5), placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	genSw, _ := plan.SwitchOf("p/gen")
	applySw, _ := plan.SwitchOf("p/apply")
	if genSw == applySw {
		t.Fatalf("fixture expects a split placement, both MATs on switch %d", int(genSw))
	}
	dep, err := deploy.Compile(plan, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return dep
}

func hasRule(fs lint.Findings, rule string) bool {
	for _, f := range fs {
		if f.Rule == rule {
			return true
		}
	}
	return false
}

// expectRejected asserts the deployment is rejected with the given HE
// rule and a replay-confirmed counterexample.
func expectRejected(t *testing.T, ref *tdg.Graph, dep *deploy.Deployment, rule string) *equiv.Report {
	t.Helper()
	if err := equiv.CheckDeployment(ref, dep); err == nil {
		t.Fatalf("mutated deployment passed the gate, want %s", rule)
	}
	rep, err := equiv.Diagnose(ref, dep)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatalf("Diagnose reports OK, want %s", rule)
	}
	if !hasRule(rep.Findings, rule) {
		t.Fatalf("findings %v lack expected rule %s", rep.Findings, rule)
	}
	if rep.Counterexample == nil {
		t.Fatalf("%s rejection has no replay-confirmed counterexample", rule)
	}
	if !equiv.Diverges(ref, dep, rep.Counterexample) {
		t.Fatalf("%s counterexample does not reproduce divergence on replay", rule)
	}
	// This call draws the pooled Checker the diagnostic pass just used;
	// leftover state must not turn the verdict.
	if err := equiv.CheckDeployment(ref, dep); err == nil {
		t.Fatalf("mutated deployment passed the gate after Diagnose, want %s", rule)
	}
	return rep
}

// stripField removes one metadata field from the coordination header of
// a switch pair, on the shared header map and both per-switch configs.
func stripField(dep *deploy.Deployment, key placement.RouteKey, name string) {
	hdr := dep.Headers[key]
	var out deploy.CoordHeader
	for _, f := range hdr.Fields {
		if f.Name == name {
			continue
		}
		out.Fields = append(out.Fields, f)
		out.Bytes += f.Bytes()
	}
	dep.Headers[key] = out
	dep.Configs[key.From].Exports[key.To] = out
	dep.Configs[key.To].Imports[key.From] = out
}

// injectField adds one field to a pair's coordination header, again on
// all three views the compiler keeps mirrored.
func injectField(dep *deploy.Deployment, key placement.RouteKey, f fields.Field) {
	hdr := dep.Headers[key]
	out := deploy.CoordHeader{Fields: append(append([]fields.Field(nil), hdr.Fields...), f)}
	sort.Slice(out.Fields, func(i, j int) bool { return out.Fields[i].Name < out.Fields[j].Name })
	out.Bytes = hdr.Bytes + f.Bytes()
	dep.Headers[key] = out
	dep.Configs[key.From].Exports[key.To] = out
	dep.Configs[key.To].Imports[key.From] = out
}

// moveMAT removes every stage entry of a MAT from one config and
// schedules it in stage 0 of another.
func moveMAT(dep *deploy.Deployment, name string, from, to network.SwitchID) {
	removeMAT(dep, name, from)
	cfg := dep.Configs[to]
	cfg.Stages[0] = append(cfg.Stages[0], deploy.StageEntry{MAT: name, Amount: 0.1})
}

func removeMAT(dep *deploy.Deployment, name string, from network.SwitchID) {
	cfg := dep.Configs[from]
	for i, st := range cfg.Stages {
		var kept []deploy.StageEntry
		for _, e := range st {
			if e.MAT != name {
				kept = append(kept, e)
			}
		}
		cfg.Stages[i] = kept
	}
}

func routeKey(t *testing.T, dep *deploy.Deployment, fromMAT, toMAT string) placement.RouteKey {
	t.Helper()
	from, ok := dep.Plan.SwitchOf(fromMAT)
	if !ok {
		t.Fatalf("no placement for %s", fromMAT)
	}
	to, ok := dep.Plan.SwitchOf(toMAT)
	if !ok {
		t.Fatalf("no placement for %s", toMAT)
	}
	return placement.RouteKey{From: from, To: to}
}

// TestCleanDeploymentProvesEquivalent is the green path: a solver
// plan compiles into a pipeline the checker proves equivalent, with
// the packet-replay twin agreeing.
func TestCleanDeploymentProvesEquivalent(t *testing.T) {
	g := mustAnalyze(t, []*program.Program{carryProgram(t, applyClean)}, analyzer.Options{})
	dep := splitDeployment(t, g)
	if err := equiv.CheckDeployment(nil, dep); err != nil {
		t.Fatalf("clean deployment rejected: %v", err)
	}
	rep, err := equiv.Diagnose(nil, dep)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("Diagnose not OK on clean deployment: %v", rep.Findings)
	}
	if ok, present := rep.Programs["p"]; !present || !ok {
		t.Fatalf("per-program verdict = %v, want p:true", rep.Programs)
	}
	if _, err := dataplane.EquivalentRuns(dep, replayPackets(g, 11, 32)); err != nil {
		t.Fatalf("replay twin disagrees with symbolic pass: %v", err)
	}
}

// TestRebuiltGraphBehaviorallyEqual checks against a *different* graph
// object rebuilt from identical source: the definitions differ by
// pointer but not behavior, so the gate must stay green.
func TestRebuiltGraphBehaviorallyEqual(t *testing.T) {
	ref := mustAnalyze(t, []*program.Program{carryProgram(t, applyClean)}, analyzer.Options{})
	g2 := mustAnalyze(t, []*program.Program{carryProgram(t, applyClean)}, analyzer.Options{})
	dep := splitDeployment(t, g2)
	if err := equiv.CheckDeployment(ref, dep); err != nil {
		t.Fatalf("behaviorally identical rebuild rejected: %v", err)
	}
}

// TestMutationOracle seeds the distributed pipeline with known
// equivalence-breaking mutations and requires each to be rejected with
// its expected HE rule and a replay-confirmed counterexample packet.
func TestMutationOracle(t *testing.T) {
	ref := mustAnalyze(t, []*program.Program{carryProgram(t, applyClean)}, analyzer.Options{})

	t.Run("HE004/carry-field-dropped", func(t *testing.T) {
		dep := splitDeployment(t, ref)
		stripField(dep, routeKey(t, dep, "p/gen", "p/apply"), "meta.x")
		expectRejected(t, ref, dep, equiv.RuleCarryMissing)
	})

	t.Run("HE004/import-side-desync", func(t *testing.T) {
		dep := splitDeployment(t, ref)
		key := routeKey(t, dep, "p/gen", "p/apply")
		delete(dep.Configs[key.To].Imports, key.From)
		expectRejected(t, ref, dep, equiv.RuleCarryMissing)
	})

	t.Run("HE003/mat-on-wrong-switch", func(t *testing.T) {
		dep := splitDeployment(t, ref)
		key := routeKey(t, dep, "p/gen", "p/apply")
		// "p/apply" sorts before "p/gen", so co-locating it in the same
		// stage makes it execute before its producer.
		moveMAT(dep, "p/apply", key.To, key.From)
		expectRejected(t, ref, dep, equiv.RuleReordered)
	})

	t.Run("HE003/stages-swapped", func(t *testing.T) {
		plan, err := (placement.Greedy{}).Solve(ref, lineTopo(t, 1, 2, 0.5), placement.Options{})
		if err != nil {
			t.Fatal(err)
		}
		gen, apply := plan.Assignments["p/gen"], plan.Assignments["p/apply"]
		if gen.Switch != apply.Switch || gen.Start == apply.Start {
			t.Fatalf("fixture expects co-located MATs in distinct stages, got %+v / %+v", gen, apply)
		}
		dep, err := deploy.Compile(plan, analyzer.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := dep.Configs[gen.Switch]
		cfg.Stages[0], cfg.Stages[1] = cfg.Stages[1], cfg.Stages[0]
		expectRejected(t, ref, dep, equiv.RuleReordered)
	})

	t.Run("HE001/mat-dropped", func(t *testing.T) {
		dep := splitDeployment(t, ref)
		sw, _ := dep.Plan.SwitchOf("p/apply")
		removeMAT(dep, "p/apply", sw)
		expectRejected(t, ref, dep, equiv.RuleMissingMAT)
	})

	t.Run("HE002/mat-duplicated", func(t *testing.T) {
		dep := splitDeployment(t, ref)
		key := routeKey(t, dep, "p/gen", "p/apply")
		// Second execution of the non-idempotent gen on the downstream
		// switch: x = (x+7) twice.
		cfg := dep.Configs[key.To]
		cfg.Stages[0] = append(cfg.Stages[0], deploy.StageEntry{MAT: "p/gen", Amount: 0.1})
		expectRejected(t, ref, dep, equiv.RuleExtraMAT)
	})

	t.Run("HE002/unknown-mat", func(t *testing.T) {
		dep := splitDeployment(t, ref)
		sw, _ := dep.Plan.SwitchOf("p/gen")
		cfg := dep.Configs[sw]
		cfg.Stages[0] = append(cfg.Stages[0], deploy.StageEntry{MAT: "p/ghost", Amount: 0.1})
		expectRejected(t, ref, dep, equiv.RuleExtraMAT)
	})

	t.Run("HE005/stale-relay-shadowing", func(t *testing.T) {
		g, dep := relayDeployment(t)
		// Surgically relay meta.x through the middle switch, which never
		// receives it: the later-visited upstream then shadows the fresh
		// direct delivery with a stale (empty) history.
		injectField(dep, routeKey(t, dep, "q/mid", "q/apply"), fX)
		expectRejected(t, g, dep, equiv.RuleAmbiguousCarry)
	})

	t.Run("HE006/default-swapped", func(t *testing.T) {
		g2 := mustAnalyze(t, []*program.Program{carryProgram(t, applyDefaultV)}, analyzer.Options{})
		expectRejected(t, ref, splitDeployment(t, g2), equiv.RuleDefaultAction)
	})

	t.Run("HE006/default-cleared", func(t *testing.T) {
		g2 := mustAnalyze(t, []*program.Program{carryProgram(t, applyDefaultNone)}, analyzer.Options{})
		expectRejected(t, ref, splitDeployment(t, g2), equiv.RuleDefaultAction)
	})

	t.Run("HE007/action-op-removed", func(t *testing.T) {
		g2 := mustAnalyze(t, []*program.Program{carryProgram(t, applyDropZ)}, analyzer.Options{})
		expectRejected(t, ref, splitDeployment(t, g2), equiv.RuleDefMismatch)
	})

	t.Run("HE007/rule-value-mutated", func(t *testing.T) {
		g2 := mustAnalyze(t, []*program.Program{carryProgram(t, applyRuleValue8)}, analyzer.Options{})
		expectRejected(t, ref, splitDeployment(t, g2), equiv.RuleDefMismatch)
	})

	t.Run("HE007/lpm-key-truncated", func(t *testing.T) {
		refG := mustAnalyze(t, []*program.Program{routeProgram(t, 16)}, analyzer.Options{})
		mutG := mustAnalyze(t, []*program.Program{routeProgram(t, 8)}, analyzer.Options{})
		plan, err := (placement.Greedy{}).Solve(mutG, lineTopo(t, 1, 1, 1), placement.Options{})
		if err != nil {
			t.Fatal(err)
		}
		dep, err := deploy.Compile(plan, analyzer.Options{})
		if err != nil {
			t.Fatal(err)
		}
		expectRejected(t, refG, dep, equiv.RuleDefMismatch)
	})

	t.Run("HE008/cyclic-switch-order", func(t *testing.T) {
		g, dep := cyclicDeployment(t)
		if err := equiv.CheckDeployment(g, dep); err == nil {
			t.Fatal("cyclic placement passed the gate")
		}
		rep, err := equiv.Diagnose(g, dep)
		if err != nil {
			t.Fatal(err)
		}
		if !hasRule(rep.Findings, equiv.RuleOrderUnreal) {
			t.Fatalf("findings %v lack %s", rep.Findings, equiv.RuleOrderUnreal)
		}
		if rep.Counterexample == nil {
			t.Fatal("cyclic placement has no counterexample (engine construction must fail)")
		}
	})
}

// routeProgram is a single LPM table over a dedicated header field,
// parameterized on the declared key width so a truncated-key mutant can
// be built from source. Rule: dst in 0xff00/8 sets meta.rw=5; miss sets 1.
func routeProgram(t testing.TB, bits int) *program.Program {
	t.Helper()
	dst := fields.Header("ipv4.dst", bits)
	rw := fields.Metadata("meta.rw", 8)
	return program.NewBuilder("rt").
		Table("route", 8).
		Key(dst, program.MatchLPM).
		ActionDef("hit", program.SetOp(rw, 5)).
		ActionDef("miss", program.SetOp(rw, 1)).
		Default("miss").
		Rule(program.Rule{
			Matches: map[string]program.Pattern{"ipv4.dst": {Value: 0xff00, PrefixLen: 8}},
			Action:  "hit",
		}).
		MustBuild()
}

// relayDeployment hand-places a three-table chain on three switches so
// the middle switch is a pure relay for meta.x's consumer: gen writes
// x and w on switch 0, mid consumes w on switch 1, apply consumes x
// and m on switch 2. Compiled with IntersectMatch so switch 1 never
// receives x — the precondition for the HE005 stale-relay mutation.
func relayDeployment(t *testing.T) (*tdg.Graph, *deploy.Deployment) {
	t.Helper()
	prog := program.NewBuilder("q").
		Table("gen", 1).
		ActionDef("g", program.SetOp(fX, 7), program.SetOp(fW, 1)).
		Default("g").
		Table("mid", 8).
		Key(fW, program.MatchExact).
		ActionDef("m", program.SetOp(fM, 1)).
		Default("m").
		Table("apply", 1024).
		Key(fX, program.MatchExact).
		Key(fM, program.MatchExact).
		ActionDef("u", program.CopyOp(fY, fX)).
		ActionDef("r", program.SetOp(fY, 99)).
		Default("u").
		Rule(program.Rule{
			Matches: map[string]program.Pattern{"meta.x": {Value: 7}},
			Action:  "r",
		}).
		MustBuild()
	aopts := analyzer.Options{IntersectMatch: true}
	g := mustAnalyze(t, []*program.Program{prog}, aopts)
	tp := lineTopo(t, 3, 1, 1)
	sp := func(sw int) placement.StagePlacement {
		return placement.StagePlacement{
			Switch: network.SwitchID(sw), Start: 0, End: 0, PerStage: []float64{0.3},
		}
	}
	plan := &placement.Plan{
		Graph: g, Topo: tp, SolverName: "hand",
		Assignments: map[string]placement.StagePlacement{
			"q/gen": sp(0), "q/mid": sp(1), "q/apply": sp(2),
		},
	}
	dep, err := deploy.Compile(plan, aopts)
	if err != nil {
		t.Fatal(err)
	}
	// Precondition: switch 1 must not receive meta.x.
	for _, f := range dep.Headers[placement.RouteKey{From: 0, To: 1}].Fields {
		if f.Name == "meta.x" {
			t.Fatal("fixture broken: relay switch already receives meta.x")
		}
	}
	if err := equiv.CheckDeployment(g, dep); err != nil {
		t.Fatalf("clean relay deployment rejected: %v", err)
	}
	return g, dep
}

// cyclicDeployment hand-builds a placement whose switch-contracted
// dependency graph is cyclic: a@0 -> b@1 -> c@0.
func cyclicDeployment(t *testing.T) (*tdg.Graph, *deploy.Deployment) {
	t.Helper()
	g := tdg.New()
	mk := func(n string) *program.MAT {
		return &program.MAT{
			Name: n, Capacity: 4,
			Actions: []program.Action{{
				Name: "a", Ops: []program.Op{program.SetOp(fields.Metadata("meta."+n, 8), 1)},
			}},
			DefaultAction: "a",
		}
	}
	for _, n := range []string{"a", "b", "c"} {
		if err := g.AddNode(mk(n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge("a", "b", tdg.DepMatch, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("b", "c", tdg.DepMatch, 1); err != nil {
		t.Fatal(err)
	}
	sp := func(sw int) placement.StagePlacement {
		return placement.StagePlacement{
			Switch: network.SwitchID(sw), Start: 0, End: 0, PerStage: []float64{0.2},
		}
	}
	plan := &placement.Plan{
		Graph: g, Topo: lineTopo(t, 2, 1, 1), SolverName: "hand",
		Assignments: map[string]placement.StagePlacement{
			"a": sp(0), "b": sp(1), "c": sp(0),
		},
	}
	dep, err := deploy.Compile(plan, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g, dep
}

// TestBenignShuffleWarnsWithoutGating: a hand-built graph with an
// unconstrained writer (no TDG edge orders it against the reader)
// reordered across the cut yields an HE010 warning — and the gate stays
// green, because the analyzer-guaranteed edge-connectedness that makes
// the shuffle dangerous is absent by construction.
func TestBenignShuffleWarnsWithoutGating(t *testing.T) {
	f5 := fields.Metadata("meta.f", 8)
	g := tdg.New()
	w := &program.MAT{Name: "w", Capacity: 4, DefaultAction: "a",
		Actions: []program.Action{{Name: "a", Ops: []program.Op{program.SetOp(f5, 5)}}}}
	z := &program.MAT{Name: "z", Capacity: 4, DefaultAction: "a",
		Actions: []program.Action{{Name: "a", Ops: []program.Op{program.SetOp(f5, 5)}}}}
	r := &program.MAT{Name: "r", Capacity: 4, DefaultAction: "a",
		Actions: []program.Action{{Name: "a", Ops: []program.Op{program.CopyOp(fY, f5)}}}}
	for _, m := range []*program.MAT{w, z, r} {
		if err := g.AddNode(m); err != nil {
			t.Fatal(err)
		}
	}
	// Only w is ordered against the reader; z floats free (an omission
	// the dependency analyzer would never produce).
	if err := g.AddEdge("w", "r", tdg.DepMatch, 1); err != nil {
		t.Fatal(err)
	}
	sp := func(sw int) placement.StagePlacement {
		return placement.StagePlacement{
			Switch: network.SwitchID(sw), Start: 0, End: 0, PerStage: []float64{0.2},
		}
	}
	plan := &placement.Plan{
		Graph: g, Topo: lineTopo(t, 3, 1, 1), SolverName: "hand",
		Assignments: map[string]placement.StagePlacement{
			"w": sp(0), "r": sp(1), "z": sp(2),
		},
	}
	dep, err := deploy.Compile(plan, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := equiv.CheckDeployment(g, dep); err != nil {
		t.Fatalf("benign shuffle must not gate: %v", err)
	}
	rep, err := equiv.Diagnose(g, dep)
	if err != nil {
		t.Fatal(err)
	}
	if !hasRule(rep.Findings, equiv.RuleBenignShuffle) {
		t.Fatalf("findings %v lack %s warning", rep.Findings, equiv.RuleBenignShuffle)
	}
	if rep.Findings.HasErrors() {
		t.Fatalf("benign shuffle produced errors: %v", rep.Findings)
	}
	// The writes commute (same value), so the replay twin agrees.
	if _, err := dataplane.EquivalentRuns(dep, replayPackets(g, 3, 8)); err != nil {
		t.Fatalf("replay diverged on benign shuffle: %v", err)
	}
}

// replayPackets synthesizes a deterministic packet stream over the
// graph's header fields for differential replay.
func replayPackets(g *tdg.Graph, seed int64, n int) []*dataplane.Packet {
	rng := rand.New(rand.NewSource(seed))
	var hdrs []fields.Field
	seen := map[string]bool{}
	for _, node := range g.Nodes() {
		for _, k := range node.MAT.Keys {
			if !k.Field.IsMetadata() && !seen[k.Field.Name] {
				seen[k.Field.Name] = true
				hdrs = append(hdrs, k.Field)
			}
		}
		for _, a := range node.MAT.Actions {
			for _, op := range a.Ops {
				for _, f := range append([]fields.Field{op.Dst}, op.Srcs...) {
					if !f.IsMetadata() && !seen[f.Name] {
						seen[f.Name] = true
						hdrs = append(hdrs, f)
					}
				}
			}
		}
	}
	sort.Slice(hdrs, func(i, j int) bool { return hdrs[i].Name < hdrs[j].Name })
	out := make([]*dataplane.Packet, n)
	for i := range out {
		p := &dataplane.Packet{Headers: map[string]uint64{}}
		for _, f := range hdrs {
			mask := uint64(1)<<uint(f.Bits) - 1
			if f.Bits >= 64 {
				mask = ^uint64(0)
			}
			p.Headers[f.Name] = rng.Uint64() & mask
		}
		out[i] = p
	}
	return out
}

// TestSolverPlansProveEquivalent is the zero-false-rejection
// acceptance sweep: every Greedy and Exact plan for the real program
// mix on the paper's Table III topologies must pass the plan-level and
// deployment-level symbolic gates, agree with Plan.Validate, and agree
// with sampled packet replay.
func TestSolverPlansProveEquivalent(t *testing.T) {
	progs := workload.RealPrograms()[:3]
	g := mustAnalyze(t, progs, analyzer.Options{})
	checker, err := equiv.NewChecker(g)
	if err != nil {
		t.Fatal(err)
	}
	solvers := []placement.Solver{placement.Greedy{}, placement.Exact{}}
	rows := network.NumTableIII()
	if testing.Short() {
		rows = 3
	}
	for idx := 1; idx <= rows; idx++ {
		topo, err := network.TableIII(idx, network.TofinoSpec())
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range solvers {
			opts := placement.Options{Deadline: time.Now().Add(3 * time.Second)}
			plan, err := s.Solve(g.Clone(), topo, opts)
			if err != nil {
				t.Fatalf("table3:%d %s: %v", idx, s.Name(), err)
			}
			if err := plan.Validate(program.DefaultResourceModel, 0, 0); err != nil {
				t.Fatalf("table3:%d %s: validate: %v", idx, s.Name(), err)
			}
			if err := checker.CheckPlan(plan, analyzer.Options{}); err != nil {
				t.Errorf("table3:%d %s: false plan rejection: %v", idx, s.Name(), err)
			}
			dep, err := deploy.Compile(plan, analyzer.Options{})
			if err != nil {
				t.Fatalf("table3:%d %s: %v", idx, s.Name(), err)
			}
			if err := checker.Check(dep); err != nil {
				t.Errorf("table3:%d %s: false deployment rejection: %v", idx, s.Name(), err)
			}
			if _, err := dataplane.EquivalentRuns(dep, replayPackets(g, int64(idx), 8)); err != nil {
				t.Errorf("table3:%d %s: replay twin disagrees: %v", idx, s.Name(), err)
			}
		}
	}
}

// TestShardedPlanProvesEquivalent runs the region-sharded solver on a
// composite WAN and proves its reconciled plan equivalent.
func TestShardedPlanProvesEquivalent(t *testing.T) {
	progs := workload.RealPrograms()[:3]
	g := mustAnalyze(t, progs, analyzer.Options{})
	topo, err := network.CompositeWAN(3, network.TofinoSpec(), 7)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := (placement.ShardedGreedy{}).Solve(g, topo, placement.Options{
		Shards: 3, Deadline: time.Now().Add(5 * time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := equiv.CheckPlanAgainst(g, plan, analyzer.Options{}); err != nil {
		t.Fatalf("sharded plan falsely rejected: %v", err)
	}
	dep, err := deploy.Compile(plan, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := equiv.CheckDeployment(g, dep); err != nil {
		t.Fatalf("sharded deployment falsely rejected: %v", err)
	}
}

// TestRedeployEquivGate drains a switch and requires the Equiv-gated
// Redeploy to produce a proven-equivalent successor.
func TestRedeployEquivGate(t *testing.T) {
	g := mustAnalyze(t, []*program.Program{carryProgram(t, applyClean)}, analyzer.Options{})
	plan, err := (placement.Greedy{}).Solve(g, lineTopo(t, 3, 1, 0.5), placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := deploy.Compile(plan, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	applySw, _ := plan.SwitchOf("p/apply")
	ropts := placement.ReplanOptions{}
	ropts.Equiv = true
	next, _, err := deploy.Redeploy(dep, placement.Greedy{}, ropts, analyzer.Options{}, applySw)
	if err != nil {
		t.Fatalf("equiv-gated redeploy failed: %v", err)
	}
	if err := equiv.CheckDeployment(g, next); err != nil {
		t.Fatalf("redeployed pipeline not equivalent: %v", err)
	}
	if sw, _ := next.Plan.SwitchOf("p/apply"); sw == applySw {
		t.Fatalf("apply still on drained switch %d", int(applySw))
	}
}

// TestPlanEquivHookGating checks the solver-side wiring: Options.Equiv
// invokes the registered hook and folds its rejection into the solve
// error.
func TestPlanEquivHookGating(t *testing.T) {
	g := mustAnalyze(t, []*program.Program{carryProgram(t, applyClean)}, analyzer.Options{})
	topo := lineTopo(t, 2, 1, 0.5)

	t.Run("default hook green", func(t *testing.T) {
		if _, err := (placement.Greedy{}).Solve(g.Clone(), topo, placement.Options{Equiv: true}); err != nil {
			t.Fatalf("equiv-gated solve of clean workload failed: %v", err)
		}
	})

	t.Run("rejection propagates", func(t *testing.T) {
		old := placement.PlanEquivHook
		defer func() { placement.PlanEquivHook = old }()
		calls := 0
		placement.PlanEquivHook = func(p *placement.Plan, _ placement.Options) error {
			calls++
			return errTest
		}
		_, err := (placement.Greedy{}).Solve(g.Clone(), topo, placement.Options{Equiv: true})
		if err == nil || !strings.Contains(err.Error(), "equivalence") {
			t.Fatalf("hook rejection not propagated: %v", err)
		}
		if calls == 0 {
			t.Fatal("hook never invoked")
		}
		// Without the flag the hook must not run.
		calls = 0
		if _, err := (placement.Greedy{}).Solve(g.Clone(), topo, placement.Options{}); err != nil {
			t.Fatal(err)
		}
		if calls != 0 {
			t.Fatal("hook invoked without Options.Equiv")
		}
	})
}

type testErr string

func (e testErr) Error() string { return string(e) }

const errTest = testErr("seeded hook failure")

// TestCheckIsAllocationFree proves the steady-state green gate
// allocates nothing after warmup — the property the //hermes:hot inner
// loops and the HV006 lint rule protect.
func TestCheckIsAllocationFree(t *testing.T) {
	g := mustAnalyze(t, []*program.Program{carryProgram(t, applyClean)}, analyzer.Options{})
	dep := splitDeployment(t, g)
	c, err := equiv.NewChecker(g)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // warm the scratch
		if err := c.Check(dep); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.Check(dep); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Check allocates %.1f objects/op in steady state, want 0", allocs)
	}
}

func BenchmarkCheckDeployment(b *testing.B) {
	progs := workload.RealPrograms()[:3]
	g := mustAnalyze(b, progs, analyzer.Options{})
	topo, err := network.TableIII(1, network.TofinoSpec())
	if err != nil {
		b.Fatal(err)
	}
	plan, err := (placement.Greedy{}).Solve(g, topo, placement.Options{})
	if err != nil {
		b.Fatal(err)
	}
	dep, err := deploy.Compile(plan, analyzer.Options{})
	if err != nil {
		b.Fatal(err)
	}
	c, err := equiv.NewChecker(g)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Check(dep); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Check(dep); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzEquiv cross-checks the symbolic verdict against sampled packet
// replay on solver-produced deployments of fuzzer-chosen program mixes
// (the workload family plus p4lite sources seeded from examples/p4src):
// a symbolic pass must imply a replay pass, and solver plans must never
// be falsely rejected.
func FuzzEquiv(f *testing.F) {
	paths, _ := filepath.Glob(filepath.Join("..", "..", "examples", "p4src", "*.p4"))
	for i, p := range paths {
		if data, err := os.ReadFile(p); err == nil {
			f.Add(string(data), uint8(i), uint16(i))
		}
	}
	f.Add("", uint8(0), uint16(1))
	f.Add("", uint8(3), uint16(42))
	f.Fuzz(func(t *testing.T, src string, topoSel uint8, pktSeed uint16) {
		progs := workload.RealPrograms()[:2]
		if src != "" {
			p, err := p4lite.Parse(src)
			if err != nil {
				return
			}
			progs = append(progs, p)
		}
		g, err := analyzer.Analyze(progs, analyzer.Options{})
		if err != nil {
			return
		}
		topo, err := network.TableIII(1+int(topoSel)%network.NumTableIII(), network.TofinoSpec())
		if err != nil {
			return
		}
		plan, err := (placement.Greedy{}).Solve(g, topo, placement.Options{
			Deadline: time.Now().Add(3 * time.Second),
		})
		if err != nil {
			return
		}
		dep, err := deploy.Compile(plan, analyzer.Options{})
		if err != nil {
			return
		}
		symErr := equiv.CheckDeployment(nil, dep)
		if symErr != nil {
			t.Fatalf("solver plan falsely rejected by symbolic gate: %v", symErr)
		}
		if _, err := dataplane.EquivalentRuns(dep, replayPackets(g, int64(pktSeed), 6)); err != nil {
			t.Fatalf("symbolic pass but replay divergence: %v", err)
		}
	})
}
