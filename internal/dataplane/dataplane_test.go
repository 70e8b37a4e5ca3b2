package dataplane

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

// measurementProgram is a realistic three-stage pipeline: hash the
// 5-tuple into an index, count by index, and flag heavy hitters by a
// range match on the count.
func measurementProgram(t testing.TB) *program.Program {
	t.Helper()
	idx := fields.Metadata("meta.idx", 32)
	cnt := fields.Metadata("meta.cnt", 32)
	heavy := fields.Metadata("meta.heavy", 8)
	src := fields.Header(fields.IPv4Src, 32)
	dst := fields.Header(fields.IPv4Dst, 32)

	return program.NewBuilder("hh").
		Table("hash", 1).
		ActionDef("mix", program.HashOp(idx, src, dst)).
		Default("mix").
		Table("count", 4096).
		Key(idx, program.MatchExact).
		ActionDef("bump", program.CountOp(cnt, idx)).
		Default("bump").
		Table("mark", 4).
		Key(cnt, program.MatchRange).
		ActionDef("flag", program.SetOp(heavy, 1)).
		ActionDef("clear", program.SetOp(heavy, 0)).
		Default("clear").
		Rule(program.Rule{
			Priority: 10,
			Matches:  map[string]program.Pattern{"meta.cnt": {Lo: 3, Hi: 1 << 30}},
			Action:   "flag",
		}).
		MustBuild()
}

// deployOnTestbed analyzes the program, deploys it with Hermes on a
// small testbed forcing a multi-switch split, and compiles it.
func deployOnTestbed(t testing.TB) *deploy.Deployment {
	t.Helper()
	g, err := analyzer.Analyze([]*program.Program{measurementProgram(t)}, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Force every MAT onto its own switch: 1 stage each, tight capacity.
	rm := program.DefaultResourceModel
	tp := network.NewTopology("testbed")
	for i := 0; i < 3; i++ {
		tp.AddSwitch(network.Switch{
			Programmable:   true,
			Stages:         1,
			StageCapacity:  0.5,
			TransitLatency: time.Microsecond,
		})
	}
	for i := 0; i < 2; i++ {
		if err := tp.AddLink(network.SwitchID(i), network.SwitchID(i+1), time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := (placement.Greedy{}).Solve(g, tp, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(rm, 0, 0); err != nil {
		t.Fatal(err)
	}
	if plan.QOcc() < 2 {
		t.Fatalf("test expects a multi-switch deployment, got %d switches", plan.QOcc())
	}
	dep, err := deploy.Compile(plan, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.Verify(); err != nil {
		t.Fatal(err)
	}
	return dep
}

func randomPackets(n int, seed int64) []*Packet {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*Packet, n)
	for i := range out {
		out[i] = &Packet{Headers: map[string]uint64{
			fields.IPv4Src: uint64(rng.Intn(8)), // few flows so counts climb
			fields.IPv4Dst: uint64(rng.Intn(4)),
		}}
	}
	return out
}

func TestDistributedMatchesReference(t *testing.T) {
	dep := deployOnTestbed(t)
	maxHdr, err := EquivalentRuns(dep, randomPackets(200, 1))
	if err != nil {
		t.Fatal(err)
	}
	if maxHdr <= 0 {
		t.Error("multi-switch deployment reported zero header bytes")
	}
	// The measured on-wire header must never exceed the plan's A_max.
	if maxHdr > dep.Plan.AMax() {
		t.Errorf("measured header %dB exceeds planned A_max %dB", maxHdr, dep.Plan.AMax())
	}
}

func TestHeavyHitterFlagging(t *testing.T) {
	dep := deployOnTestbed(t)
	eng, err := NewEngine(dep)
	if err != nil {
		t.Fatal(err)
	}
	// Send the same flow 5 times; the 3rd packet onward must be heavy.
	var lastHeavy uint64
	for i := 0; i < 5; i++ {
		pkt := &Packet{Headers: map[string]uint64{fields.IPv4Src: 1, fields.IPv4Dst: 2}}
		res, err := eng.Process(pkt)
		if err != nil {
			t.Fatal(err)
		}
		lastHeavy = res.Writes["meta.heavy"]
		if i < 2 && lastHeavy != 0 {
			t.Errorf("packet %d flagged heavy too early", i)
		}
	}
	if lastHeavy != 1 {
		t.Error("5th packet of the flow not flagged heavy")
	}
}

func TestMissingHeaderFieldIsDetected(t *testing.T) {
	dep := deployOnTestbed(t)
	// Sabotage: remove every coordination header so downstream reads of
	// upstream metadata must fail.
	for key := range dep.Headers {
		hdr := dep.Headers[key]
		hdr.Fields = nil
		hdr.Bytes = 0
		dep.Headers[key] = hdr
	}
	for _, cfg := range dep.Configs {
		for to := range cfg.Exports {
			cfg.Exports[to] = deploy.CoordHeader{}
		}
		for from := range cfg.Imports {
			cfg.Imports[from] = deploy.CoordHeader{}
		}
	}
	_, err := EquivalentRuns(dep, randomPackets(3, 2))
	if err == nil {
		t.Fatal("stripped coordination headers went undetected")
	}
}

func TestReferenceEngineCounts(t *testing.T) {
	g, err := analyzer.Analyze([]*program.Program{measurementProgram(t)}, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewReferenceEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		res, err := ref.Process(&Packet{Headers: map[string]uint64{fields.IPv4Src: 9, fields.IPv4Dst: 9}})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Writes["meta.cnt"]; got != uint64(i) {
			t.Errorf("count after %d packets = %d", i, got)
		}
	}
}

func TestMatchKinds(t *testing.T) {
	exec := newMATExecutor()
	mk := func(typ program.MatchType, pat program.Pattern, v uint64) bool {
		f := fields.Header("h", 32)
		m := &program.MAT{
			Name:     "t",
			Capacity: 4,
			Keys:     []program.MatchKey{{Field: f, Type: typ}},
			Actions: []program.Action{{Name: "hit", Ops: []program.Op{
				program.SetOp(fields.Metadata("meta.hit", 8), 1)}}},
			Rules: []program.Rule{{Matches: map[string]program.Pattern{"h": pat}, Action: "hit"}},
		}
		pkt := &Packet{Headers: map[string]uint64{"h": v}}
		ctx := newContext(pkt)
		if err := exec.execute(m, ctx, map[string]bool{}); err != nil {
			t.Fatal(err)
		}
		return ctx.meta["meta.hit"] == 1
	}
	tests := []struct {
		name string
		typ  program.MatchType
		pat  program.Pattern
		v    uint64
		want bool
	}{
		{"exact hit", program.MatchExact, program.Pattern{Value: 7}, 7, true},
		{"exact miss", program.MatchExact, program.Pattern{Value: 7}, 8, false},
		{"lpm hit", program.MatchLPM, program.Pattern{Value: 0x0A000000, PrefixLen: 8}, 0x0A0B0C0D, true},
		{"lpm miss", program.MatchLPM, program.Pattern{Value: 0x0A000000, PrefixLen: 8}, 0x0B000000, false},
		{"lpm zero prefix", program.MatchLPM, program.Pattern{}, 12345, true},
		{"ternary hit", program.MatchTernary, program.Pattern{Value: 0xF0, Mask: 0xF0}, 0xF7, true},
		{"ternary miss", program.MatchTernary, program.Pattern{Value: 0xF0, Mask: 0xF0}, 0x17, false},
		{"range hit", program.MatchRange, program.Pattern{Lo: 5, Hi: 10}, 7, true},
		{"range edge lo", program.MatchRange, program.Pattern{Lo: 5, Hi: 10}, 5, true},
		{"range miss", program.MatchRange, program.Pattern{Lo: 5, Hi: 10}, 11, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := mk(tt.typ, tt.pat, tt.v); got != tt.want {
				t.Errorf("match = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestRulePriorityOrder(t *testing.T) {
	exec := newMATExecutor()
	f := fields.Header("h", 16)
	out := fields.Metadata("meta.out", 16)
	m := &program.MAT{
		Name:     "t",
		Capacity: 4,
		Keys:     []program.MatchKey{{Field: f, Type: program.MatchTernary}},
		Actions: []program.Action{{Name: "set", Ops: []program.Op{
			program.SetOp(out, 0)}}},
		Rules: []program.Rule{
			{Priority: 1, Matches: map[string]program.Pattern{"h": {Value: 0, Mask: 0}}, Action: "set", Params: map[string]uint64{"meta.out": 100}},
			{Priority: 9, Matches: map[string]program.Pattern{"h": {Value: 5, Mask: 0xFFFF}}, Action: "set", Params: map[string]uint64{"meta.out": 200}},
		},
	}
	pkt := &Packet{Headers: map[string]uint64{"h": 5}}
	ctx := newContext(pkt)
	if err := exec.execute(m, ctx, map[string]bool{}); err != nil {
		t.Fatal(err)
	}
	if ctx.meta["meta.out"] != 200 {
		t.Errorf("high-priority rule lost: out = %d", ctx.meta["meta.out"])
	}
	// A non-matching packet falls through to the catch-all.
	pkt2 := &Packet{Headers: map[string]uint64{"h": 6}}
	ctx2 := newContext(pkt2)
	if err := exec.execute(m, ctx2, map[string]bool{}); err != nil {
		t.Fatal(err)
	}
	if ctx2.meta["meta.out"] != 100 {
		t.Errorf("catch-all rule not applied: out = %d", ctx2.meta["meta.out"])
	}
}

func TestOpSemantics(t *testing.T) {
	exec := newMATExecutor()
	run := func(ops []program.Op, pkt *Packet) *context {
		m := &program.MAT{
			Name: "t", Capacity: 1,
			Actions:       []program.Action{{Name: "a", Ops: ops}},
			DefaultAction: "a",
		}
		ctx := newContext(pkt)
		if err := exec.execute(m, ctx, map[string]bool{}); err != nil {
			t.Fatal(err)
		}
		return ctx
	}
	t.Run("set masks to width", func(t *testing.T) {
		out := fields.Metadata("meta.x", 8)
		ctx := run([]program.Op{program.SetOp(out, 0x1FF)}, &Packet{Headers: map[string]uint64{}})
		if ctx.meta["meta.x"] != 0xFF {
			t.Errorf("x = %#x, want 0xFF", ctx.meta["meta.x"])
		}
	})
	t.Run("copy and add", func(t *testing.T) {
		src := fields.Header("h", 16)
		a := fields.Metadata("meta.a", 16)
		ops := []program.Op{
			program.CopyOp(a, src),
			program.AddOp(a, src, 3),
		}
		ctx := run(ops, &Packet{Headers: map[string]uint64{"h": 10}})
		if ctx.meta["meta.a"] != 23 {
			t.Errorf("a = %d, want 23", ctx.meta["meta.a"])
		}
	})
	t.Run("decrement saturates", func(t *testing.T) {
		ttl := fields.Header("ttl", 8)
		ctx := run([]program.Op{program.DecOp(ttl, 1)}, &Packet{Headers: map[string]uint64{"ttl": 0}})
		_ = ctx
	})
	t.Run("hash deterministic", func(t *testing.T) {
		h := fields.Metadata("meta.h", 32)
		src := fields.Header("s", 32)
		p1 := &Packet{Headers: map[string]uint64{"s": 42}}
		p2 := &Packet{Headers: map[string]uint64{"s": 42}}
		c1 := run([]program.Op{program.HashOp(h, src)}, p1)
		c2 := run([]program.Op{program.HashOp(h, src)}, p2)
		if c1.meta["meta.h"] != c2.meta["meta.h"] {
			t.Error("hash not deterministic")
		}
		p3 := &Packet{Headers: map[string]uint64{"s": 43}}
		c3 := run([]program.Op{program.HashOp(h, src)}, p3)
		if c3.meta["meta.h"] == c1.meta["meta.h"] {
			t.Error("hash does not depend on input")
		}
	})
}

func TestPacketClone(t *testing.T) {
	p := &Packet{Headers: map[string]uint64{"a": 1}}
	c := p.Clone()
	c.Headers["a"] = 2
	if p.Headers["a"] != 1 {
		t.Error("clone shares header map")
	}
}

func TestCoordinationErrorMessage(t *testing.T) {
	err := &coordinationError{mat: "m", field: "f"}
	if err.Error() == "" {
		t.Error("empty error message")
	}
}

// fanInDeployment hand-builds the distribution behaviours a single box
// cannot show. Switches 0 and 1 both feed switch 2:
//
//	a@0  meta.x = 1                      exports {meta.x, meta.z} (3 B) to 2
//	b@1  meta.x = 2, meta.w = 9          exports {meta.x} (2 B) to 2
//	c@2  default  out.x = meta.x, meta.z = 0, out.q = meta.q
//	     sel == 1 out.w = meta.w         (meta.w is never piggybacked)
//
// meta.z rides switch 0's header although nothing upstream writes it;
// meta.q is written nowhere.
func fanInDeployment(t testing.TB) *deploy.Deployment {
	t.Helper()
	x, z := fields.Metadata("meta.x", 16), fields.Metadata("meta.z", 8)
	w, q := fields.Metadata("meta.w", 8), fields.Metadata("meta.q", 8)
	sel := fields.Header("sel", 8)
	mats := []*program.MAT{
		{Name: "a", Capacity: 1, DefaultAction: "w",
			Actions: []program.Action{{Name: "w", Ops: []program.Op{program.SetOp(x, 1)}}}},
		{Name: "b", Capacity: 1, DefaultAction: "w",
			Actions: []program.Action{{Name: "w", Ops: []program.Op{program.SetOp(x, 2), program.SetOp(w, 9)}}}},
		{Name: "c", Capacity: 4, DefaultAction: "merge",
			Keys: []program.MatchKey{{Field: sel, Type: program.MatchExact}},
			Actions: []program.Action{
				{Name: "merge", Ops: []program.Op{
					program.CopyOp(fields.Header("out.x", 16), x),
					program.SetOp(z, 0),
					program.CopyOp(fields.Header("out.q", 8), q),
				}},
				{Name: "leak", Ops: []program.Op{program.CopyOp(fields.Header("out.w", 8), w)}},
			},
			Rules: []program.Rule{{Matches: map[string]program.Pattern{"sel": {Value: 1}}, Action: "leak"}}},
	}
	g := tdg.New()
	for _, m := range mats {
		if err := g.AddNode(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, from := range []string{"a", "b"} {
		if err := g.AddEdge(from, "c", tdg.DepMatch, 2); err != nil {
			t.Fatal(err)
		}
	}
	plan := &placement.Plan{Graph: g, SolverName: "hand", Assignments: map[string]placement.StagePlacement{}}
	dep := &deploy.Deployment{Plan: plan, Configs: map[network.SwitchID]*deploy.SwitchConfig{}}
	for i, m := range mats {
		u := network.SwitchID(i)
		plan.Assignments[m.Name] = placement.StagePlacement{Switch: u, PerStage: []float64{0.1}}
		dep.Configs[u] = &deploy.SwitchConfig{
			Switch:  u,
			Stages:  [][]deploy.StageEntry{{{MAT: m.Name, Amount: 0.1}}},
			Exports: map[network.SwitchID]deploy.CoordHeader{},
			Imports: map[network.SwitchID]deploy.CoordHeader{},
		}
	}
	for from, hdr := range map[network.SwitchID]deploy.CoordHeader{
		0: {Fields: []fields.Field{x, z}, Bytes: 3},
		1: {Fields: []fields.Field{x}, Bytes: 2},
	} {
		dep.Configs[from].Exports[2] = hdr
		dep.Configs[2].Imports[from] = hdr
	}
	return dep
}

// TestFanInImportSemantics pins, by value, how coordination headers
// merge on a downstream switch and what the engine reports per hop.
func TestFanInImportSemantics(t *testing.T) {
	eng, err := NewEngine(fanInDeployment(t))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Process(&Packet{Headers: map[string]uint64{"sel": 0}})
	if err != nil {
		t.Fatal(err)
	}
	// out.x = 2: both upstreams export meta.x and the later-visited one
	// (switch 1) wins. meta.z is absent from the log: it arrived present
	// as 0 — exported by a switch that never wrote it — so c's write of 0
	// left it unchanged. out.q = 0 is in the log: a never-written
	// metadata field reads as 0 and the header field is newly present.
	wantWrites := map[string]uint64{"meta.x": 2, "meta.w": 9, "out.x": 2, "out.q": 0}
	if !reflect.DeepEqual(res.Writes, wantWrites) {
		t.Errorf("write log %v, want %v", res.Writes, wantWrites)
	}
	wantHeaders := map[string]uint64{"sel": 0, "out.x": 2, "out.q": 0}
	if !reflect.DeepEqual(res.Packet.Headers, wantHeaders) {
		t.Errorf("final headers %v, want %v", res.Packet.Headers, wantHeaders)
	}
	wantHops := map[placement.RouteKey]int{{From: 0, To: 2}: 3, {From: 1, To: 2}: 2}
	if !reflect.DeepEqual(res.HopBytes, wantHops) || res.MaxHeaderBytes != 3 {
		t.Errorf("hop bytes %v max %d, want %v max 3", res.HopBytes, res.MaxHeaderBytes, wantHops)
	}
}

// TestEngineProcessContract covers what the batch-of-one wrapper adds
// to the pipeline: an undelivered metadata read surfaces as a
// coordinationError naming MAT and field, the engine stays usable
// after it, and header fields no deployed MAT references ride through
// untouched and unlogged.
func TestEngineProcessContract(t *testing.T) {
	eng, err := NewEngine(fanInDeployment(t))
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Process(&Packet{Headers: map[string]uint64{"sel": 1}})
	var cerr *coordinationError
	if !errors.As(err, &cerr) || cerr.mat != "c" || cerr.field != "meta.w" {
		t.Fatalf("undelivered read of meta.w by c: got %v", err)
	}
	pkt := &Packet{Headers: map[string]uint64{"sel": 0, fields.IPv4Src: 7, fields.EthType: 0x0800}}
	res, err := eng.Process(pkt)
	if err != nil {
		t.Fatalf("Process after an error: %v", err)
	}
	wantHeaders := map[string]uint64{"sel": 0, fields.IPv4Src: 7, fields.EthType: 0x0800, "out.x": 2, "out.q": 0}
	if res.Packet != pkt || !reflect.DeepEqual(pkt.Headers, wantHeaders) {
		t.Errorf("final headers %v, want %v", pkt.Headers, wantHeaders)
	}
	wantWrites := map[string]uint64{"meta.x": 2, "meta.w": 9, "out.x": 2, "out.q": 0}
	if !reflect.DeepEqual(res.Writes, wantWrites) {
		t.Errorf("write log %v, want %v", res.Writes, wantWrites)
	}
}

// TestEngineRejectsUnknownMATAtConstruction: a deployed MAT missing
// from the TDG is a construction error.
func TestEngineRejectsUnknownMATAtConstruction(t *testing.T) {
	dep := fanInDeployment(t)
	dep.Configs[2].Stages[0][0].MAT = "ghost"
	if _, err := NewEngine(dep); err == nil || !strings.Contains(err.Error(), `"ghost" missing from TDG`) {
		t.Fatalf("NewEngine = %v, want a missing-MAT error", err)
	}
}

// TestReferenceAllocationCeiling keeps the single box a straight-line
// walk: with a whole-context snapshot around every MAT it cost 2,156
// allocations per packet on this 423-MAT graph; tracking writes where
// they happen costs 47 (the per-packet maps growing). The ceiling is a
// tenth of the former.
func TestReferenceAllocationCeiling(t *testing.T) {
	g := composite10Deployment(t).Plan.Graph
	ref, err := NewReferenceEngine(g)
	if err != nil {
		t.Fatal(err)
	}
	packets := graphPackets(g, 3, 8)
	i := 0
	allocs := testing.AllocsPerRun(40, func() {
		if _, err := ref.Process(packets[i%len(packets)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 215 {
		t.Errorf("ReferenceEngine.Process: %.0f allocations per packet on %d MATs, ceiling 215", allocs, g.NumNodes())
	}
}

// TestDifferentialVerdicts covers what equiv's counterexample search
// relies on: Reset returns both sides to cold registers, an unrunnable
// reference is marked ErrReference, and an uncompilable deployment is
// not.
func TestDifferentialVerdicts(t *testing.T) {
	dep := deployOnTestbed(t)
	d, err := NewDifferential(dep.Plan.Graph, dep, 1)
	if err != nil {
		t.Fatal(err)
	}
	flow := []*Packet{{Headers: map[string]uint64{fields.IPv4Src: 1, fields.IPv4Dst: 2}}}
	for i := 0; i < 3; i++ {
		if _, err := d.Run(flow); err != nil {
			t.Fatal(err)
		}
	}
	d.Reset()
	if _, err := d.Run(flow); err != nil {
		t.Fatal(err)
	}
	for side, regs := range map[string]map[string][]uint64{"pipeline": d.eng.p.registers(), "reference": d.ref.registers()} {
		got, total := nonzero(regs), uint64(0)
		for _, v := range got {
			total += v
		}
		if len(got) != 1 || total != 1 {
			t.Errorf("%s registers after Reset and one packet: %v, want one slot at 1", side, got)
		}
	}

	cyclic := tdg.New()
	for _, name := range []string{"a", "b"} {
		if err := cyclic.AddNode(&program.MAT{Name: name, Capacity: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := errors.Join(cyclic.AddEdge("a", "b", tdg.DepMatch, 0), cyclic.AddEdge("b", "a", tdg.DepMatch, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDifferential(cyclic, dep, 1); !errors.Is(err, ErrReference) {
		t.Errorf("cyclic reference graph: %v, want ErrReference", err)
	}
	broken := fanInDeployment(t)
	broken.Configs[2].Stages[0][0].MAT = "ghost"
	if _, err := NewDifferential(broken.Plan.Graph, broken, 1); err == nil || errors.Is(err, ErrReference) {
		t.Errorf("uncompilable deployment: %v, want an error that is not ErrReference", err)
	}
}
