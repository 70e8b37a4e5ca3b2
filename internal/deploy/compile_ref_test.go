package deploy

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/placement/shard"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
	"github.com/hermes-net/hermes/internal/workload"
)

// compileRef is the name-keyed compile Compile replaced, kept as its
// reference: every MAT resolved through SwitchOf, its footprint derived
// afresh from the MAT, pairs numbered through a map, each pair's fields
// appended and merged by fields.Canonical, stages sorted by sort.Slice.
// Its stage entries carry the Node stamp Compile added, resolved by
// name.
func compileRef(plan *placement.Plan) (*Deployment, error) {
	if plan == nil || plan.Graph == nil || plan.Topo == nil {
		return nil, fmt.Errorf("deploy: nil or incomplete plan")
	}
	d := &Deployment{
		Plan:    plan,
		Configs: map[network.SwitchID]*SwitchConfig{},
		Headers: map[placement.RouteKey]CoordHeader{},
	}
	for name, sp := range plan.Assignments {
		cfg := d.Configs[sp.Switch]
		if cfg == nil {
			sw, err := plan.Topo.Switch(sp.Switch)
			if err != nil {
				return nil, fmt.Errorf("deploy: %w", err)
			}
			cfg = &SwitchConfig{
				Switch:  sp.Switch,
				Stages:  make([][]StageEntry, sw.Stages),
				Exports: map[network.SwitchID]CoordHeader{},
				Imports: map[network.SwitchID]CoordHeader{},
			}
			d.Configs[sp.Switch] = cfg
		}
		for i, amt := range sp.PerStage {
			if amt <= 0 {
				continue
			}
			stage := sp.Start + i
			if stage >= len(cfg.Stages) {
				return nil, fmt.Errorf("deploy: MAT %q stage %d out of range", name, stage)
			}
			id, ok := plan.Graph.ID(name)
			if !ok {
				id = -1
			}
			cfg.Stages[stage] = append(cfg.Stages[stage], StageEntry{MAT: name, Amount: amt, Node: id})
		}
	}
	for _, cfg := range d.Configs {
		for _, st := range cfg.Stages {
			sort.Slice(st, func(i, j int) bool { return st[i].MAT < st[j].MAT })
		}
	}
	fps := map[string]program.Footprint{}
	footprint := func(name string) program.Footprint {
		fp, ok := fps[name]
		if !ok {
			n, _ := plan.Graph.Node(name)
			fp = n.MAT.Footprint()
			fps[name] = fp
		}
		return fp
	}
	type pairFields struct {
		key placement.RouteKey
		fs  []fields.Field
	}
	var pairs []pairFields
	pairIdx := map[placement.RouteKey]int{}
	for _, e := range plan.Graph.EdgeList() {
		ua, oka := plan.SwitchOf(e.From)
		ub, okb := plan.SwitchOf(e.To)
		if !oka || !okb || ua == ub {
			continue
		}
		key := placement.RouteKey{From: ua, To: ub}
		i, ok := pairIdx[key]
		if !ok {
			i = len(pairs)
			pairIdx[key] = i
			pairs = append(pairs, pairFields{key: key})
		}
		a, b := footprint(e.From), footprint(e.To)
		if _, err := analyzer.Delivered(&a, &b, e.Type, &pairs[i].fs); err != nil {
			return nil, fmt.Errorf("deploy: edge %s->%s: %w", e.From, e.To, err)
		}
	}
	for _, p := range pairs {
		fs, err := fields.Canonical(p.fs)
		if err != nil {
			return nil, fmt.Errorf("deploy: header for %v: %w", p.key, err)
		}
		hdr := CoordHeader{Fields: append([]fields.Field{}, fs...)}
		for _, f := range fs {
			hdr.Bytes += f.Bytes()
		}
		d.Headers[p.key] = hdr
		if from := d.Configs[p.key.From]; from != nil {
			from.Exports[p.key.To] = hdr
		}
		if to := d.Configs[p.key.To]; to != nil {
			to.Imports[p.key.From] = hdr
		}
	}
	return d, nil
}

// sameAsCompileRef holds Compile to compileRef on one plan: the same
// error text, or deep-equal deployments — configs, stage entries,
// headers and byte counts.
func sameAsCompileRef(t *testing.T, label string, plan *placement.Plan) {
	t.Helper()
	got, gerr := Compile(plan, analyzer.Options{})
	want, werr := compileRef(plan)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%s: Compile error %v, name-keyed reference %v", label, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		for sw, cfg := range want.Configs {
			if !reflect.DeepEqual(got.Configs[sw], cfg) {
				t.Fatalf("%s: config of switch %d is %+v, reference %+v", label, sw, got.Configs[sw], cfg)
			}
		}
		for key, hdr := range want.Headers {
			if !reflect.DeepEqual(got.Headers[key], hdr) {
				t.Fatalf("%s: header %v is %+v, reference %+v", label, key, got.Headers[key], hdr)
			}
		}
		t.Fatalf("%s: deployment differs from the name-keyed reference (%d configs, %d headers; reference %d, %d)",
			label, len(got.Configs), len(got.Headers), len(want.Configs), len(want.Headers))
	}
}

// mustGraph analyzes progs, failing the test on err or on an analysis
// error.
func mustGraph(t *testing.T, progs []*program.Program, err error) *tdg.Graph {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	g, err := analyzer.Analyze(progs, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func tableIIIAt(t *testing.T, i int, capacity float64) *network.Topology {
	t.Helper()
	spec := network.TofinoSpec()
	spec.StageCapacity = capacity
	topo, err := network.TableIII(i, spec)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestCompileMatchesReference holds Compile to the name-keyed compile
// on the benchmark's four corpora (each as solved and as a round-robin
// spread that makes nearly every edge cross), a Greedy plan per
// Table III WAN, the equivalence proof's fixtures, and the hand-built
// conflicts of footprint_oracle_test.go.
func TestCompileMatchesReference(t *testing.T) {
	spec := workload.PaperSyntheticSpec()
	evaluation, err := workload.EvaluationPrograms(30, 1)
	wan30 := mustGraph(t, evaluation, err)
	synthetic, err := workload.SyntheticSet(16, spec, 1)
	churn16 := mustGraph(t, synthetic, err)
	real := mustGraph(t, workload.RealPrograms(), nil)

	t.Run("corpora", func(t *testing.T) {
		synthetic, err := workload.SyntheticSet(200, spec, 1)
		c60 := mustGraph(t, synthetic, err)
		topo60, err := network.CompositeWAN(60, network.TofinoSpec(), 1)
		if err != nil {
			t.Fatal(err)
		}
		part, err := network.PartitionRegions(topo60, 16, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name   string
			g      *tdg.Graph
			topo   *network.Topology
			solver placement.Solver
		}{
			{"wan30", wan30, tableIIIAt(t, 1, 1.0), placement.Greedy{}},
			{"composite60", c60, topo60, shard.ShardedGreedy{Partition: part}},
			{"real_hotspot", real, tableIIIAt(t, 1, 0.1), placement.Greedy{}},
			{"churn16", churn16, tableIIIAt(t, 1, 0.3), placement.Greedy{}},
		} {
			plan, err := c.solver.Solve(c.g, c.topo, placement.Options{Shards: 16, Workers: 1})
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			sameAsCompileRef(t, c.name, plan)
			spread, err := spreadPlan(c.g, c.topo)
			if err != nil {
				t.Fatal(err)
			}
			sameAsCompileRef(t, c.name+" spread", spread)
		}
	})

	t.Run("table3", func(t *testing.T) {
		for i := 1; i <= 10; i++ {
			plan, err := (placement.Greedy{}).Solve(wan30, tableIIIAt(t, i, 1.0), placement.Options{})
			if err != nil {
				t.Fatalf("WAN %d: %v", i, err)
			}
			sameAsCompileRef(t, fmt.Sprintf("table3:%d", i), plan)
		}
	})

	t.Run("equiv-fixtures", func(t *testing.T) {
		for name, plan := range equivFixturePlans(t) {
			sameAsCompileRef(t, name, plan)
		}
	})

	t.Run("conflicts", func(t *testing.T) {
		topo := network.NewTopology("line3")
		for i := 0; i < 3; i++ {
			topo.AddSwitch(network.Switch{Programmable: true, Stages: 2, StageCapacity: 1, TransitLatency: time.Microsecond})
		}
		for _, fx := range conflictFixtures(t) {
			g, err := analyzer.Analyze(fx.progs, analyzer.Options{})
			if fx.hand != nil {
				g = fx.hand(t)
			} else if err != nil {
				continue // no graph to place: the fixture errs in Analyze
			}
			for _, place := range fx.places {
				plan := &placement.Plan{Graph: g, Topo: topo, Assignments: map[string]placement.StagePlacement{}}
				for name, sw := range place.at {
					plan.Assignments[name] = placement.StagePlacement{Switch: sw, PerStage: []float64{0.1}}
				}
				sameAsCompileRef(t, fmt.Sprintf("%s %v", fx.name, place.at), plan)
			}
		}
	})

	t.Run("errors", func(t *testing.T) {
		topo := tableIIIAt(t, 1, 1.0)
		plan, err := (placement.Greedy{}).Solve(churn16, topo, placement.Options{})
		if err != nil {
			t.Fatal(err)
		}
		name := churn16.NodeNames()[0]
		for label, edit := range map[string]func(*placement.StagePlacement){
			"stage past the pipeline": func(sp *placement.StagePlacement) { sp.Start = 1000 },
			"unknown switch":          func(sp *placement.StagePlacement) { sp.Switch = network.SwitchID(topo.NumSwitches()) },
		} {
			bad := &placement.Plan{Graph: plan.Graph, Topo: topo, Assignments: map[string]placement.StagePlacement{}}
			for n, sp := range plan.Assignments {
				bad.Assignments[n] = sp
			}
			sp := bad.Assignments[name]
			edit(&sp)
			bad.Assignments[name] = sp
			sameAsCompileRef(t, label, bad)
		}

		// Hand-built: pair 0→1 gives meta.b, then meta.a, two widths
		// (the smallest name is reported), and a later edge 1→2 leaves a
		// MAT whose own writes conflict (an edge error outranks any pair's).
		a8, a16 := fields.Metadata("meta.a", 8), fields.Metadata("meta.a", 16)
		b8, b16 := fields.Metadata("meta.b", 8), fields.Metadata("meta.b", 16)
		writer := func(name string, ops ...program.Op) *program.MAT {
			m := &program.MAT{Name: name, Capacity: 1}
			for i, op := range ops {
				m.Actions = append(m.Actions, program.Action{Name: fmt.Sprint("w", i), Ops: []program.Op{op}})
			}
			return m
		}
		g := tdg.New()
		for _, m := range []*program.MAT{
			writer("t1", program.SetOp(b8, 1)), writer("t2", program.SetOp(b16, 1)),
			writer("t3", program.SetOp(a8, 1)), writer("t4", program.SetOp(a16, 1)),
			writer("u", program.SetOp(fields.Metadata("meta.u", 8), 1)),
			writer("w", program.SetOp(fields.Metadata("meta.z", 8), 1), program.SetOp(fields.Metadata("meta.z", 16), 1)),
			writer("v", program.SetOp(fields.Metadata("meta.v", 8), 1)),
		} {
			if err := g.AddNode(m); err != nil {
				t.Fatal(err)
			}
		}
		for _, e := range [][2]string{{"t1", "u"}, {"t2", "u"}, {"t3", "u"}, {"t4", "u"}, {"w", "v"}} {
			if err := g.AddEdge(e[0], e[1], tdg.DepMatch, 1); err != nil {
				t.Fatal(err)
			}
		}
		line := network.NewTopology("line3")
		for i := 0; i < 3; i++ {
			line.AddSwitch(network.Switch{Programmable: true, Stages: 4, StageCapacity: 1, TransitLatency: time.Microsecond})
		}
		at := map[string]network.SwitchID{"t1": 0, "t2": 0, "t3": 0, "t4": 0, "u": 1, "w": 1, "v": 2}
		for label, drop := range map[string]string{"edge error and pair conflicts": "", "two pair conflicts": "w"} {
			plan := &placement.Plan{Graph: g, Topo: line, Assignments: map[string]placement.StagePlacement{}}
			for name, sw := range at {
				if name != drop {
					plan.Assignments[name] = placement.StagePlacement{Switch: sw, PerStage: []float64{0.1}}
				}
			}
			if _, err := compileRef(plan); err == nil {
				t.Fatalf("%s: fixture drifted, the reference compiles it", label)
			}
			sameAsCompileRef(t, label, plan)
		}
	})
}

// equivFixturePlans rebuilds the plans the equivalence proof's tests
// compile (internal/equiv): the carry pipeline split over two switches
// in each source mutation, the relay and cyclic hand placements, the
// LPM route table, the disjoint carry pipelines, a same-action
// local-writes graph, and synthetic sets on Table III WAN 1.
func equivFixturePlans(t *testing.T) map[string]*placement.Plan {
	t.Helper()
	src := fields.Header(fields.IPv4Src, 32)
	x, y, z, w, m := fields.Metadata("meta.x", 32), fields.Metadata("meta.y", 32),
		fields.Metadata("meta.z", 32), fields.Metadata("meta.w", 32), fields.Metadata("meta.m", 32)
	line := func(n, stages int, capacity float64) *network.Topology {
		tp := network.NewTopology("equiv-line")
		for i := 0; i < n; i++ {
			tp.AddSwitch(network.Switch{Programmable: true, Stages: stages, StageCapacity: capacity, TransitLatency: time.Microsecond})
		}
		for i := 0; i+1 < n; i++ {
			if err := tp.AddLink(network.SwitchID(i), network.SwitchID(i+1), time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		return tp
	}
	solve := func(g *tdg.Graph, topo *network.Topology) *placement.Plan {
		plan, err := (placement.Greedy{}).Solve(g, topo, placement.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	hand := func(g *tdg.Graph, topo *network.Topology, at map[string]int) *placement.Plan {
		plan := &placement.Plan{Graph: g, Topo: topo, Assignments: map[string]placement.StagePlacement{}}
		for name, sw := range at {
			plan.Assignments[name] = placement.StagePlacement{Switch: network.SwitchID(sw), PerStage: []float64{0.2}}
		}
		return plan
	}
	carry := func(name string, x, y fields.Field, defaultOps ...program.Op) *program.Program {
		return program.NewBuilder(name).
			Table("gen", 1).ActionDef("g", program.AddOp(x, src, 7)).Default("g").
			Table("apply", 64).Key(x, program.MatchExact).
			ActionDef("u", defaultOps...).ActionDef("r", program.SetOp(y, 99)).Default("u").
			MustBuild()
	}
	out := map[string]*placement.Plan{}
	for label, ops := range map[string][]program.Op{
		"carry":        {program.CopyOp(y, x), program.SetOp(z, 3)},
		"carry-drop-z": {program.CopyOp(y, x)},
		"carry-set-y":  {program.SetOp(y, 1)},
	} {
		g := mustGraph(t, []*program.Program{carry("p", x, y, ops...)}, nil)
		out[label] = solve(g, line(2, 1, 0.5))
	}
	relay := program.NewBuilder("q").
		Table("gen", 1).ActionDef("g", program.SetOp(x, 7)).Default("g").
		Table("genw", 1).ActionDef("g", program.SetOp(w, 1)).Default("g").
		Table("mid", 8).Key(w, program.MatchExact).ActionDef("m", program.SetOp(m, 1)).Default("m").
		Table("apply", 1024).Key(x, program.MatchExact).Key(m, program.MatchExact).
		ActionDef("u", program.CopyOp(y, x)).Default("u").
		MustBuild()
	out["relay"] = hand(mustGraph(t, []*program.Program{relay}, nil), line(3, 1, 1),
		map[string]int{"q/gen": 0, "q/genw": 0, "q/mid": 1, "q/apply": 2})

	cyclic := tdg.New()
	for _, n := range []string{"a", "b", "c"} {
		if err := cyclic.AddNode(&program.MAT{Name: n, Capacity: 4, DefaultAction: "a",
			Actions: []program.Action{{Name: "a", Ops: []program.Op{program.SetOp(fields.Metadata("meta."+n, 8), 1)}}}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}} {
		if err := cyclic.AddEdge(e[0], e[1], tdg.DepMatch, 1); err != nil {
			t.Fatal(err)
		}
	}
	out["cyclic"] = hand(cyclic, line(2, 1, 1), map[string]int{"a": 0, "b": 1, "c": 0})

	route := program.NewBuilder("rt").
		Table("route", 8).Key(fields.Header("ipv4.dst", 32), program.MatchLPM).
		ActionDef("hit", program.SetOp(fields.Metadata("meta.rw", 8), 5)).
		ActionDef("miss", program.SetOp(fields.Metadata("meta.rw", 8), 1)).Default("miss").
		MustBuild()
	out["route"] = solve(mustGraph(t, []*program.Program{route}, nil), line(2, 1, 0.5))

	var disjoint []*program.Program
	for i := 0; i < 4; i++ {
		disjoint = append(disjoint, carry(fmt.Sprintf("p%d", i),
			fields.Metadata(fmt.Sprintf("meta.x%d", i), 32), fields.Metadata(fmt.Sprintf("meta.y%d", i), 32),
			program.CopyOp(fields.Metadata(fmt.Sprintf("meta.y%d", i), 32), fields.Metadata(fmt.Sprintf("meta.x%d", i), 32))))
	}
	out["disjoint"] = solve(mustGraph(t, disjoint, nil), tableIIIAt(t, 1, 0.3))

	lx, ly, li := fields.Metadata("meta.lx", 16), fields.Metadata("meta.ly", 16), fields.Metadata("meta.li", 8)
	local := tdg.New()
	for _, mat := range []*program.MAT{
		{Name: "a", Capacity: 1, DefaultAction: "w", Actions: []program.Action{
			{Name: "w", Ops: []program.Op{program.SetOp(lx, 1), program.CopyOp(ly, lx), program.AddOp(lx, ly, 2), program.DecOp(ly, 1)}},
			{Name: "r", Ops: []program.Op{program.CopyOp(ly, lx), program.SetOp(lx, 3)}},
		}},
		{Name: "b", Capacity: 1, DefaultAction: "h", Keys: []program.MatchKey{{Field: ly, Type: program.MatchExact}},
			Actions: []program.Action{{Name: "h", Ops: []program.Op{program.HashOp(li, lx, src), program.CountOp(lx, li), program.HashOp(ly, li, lx)}}}},
	} {
		if err := local.AddNode(mat, "p"); err != nil {
			t.Fatal(err)
		}
	}
	if err := local.AddEdge("a", "b", tdg.DepMatch, 4); err != nil {
		t.Fatal(err)
	}
	out["local-writes"] = hand(local, line(2, 1, 1), map[string]int{"a": 0, "b": 1})

	for _, n := range []int{6, 20, 40} {
		progs, err := workload.SyntheticSet(n, workload.PaperSyntheticSpec(), 1)
		out[fmt.Sprintf("synthetic:%d", n)] = solve(mustGraph(t, progs, err), tableIIIAt(t, 1, 1.0))
	}
	return out
}
