package deploy

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/merge"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
	"github.com/hermes-net/hermes/internal/workload"
)

// The fields.Set reference for Algorithm 1 and the header compiler: the
// per-action NewSet/Union fold, the map-based M/A/R classification, the
// set-algebra A(a,b) and the per-cross-edge header union, exactly as the
// analyzer and Compile computed them before MAT footprints. The tests
// below hold the footprint code to it on every evaluation corpus and on
// hand-built conflicts.

func refWrites(m *program.MAT) (fields.Set, error) {
	out, err := fields.NewSet()
	if err != nil {
		return fields.Set{}, err
	}
	for _, a := range m.Actions {
		var fs []fields.Field
		for _, op := range a.Ops {
			fs = append(fs, op.Dst)
		}
		w, err := fields.NewSet(fs...)
		if err != nil {
			return fields.Set{}, fmt.Errorf("MAT %q: action %q: %w", m.Name, a.Name, err)
		}
		if out, err = out.Union(w); err != nil {
			return fields.Set{}, fmt.Errorf("MAT %q: %w", m.Name, err)
		}
	}
	return out, nil
}

func refReads(m *program.MAT) (fields.Set, error) {
	keys := make([]fields.Field, 0, len(m.Keys))
	for _, k := range m.Keys {
		keys = append(keys, k.Field)
	}
	out, err := fields.NewSet(keys...)
	if err != nil {
		return fields.Set{}, fmt.Errorf("MAT %q match fields: %w", m.Name, err)
	}
	for _, a := range m.Actions {
		var fs []fields.Field
		for _, op := range a.Ops {
			fs = append(fs, op.Srcs...)
			if op.Kind == program.OpAdd || op.Kind == program.OpDecrement || op.Kind == program.OpCount {
				fs = append(fs, op.Dst)
			}
		}
		r, err := fields.NewSet(fs...)
		if err != nil {
			return fields.Set{}, fmt.Errorf("MAT %q: action %q: %w", m.Name, a.Name, err)
		}
		if out, err = out.Union(r); err != nil {
			return fields.Set{}, fmt.Errorf("MAT %q: %w", m.Name, err)
		}
	}
	return out, nil
}

func refFromProgram(p *program.Program) (*tdg.Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := tdg.New()
	reads := make([]fields.Set, len(p.MATs))
	writes := make([]fields.Set, len(p.MATs))
	for i, m := range p.MATs {
		if err := g.AddNode(m, p.Name); err != nil {
			return nil, err
		}
		var err error
		if reads[i], err = refReads(m); err != nil {
			return nil, err
		}
		if writes[i], err = refWrites(m); err != nil {
			return nil, err
		}
	}
	for i := range p.MATs {
		for j := i + 1; j < len(p.MATs); j++ {
			var typ tdg.DepType
			switch {
			case writes[i].Overlaps(reads[j]):
				typ = tdg.DepMatch
			case writes[i].Overlaps(writes[j]):
				typ = tdg.DepAction
			case reads[i].Overlaps(writes[j]):
				typ = tdg.DepReverse
			default:
				continue
			}
			if err := g.AddEdge(p.MATs[i].Name, p.MATs[j].Name, typ, 0); err != nil {
				return nil, err
			}
		}
	}
	for _, e := range p.Control {
		if err := g.AddEdge(e.From, e.To, tdg.DepSuccessor, 0); err != nil {
			return nil, err
		}
	}
	if _, err := g.TopoSort(); err != nil {
		return nil, fmt.Errorf("program %q induces a cyclic TDG", p.Name)
	}
	return g, nil
}

// refEdgeFields is the metadata a delivers to b along one edge; its
// TotalBytes is A(a,b).
func refEdgeFields(a, b *program.MAT, typ tdg.DepType) (fields.Set, error) {
	faa, err := refWrites(a)
	if err != nil {
		return fields.Set{}, err
	}
	switch typ {
	case tdg.DepMatch:
		return faa.Metadata(), nil
	case tdg.DepAction:
		fba, err := refWrites(b)
		if err != nil {
			return fields.Set{}, err
		}
		union, err := faa.Union(fba)
		if err != nil {
			return fields.Set{}, err
		}
		return union.Metadata(), nil
	case tdg.DepReverse:
		return fields.Set{}, nil
	case tdg.DepSuccessor:
		return faa.Metadata(), nil
	}
	return fields.Set{}, fmt.Errorf("unknown dependency type %v", typ)
}

func refAnalyze(progs []*program.Program, opts analyzer.Options) (*tdg.Graph, error) {
	graphs := make([]*tdg.Graph, 0, len(progs))
	for _, p := range progs {
		g, err := refFromProgram(p)
		if err != nil {
			return nil, err
		}
		graphs = append(graphs, g)
	}
	var merged *tdg.Graph
	if opts.SkipMerge && len(graphs) > 1 {
		merged = tdg.New()
		for _, g := range graphs {
			for _, n := range g.Nodes() {
				if err := merged.AddNode(n.MAT, n.Origin...); err != nil {
					return nil, err
				}
			}
			for _, e := range g.Edges() {
				if err := merged.AddEdge(e.From, e.To, e.Type, 0); err != nil {
					return nil, err
				}
			}
		}
	} else {
		var err error
		if merged, err = merge.Graphs(graphs); err != nil {
			return nil, err
		}
	}
	for _, e := range merged.Edges() {
		a, _ := merged.Node(e.From)
		b, _ := merged.Node(e.To)
		fs, err := refEdgeFields(a.MAT, b.MAT, e.Type)
		if err != nil {
			return nil, err
		}
		e.MetadataBytes = fs.TotalBytes()
	}
	return merged, nil
}

func refHeaders(plan *placement.Plan) (map[placement.RouteKey]fields.Set, error) {
	perPair := map[placement.RouteKey]fields.Set{}
	for _, e := range plan.CrossEdges() {
		ua, _ := plan.SwitchOf(e.From)
		ub, _ := plan.SwitchOf(e.To)
		a, _ := plan.Graph.Node(e.From)
		b, _ := plan.Graph.Node(e.To)
		fs, err := refEdgeFields(a.MAT, b.MAT, e.Type)
		if err != nil {
			return nil, err
		}
		key := placement.RouteKey{From: ua, To: ub}
		cur, ok := perPair[key]
		if !ok {
			perPair[key] = fs
			continue
		}
		if perPair[key], err = cur.Union(fs); err != nil {
			return nil, fmt.Errorf("header for %v: %w", key, err)
		}
	}
	return perPair, nil
}

// analyzerOptionGrid is both SkipMerge settings.
var analyzerOptionGrid = []analyzer.Options{{}, {SkipMerge: true}}

func optsLabel(o analyzer.Options) string {
	return fmt.Sprintf("skipmerge=%v", o.SkipMerge)
}

// edgeRows renders a graph's edges, sorted by (From, To), with type and
// A(a,b): the comparison surface for analyzed graphs.
func edgeRows(g *tdg.Graph) []string {
	var out []string
	for _, e := range g.Edges() {
		out = append(out, fmt.Sprintf("%s->%s %v %dB", e.From, e.To, e.Type, e.MetadataBytes))
	}
	return out
}

func compareGraphs(t *testing.T, got, want *tdg.Graph) {
	t.Helper()
	if !reflect.DeepEqual(got.NodeNames(), want.NodeNames()) {
		t.Fatalf("node order differs from the set reference")
	}
	gr, wr := edgeRows(got), edgeRows(want)
	if len(gr) != len(wr) {
		t.Fatalf("%d edges, set reference has %d", len(gr), len(wr))
	}
	for i := range gr {
		if gr[i] != wr[i] {
			t.Fatalf("edge %d: %s, set reference %s", i, gr[i], wr[i])
		}
	}
}

func compareHeaders(t *testing.T, dep *Deployment, want map[placement.RouteKey]fields.Set) {
	t.Helper()
	if len(dep.Headers) != len(want) {
		t.Fatalf("%d pair headers, set reference has %d", len(dep.Headers), len(want))
	}
	for key, ws := range want {
		hdr, ok := dep.Headers[key]
		if !ok {
			t.Fatalf("pair %v: no header, set reference has %v", key, ws)
		}
		if !reflect.DeepEqual(hdr.Fields, ws.Fields()) || hdr.Bytes != ws.TotalBytes() {
			t.Fatalf("pair %v: header %v (%dB), set reference %v (%dB)", key, hdr.Fields, hdr.Bytes, ws.Fields(), ws.TotalBytes())
		}
	}
}

// TestFootprintMatchesSetReference holds TDG inference, A(a,b) and the
// pair headers of a Greedy plan and of a round-robin spread plan to the
// fields.Set reference on every evaluation corpus, under both SkipMerge
// settings.
func TestFootprintMatchesSetReference(t *testing.T) {
	type corpus struct {
		name  string
		progs func() ([]*program.Program, error)
		// topo hosts the Greedy plan: Table III WAN 1 unless the corpus
		// needs more switches.
		topo func() (*network.Topology, error)
	}
	wan1 := func() (*network.Topology, error) { return network.TableIII(1, network.TofinoSpec()) }
	var corpora []corpus
	for seed := int64(1); seed <= 10; seed++ {
		corpora = append(corpora, corpus{fmt.Sprintf("eval30/seed%d", seed), func() ([]*program.Program, error) {
			return workload.EvaluationPrograms(30, seed)
		}, wan1})
	}
	corpora = append(corpora,
		corpus{"eval50", func() ([]*program.Program, error) { return workload.EvaluationPrograms(50, 1) }, wan1},
		corpus{"real", func() ([]*program.Program, error) { return workload.RealPrograms(), nil }, wan1},
	)
	if !testing.Short() {
		corpora = append(corpora, corpus{"synthetic200", func() ([]*program.Program, error) {
			return workload.SyntheticSet(200, workload.PaperSyntheticSpec(), 1)
		}, func() (*network.Topology, error) { return network.CompositeWAN(4, network.TofinoSpec(), 1) }})
	}
	for _, c := range corpora {
		progs, err := c.progs()
		if err != nil {
			t.Fatal(err)
		}
		topo, err := c.topo()
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range analyzerOptionGrid {
			for _, placer := range []string{"greedy", "spread"} {
				t.Run(c.name+"/"+optsLabel(opts)+"/"+placer, func(t *testing.T) {
					got, err := analyzer.Analyze(progs, opts)
					if err != nil {
						t.Fatal(err)
					}
					want, err := refAnalyze(progs, opts)
					if err != nil {
						t.Fatal(err)
					}
					compareGraphs(t, got, want)

					var plan *placement.Plan
					if placer == "greedy" {
						plan, err = (placement.Greedy{}).Solve(got, topo, placement.Options{})
					} else {
						plan, err = spreadPlan(got, topo)
					}
					if err != nil {
						t.Fatal(err)
					}
					dep, err := Compile(plan, opts)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := refHeaders(plan)
					if err != nil {
						t.Fatal(err)
					}
					compareHeaders(t, dep, ref)
				})
			}
		}
	}
}

// spreadPlan deals g's MATs, in topological order, round-robin over the
// programmable switches of topo, one stage slot each. Almost every TDG
// edge then crosses switches, so Compile builds a header for nearly
// every switch pair instead of the few a Greedy plan leaves.
func spreadPlan(g *tdg.Graph, topo *network.Topology) (*placement.Plan, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	sws := topo.ProgrammableSwitches()
	plan := &placement.Plan{Graph: g, Topo: topo, Assignments: make(map[string]placement.StagePlacement, len(order))}
	for i, name := range order {
		plan.Assignments[name] = placement.StagePlacement{Switch: sws[i%len(sws)], PerStage: []float64{0.1}}
	}
	return plan, nil
}

// conflictFixture is one field name given two definitions somewhere
// Algorithm 1 or the header compiler looks.
type conflictFixture struct {
	name  string
	progs []*program.Program
	// hand builds the graph the plans compile when Analyze rejects the
	// programs; nil compiles the analyzed graph.
	hand func(t *testing.T) *tdg.Graph
	// places each put every MAT on a switch of a three-switch line.
	places []placed
	// field is the doubly-defined name every error must carry.
	field string
	// analyzeErr says whether the reference rejects the programs, so a
	// fixture that stops conflicting fails loudly instead of passing.
	analyzeErr bool
}

// placed is one hand placement and whether the reference's header
// compile rejects it.
type placed struct {
	at  map[string]network.SwitchID
	err bool
}

func conflictFixtures(t *testing.T) []conflictFixture {
	x8, x16 := fields.Metadata("meta.x", 8), fields.Metadata("meta.x", 16)
	y := fields.Metadata("meta.y", 8)
	ttl8, ttl16 := fields.Header("ipv4.ttl", 8), fields.Header("ipv4.ttl", 16)
	build := func(b *program.Builder) *program.Program {
		t.Helper()
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return []conflictFixture{
		{
			// (a) Two actions of one MAT write meta.x at two widths.
			name: "within-writes",
			progs: []*program.Program{build(program.NewBuilder("pa").
				Table("t", 4).ActionDef("a1", program.SetOp(x8, 1)).ActionDef("a2", program.SetOp(x16, 1)).
				Table("u", 4).Key(x8, program.MatchExact).ActionDef("w", program.SetOp(y, 1)))},
			field: "meta.x", analyzeErr: true,
		},
		{
			// (b) A match key and an action source read meta.x at two widths.
			name: "key-vs-source",
			progs: []*program.Program{build(program.NewBuilder("pb").
				Table("t", 4).Key(x8, program.MatchExact).ActionDef("c", program.CopyOp(y, x16)).
				Table("u", 4).Key(y, program.MatchExact).ActionDef("w", program.SetOp(fields.Metadata("meta.z", 8), 1)))},
			field: "meta.x", analyzeErr: true,
		},
		{
			// (c) The endpoints of an A edge write the header field
			// ipv4.ttl at two widths: a conflict on the full write sets
			// although neither metadata set holds the field.
			name: "action-edge",
			progs: []*program.Program{build(program.NewBuilder("pc").
				Table("t", 4).ActionDef("a", program.SetOp(ttl8, 1), program.SetOp(x8, 1)).
				Table("u", 4).ActionDef("b", program.SetOp(ttl16, 1)))},
			hand: func(t *testing.T) *tdg.Graph {
				g := tdg.New()
				for _, m := range []*program.MAT{
					{Name: "pc/t", Capacity: 4, Actions: []program.Action{{Name: "a", Ops: []program.Op{program.SetOp(ttl8, 1), program.SetOp(x8, 1)}}}},
					{Name: "pc/u", Capacity: 4, Actions: []program.Action{{Name: "b", Ops: []program.Op{program.SetOp(ttl16, 1)}}}},
				} {
					if err := g.AddNode(m, "pc"); err != nil {
						t.Fatal(err)
					}
				}
				if err := g.AddEdge("pc/t", "pc/u", tdg.DepAction, 0); err != nil {
					t.Fatal(err)
				}
				return g
			},
			places: []placed{{map[string]network.SwitchID{"pc/t": 0, "pc/u": 1}, true}, {map[string]network.SwitchID{"pc/t": 0, "pc/u": 0}, false}},
			field:  "ipv4.ttl", analyzeErr: true,
		},
		{
			// (d) Two programs each consistent on their own deliver
			// meta.x at two widths across one switch pair; on distinct
			// pairs nothing conflicts.
			name: "pair-header",
			progs: []*program.Program{
				build(program.NewBuilder("pd1").
					Table("t", 4).ActionDef("a", program.SetOp(x8, 1)).
					Table("u", 4).Key(x8, program.MatchExact).ActionDef("w", program.SetOp(y, 1))),
				build(program.NewBuilder("pd2").
					Table("t", 8).ActionDef("a", program.SetOp(x16, 1)).
					Table("u", 8).Key(x16, program.MatchExact).ActionDef("w", program.SetOp(y, 1))),
			},
			places: []placed{
				{map[string]network.SwitchID{"pd1/t": 0, "pd1/u": 1, "pd2/t": 0, "pd2/u": 1}, true},
				{map[string]network.SwitchID{"pd1/t": 0, "pd1/u": 1, "pd2/t": 0, "pd2/u": 2}, false},
			},
			field: "meta.x",
		},
		{
			// (e) An M edge whose downstream reads meta.x at another
			// width: Algorithm 1's listing counts a's meta.x whatever b
			// reads, so nothing errors.
			name: "width-mismatched-read",
			progs: []*program.Program{build(program.NewBuilder("pe").
				Table("t", 4).ActionDef("a", program.SetOp(x8, 1), program.SetOp(y, 1)).
				Table("u", 4).Key(x16, program.MatchExact).Key(y, program.MatchExact).
				ActionDef("w", program.SetOp(fields.Metadata("meta.z", 8), 1)))},
			places: []placed{{map[string]network.SwitchID{"pe/t": 0, "pe/u": 1}, false}},
			field:  "meta.x",
		},
		{
			// (f) One hash op reads meta.x at two widths.
			name: "hash-sources",
			progs: []*program.Program{build(program.NewBuilder("pf").
				Table("t", 4).ActionDef("h", program.HashOp(y, x8, x16)).
				Table("u", 4).Key(y, program.MatchExact).ActionDef("v", program.SetOp(fields.Metadata("meta.z", 8), 1)))},
			field: "meta.x", analyzeErr: true,
		},
		{
			// (g) Two actions of one MAT read meta.x at two widths as
			// copy sources.
			name: "source-vs-source",
			progs: []*program.Program{build(program.NewBuilder("pg").
				Table("t", 4).ActionDef("c1", program.CopyOp(y, x8)).ActionDef("c2", program.CopyOp(fields.Metadata("meta.z", 8), x16)).
				Table("u", 4).Key(y, program.MatchExact).ActionDef("w", program.SetOp(fields.Metadata("meta.v", 8), 1)))},
			field: "meta.x", analyzeErr: true,
		},
		{
			// (h) An add reads its destination: meta.x written and read
			// at 16 bits by the add conflicts with the 8-bit match key.
			name: "add-reads-dst",
			progs: []*program.Program{build(program.NewBuilder("ph").
				Table("t", 4).Key(x8, program.MatchExact).ActionDef("a", program.AddOp(x16, y, 1)).
				Table("u", 4).Key(y, program.MatchExact).ActionDef("w", program.SetOp(fields.Metadata("meta.z", 8), 1)))},
			field: "meta.x", analyzeErr: true,
		},
		{
			// (i) As (d), but the two deliveries ride control-flow
			// (successor) edges instead of M edges.
			name: "successor-pair-header",
			progs: []*program.Program{
				build(program.NewBuilder("pi1").
					Table("t", 4).ActionDef("a", program.SetOp(x8, 1)).
					Table("u", 4).ActionDef("w", program.SetOp(y, 1)).
					Gate("t", "u")),
				build(program.NewBuilder("pi2").
					Table("t", 8).ActionDef("a", program.SetOp(x16, 1)).
					Table("u", 8).ActionDef("w", program.SetOp(fields.Metadata("meta.z", 8), 1)).
					Gate("t", "u")),
			},
			places: []placed{
				{map[string]network.SwitchID{"pi1/t": 0, "pi1/u": 1, "pi2/t": 0, "pi2/u": 1}, true},
				{map[string]network.SwitchID{"pi1/t": 0, "pi1/u": 1, "pi2/t": 1, "pi2/u": 2}, false},
			},
			field: "meta.x",
		},
		{
			// (j) An R edge from an 8-bit reader of meta.x to a 16-bit
			// writer of it: reads and writes are separate sets and an R
			// edge delivers nothing, so nothing errors.
			name: "reverse-edge",
			progs: []*program.Program{build(program.NewBuilder("pj").
				Table("t", 4).Key(x8, program.MatchExact).ActionDef("a", program.SetOp(y, 1)).
				Table("u", 4).ActionDef("w", program.SetOp(x16, 1)))},
			places: []placed{{map[string]network.SwitchID{"pj/t": 0, "pj/u": 1}, false}},
			field:  "meta.x",
		},
	}
}

// sameError reports why got fails to match the reference's verdict:
// both nil, or both non-nil with got naming the fixture's field and
// every MAT the reference names.
func sameError(got, want error, field string, mats []string) string {
	switch {
	case (got == nil) != (want == nil):
		return fmt.Sprintf("error %v, set reference %v", got, want)
	case got == nil:
		return ""
	case !strings.Contains(got.Error(), fmt.Sprintf("%q", field)):
		return fmt.Sprintf("error %q does not name field %q (set reference: %v)", got, field, want)
	}
	for _, m := range mats {
		if strings.Contains(want.Error(), fmt.Sprintf("%q", m)) && !strings.Contains(got.Error(), m) {
			return fmt.Sprintf("error %q does not name MAT %q (set reference: %v)", got, m, want)
		}
	}
	return ""
}

// TestFootprintConflictsErrorWhereSetsDid puts each conflict fixture
// through every entry point — Analyze, EdgeMetadataBytes and
// MetadataFields on every MAT pair and dependency type, and Compile on
// hand-placed plans — and requires an error exactly where the fields.Set
// reference errs, naming the same field and MAT.
func TestFootprintConflictsErrorWhereSetsDid(t *testing.T) {
	topo := network.NewTopology("line3")
	for i := 0; i < 3; i++ {
		topo.AddSwitch(network.Switch{Programmable: true, Stages: 2, StageCapacity: 1, TransitLatency: time.Microsecond})
	}
	for i := 0; i < 2; i++ {
		if err := topo.AddLink(network.SwitchID(i), network.SwitchID(i+1), time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	for _, fx := range conflictFixtures(t) {
		var mats []*program.MAT
		var names []string
		for _, p := range fx.progs {
			for _, m := range p.MATs {
				mats = append(mats, m)
				names = append(names, m.Name)
			}
		}
		for _, opts := range analyzerOptionGrid {
			t.Run(fx.name+"/"+optsLabel(opts), func(t *testing.T) {
				got, gerr := analyzer.Analyze(fx.progs, opts)
				want, werr := refAnalyze(fx.progs, opts)
				if (werr != nil) != fx.analyzeErr {
					t.Fatalf("fixture drifted: reference Analyze error %v, want error %v", werr, fx.analyzeErr)
				}
				if msg := sameError(gerr, werr, fx.field, names); msg != "" {
					t.Fatalf("Analyze: %s", msg)
				}
				if gerr == nil {
					compareGraphs(t, got, want)
				}
				for _, a := range mats {
					for _, b := range mats {
						if a == b {
							continue
						}
						for typ := tdg.DepMatch; typ <= tdg.DepSuccessor; typ++ {
							ref, rerr := refEdgeFields(a, b, typ)
							n, nerr := analyzer.EdgeMetadataBytes(a, b, typ)
							if msg := sameError(nerr, rerr, fx.field, names); msg != "" {
								t.Fatalf("EdgeMetadataBytes(%s, %s, %v): %s", a.Name, b.Name, typ, msg)
							}
							fs, ferr := analyzer.MetadataFields(a, b, typ)
							if msg := sameError(ferr, rerr, fx.field, names); msg != "" {
								t.Fatalf("MetadataFields(%s, %s, %v): %s", a.Name, b.Name, typ, msg)
							}
							if rerr == nil && (n != ref.TotalBytes() || !reflect.DeepEqual(fs.Fields(), ref.Fields())) {
								t.Fatalf("%s->%s %v: %dB %v, set reference %dB %v", a.Name, b.Name, typ, n, fs, ref.TotalBytes(), ref)
							}
						}
					}
				}
				g := got
				if fx.hand != nil {
					g = fx.hand(t)
				}
				for _, place := range fx.places {
					plan := &placement.Plan{Graph: g, Topo: topo, Assignments: map[string]placement.StagePlacement{}}
					for name, sw := range place.at {
						plan.Assignments[name] = placement.StagePlacement{Switch: sw, PerStage: []float64{0.1}}
					}
					dep, derr := Compile(plan, opts)
					ref, rerr := refHeaders(plan)
					if (rerr != nil) != place.err {
						t.Fatalf("fixture drifted: reference header error %v on %v, want error %v", rerr, place.at, place.err)
					}
					if msg := sameError(derr, rerr, fx.field, names); msg != "" {
						t.Fatalf("Compile %v: %s", place.at, msg)
					}
					if derr == nil {
						compareHeaders(t, dep, ref)
					}
				}
			})
		}
	}
}
