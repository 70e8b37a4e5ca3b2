package tdg_test

import (
	"cmp"
	"fmt"
	"testing"

	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
	"github.com/hermes-net/hermes/internal/workload"
)

// fromProgramRef is FromProgram as it was before it shared the merge
// core's pair enumeration: name-keyed AddEdge per pair and control
// edge, then a topological sort to refuse cycles. Kept as the
// differential reference.
func fromProgramRef(p *program.Program) (*tdg.Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("tdg: %w", err)
	}
	g := tdg.New()
	for _, m := range p.MATs {
		if err := g.AddNode(m, p.Name); err != nil {
			return nil, err
		}
	}
	fps := make([]program.Footprint, len(p.MATs))
	for i, m := range p.MATs {
		fps[i] = m.Footprint()
		if err := cmp.Or(fps[i].ReadErr, fps[i].WriteErr); err != nil {
			return nil, fmt.Errorf("tdg: %w", err)
		}
	}
	for i := range fps {
		for j := i + 1; j < len(fps); j++ {
			a, b := &fps[i], &fps[j]
			var typ tdg.DepType
			switch {
			case fields.Overlap(a.Writes, b.Reads):
				typ = tdg.DepMatch
			case fields.Overlap(a.Writes, b.Writes):
				typ = tdg.DepAction
			case fields.Overlap(a.Reads, b.Writes):
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
	if !g.IsDAG() {
		return nil, fmt.Errorf("tdg: program %q induces a cyclic TDG", p.Name)
	}
	return g, nil
}

// gatedProgram exercises every way a control edge meets the inferred
// pairs: raising a reverse dependency, leaving match and action
// dependencies alone, standing alone, and repeating itself.
func gatedProgram() *program.Program {
	f, g := fields.Metadata("meta.f", 8), fields.Metadata("meta.g", 8)
	table := func(name string, keys []fields.Field, writes ...fields.Field) *program.MAT {
		m := &program.MAT{Name: "gp/" + name, Capacity: 4}
		for _, k := range keys {
			m.Keys = append(m.Keys, program.MatchKey{Field: k, Type: program.MatchExact})
		}
		a := program.Action{Name: "a"}
		for _, w := range writes {
			a.Ops = append(a.Ops, program.SetOp(w, 1))
		}
		m.Actions = []program.Action{a}
		return m
	}
	return &program.Program{
		Name: "gp",
		MATs: []*program.MAT{
			table("reader", []fields.Field{f}),      // 0: R to 1
			table("writer", nil, f),                 // 1: M to 2, A to 3
			table("consumer", []fields.Field{f}, g), // 2
			table("rewriter", nil, f),               // 3
			table("lone", nil),                      // 4: no data dependency
		},
		Control: []program.ControlEdge{
			{From: "gp/reader", To: "gp/writer"},   // R raised to S
			{From: "gp/writer", To: "gp/consumer"}, // M stays
			{From: "gp/writer", To: "gp/rewriter"}, // A stays
			{From: "gp/reader", To: "gp/lone"},     // S alone
			{From: "gp/consumer", To: "gp/lone"},   // S alone
			{From: "gp/reader", To: "gp/lone"},     // repeated
			{From: "gp/reader", To: "gp/writer"},   // repeated after raising
		},
	}
}

// TestFromProgramMatchesReference holds FromProgram to the name-keyed
// reference: the same nodes, and the same edge list in the same order.
func TestFromProgramMatchesReference(t *testing.T) {
	progs := append(workload.RealPrograms(), gatedProgram())
	for seed := int64(1); seed <= 3; seed++ {
		more, err := workload.EvaluationPrograms(50, seed)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, more[10:]...)
	}
	row := func(e *tdg.Edge) string {
		from, to := e.Endpoints()
		return fmt.Sprintf("%s(%d)->%s(%d) %v %dB", e.From, from, e.To, to, e.Type, e.MetadataBytes)
	}
	for _, p := range progs {
		want, err := fromProgramRef(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tdg.FromProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(want.NodeNames()) != fmt.Sprint(got.NodeNames()) {
			t.Fatalf("%s: nodes %v, reference %v", p.Name, got.NodeNames(), want.NodeNames())
		}
		we, ge := want.EdgeList(), got.EdgeList()
		if len(we) != len(ge) {
			t.Fatalf("%s: %d edges, reference %d", p.Name, len(ge), len(we))
		}
		for i := range we {
			if row(we[i]) != row(ge[i]) {
				t.Fatalf("%s: edge %d is %s, reference %s", p.Name, i, row(ge[i]), row(we[i]))
			}
		}
	}
	g, err := tdg.FromProgram(gatedProgram())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		from, to string
		typ      tdg.DepType
	}{
		{"gp/reader", "gp/writer", tdg.DepSuccessor},
		{"gp/writer", "gp/consumer", tdg.DepMatch},
		{"gp/writer", "gp/rewriter", tdg.DepAction},
		{"gp/consumer", "gp/lone", tdg.DepSuccessor},
	} {
		if e, ok := g.Edge(want.from, want.to); !ok || e.Type != want.typ {
			t.Errorf("edge %s->%s = %v, want %v", want.from, want.to, e, want.typ)
		}
	}
}

// TestFromProgramRefusesBackwardControlEdge: FromProgram no longer
// sorts the graph to refuse a cycle, because the one edge that could
// close one, a control edge against declaration order, fails
// validation first, with the message it always did.
func TestFromProgramRefusesBackwardControlEdge(t *testing.T) {
	p := gatedProgram()
	p.Control = append(p.Control, program.ControlEdge{From: "gp/rewriter", To: "gp/writer"})
	const want = `tdg: program "gp": control edge "gp/rewriter"->"gp/writer" against declaration order`
	for name, build := range map[string]func(*program.Program) (*tdg.Graph, error){
		"FromProgram": tdg.FromProgram, "reference": fromProgramRef,
	} {
		if _, err := build(p); err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %s", name, err, want)
		}
	}
}
