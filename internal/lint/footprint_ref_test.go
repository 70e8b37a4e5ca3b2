package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/p4lite"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
	"github.com/hermes-net/hermes/internal/workload"
)

// This file keeps the name-keyed lint engine the field-id footprints
// replaced, as the differential reference: per MAT two maps from field
// name to the MAT's last definition, built straight from keys and ops.
// LintGraph and LintProgram must return exactly its findings.

// rawMaps is one MAT's reference footprint.
type rawMaps struct {
	reads, writes map[string]fields.Field
}

// rawSets recomputes the MAT's field sets from first principles: match
// keys and op sources are reads, op destinations are writes, and
// read-modify-write ops (add, dec, count) read their destination.
func rawSets(m *program.MAT) rawMaps {
	s := rawMaps{reads: map[string]fields.Field{}, writes: map[string]fields.Field{}}
	for _, k := range m.Keys {
		s.reads[k.Field.Name] = k.Field
	}
	for _, a := range m.Actions {
		for _, op := range a.Ops {
			s.writes[op.Dst.Name] = op.Dst
			for _, src := range op.Srcs {
				s.reads[src.Name] = src
			}
			switch op.Kind {
			case program.OpAdd, program.OpDecrement, program.OpCount:
				s.reads[op.Dst.Name] = op.Dst
			}
		}
	}
	return s
}

func overlapsMaps(a, b map[string]fields.Field) bool {
	for name := range a {
		if _, ok := b[name]; ok {
			return true
		}
	}
	return false
}

func metaBytesMaps(m map[string]fields.Field) int {
	total := 0
	for _, f := range m {
		total += metaSize(f)
	}
	return total
}

// sortedNames lists a field map's names ascending: the reference walks
// its maps in this order, so findings that tie under Findings.Sort keep
// one order on both sides.
func sortedNames(m map[string]fields.Field) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func classifyPairMaps(a, b rawMaps, control bool) tdg.DepType {
	switch {
	case overlapsMaps(a.writes, b.reads):
		return tdg.DepMatch
	case overlapsMaps(a.writes, b.writes):
		return tdg.DepAction
	case overlapsMaps(a.reads, b.writes):
		if control {
			return tdg.DepSuccessor
		}
		return tdg.DepReverse
	case control:
		return tdg.DepSuccessor
	default:
		return 0
	}
}

// expectedBytesMaps recomputes A(a,b) by materializing the union map.
func expectedBytesMaps(a, b rawMaps, typ tdg.DepType) int {
	switch typ {
	case tdg.DepMatch, tdg.DepSuccessor:
		return metaBytesMaps(a.writes)
	case tdg.DepAction:
		union := map[string]fields.Field{}
		for name, f := range a.writes {
			union[name] = f
		}
		for name, f := range b.writes {
			union[name] = f
		}
		return metaBytesMaps(union)
	default:
		return 0
	}
}

// lintIsolatedNodesRef is the name-keyed HL001 pass.
func lintIsolatedNodesRef(g *tdg.Graph, opts Options) Findings {
	if g.NumNodes() < 2 {
		return nil
	}
	var fs Findings
	for _, n := range g.Nodes() {
		if len(g.OutEdgeList(n.Name())) == 0 && len(g.InEdgeList(n.Name())) == 0 {
			fs = append(fs, Finding{
				Rule: "HL001", Severity: Warning, File: opts.File,
				Pos: opts.Source.TablePos(n.Name()), Object: n.Name(),
				Message: fmt.Sprintf("MAT %q is isolated: no data dependency connects it to the pipeline and no control path gates it", n.Name()),
				Hint:    "wire it into the control flow or delete it",
			})
		}
	}
	return fs
}

// lintGraphAllPairs is the reference LintGraph: the same rules on the
// name-keyed footprints, with the lost-dependency pass written as the
// plain scan over all N² node pairs. It is too slow to gate real
// deployments (hundreds of ms at 2.8k MATs).
func lintGraphAllPairs(g *tdg.Graph, opts Options) Findings {
	var fs Findings
	if !g.IsDAG() {
		_, err := g.TopoSort()
		fs = append(fs, Finding{
			Rule: "HL006", Severity: Error, File: opts.File,
			Message: fmt.Sprintf("TDG is cyclic: %v", err),
			Hint:    "a cyclic TDG admits no stage packing on any switch",
		})
		fs.Sort()
		return fs
	}
	nodes := g.Nodes()
	raws := make(map[string]rawMaps, len(nodes))
	for _, n := range nodes {
		raws[n.Name()] = rawSets(n.MAT)
	}
	for _, e := range g.Edges() {
		ra, rb := raws[e.From], raws[e.To]
		want := classifyPairMaps(ra, rb, e.Type == tdg.DepSuccessor)
		if want != e.Type {
			fs = append(fs, Finding{
				Rule: "HL007", Severity: Error, File: opts.File,
				Object: e.From + "->" + e.To,
				Message: fmt.Sprintf("TDG classifies %s->%s as %s, raw field sets imply %v",
					e.From, e.To, e.Type, want),
			})
			continue
		}
		wantBytes := expectedBytesMaps(ra, rb, e.Type)
		if e.MetadataBytes != wantBytes {
			fs = append(fs, Finding{
				Rule: "HL008", Severity: Error, File: opts.File,
				Object: e.From + "->" + e.To,
				Message: fmt.Sprintf("edge %s->%s (%s) annotated with A(a,b)=%dB, raw field sets imply %dB",
					e.From, e.To, e.Type, e.MetadataBytes, wantBytes),
			})
		}
	}
	names := g.NodeNames()
	sort.Strings(names)
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			u, v := names[i], names[j]
			if _, ok := g.Edge(u, v); ok {
				continue
			}
			if _, ok := g.Edge(v, u); ok {
				continue
			}
			nu, _ := g.Node(u)
			nv, _ := g.Node(v)
			if !sharesOrigin(nu, nv) {
				continue
			}
			ru, rv := raws[u], raws[v]
			if overlapsMaps(ru.writes, rv.reads) || overlapsMaps(ru.writes, rv.writes) || overlapsMaps(ru.reads, rv.writes) {
				fs = append(fs, Finding{
					Rule: "HL007", Severity: Error, File: opts.File,
					Object: u + "<->" + v,
					Message: fmt.Sprintf("MATs %q and %q share modified fields but the TDG connects them in neither direction (lost dependency)",
						u, v),
				})
			}
		}
	}
	fs = append(fs, lintIsolatedNodesRef(g, opts)...)
	fs.Sort()
	return fs
}

// lintProgramRef is the reference LintProgram: the name-keyed field
// flow, budget and cross-check passes.
func lintProgramRef(p *program.Program, opts Options) Findings {
	if p == nil {
		return Findings{{Rule: "HL000", Severity: Error, File: opts.File, Message: "nil program"}}
	}
	if err := p.Validate(); err != nil {
		return Findings{{Rule: "HL000", Severity: Error, File: opts.File,
			Object: p.Name, Message: fmt.Sprintf("invalid program: %v", err)}}
	}
	raws := make([]rawMaps, len(p.MATs))
	for i, m := range p.MATs {
		raws[i] = rawSets(m)
	}
	control := map[[2]string]bool{}
	for _, e := range p.Control {
		control[[2]string{e.From, e.To}] = true
	}
	var fs Findings
	fs = append(fs, lintActions(p, opts)...)
	fs = append(fs, lintTableShapes(p, opts)...)
	fs = append(fs, lintFieldFlowRef(p, raws, opts)...)
	fs = append(fs, lintMetadataBudgetRef(p, raws, opts)...)
	if opts.Source != nil {
		fs = append(fs, lintUnusedFields(opts)...)
	}
	g, err := tdg.FromProgram(p)
	if err != nil {
		fs = append(fs, Finding{Rule: "HL006", Severity: Error, File: opts.File,
			Pos: opts.Source.TablePos(p.MATs[0].Name), Object: p.Name,
			Message: fmt.Sprintf("program induces no valid TDG: %v", err),
			Hint:    "break the dependency cycle or remove the conflicting control edges"})
		fs.Sort()
		return fs
	}
	idx := map[string]int{}
	for i, m := range p.MATs {
		idx[m.Name] = i
	}
	for i := 0; i < len(p.MATs); i++ {
		for j := i + 1; j < len(p.MATs); j++ {
			a, b := p.MATs[i], p.MATs[j]
			want := classifyPairMaps(raws[i], raws[j], control[[2]string{a.Name, b.Name}])
			e, ok := g.Edge(a.Name, b.Name)
			switch {
			case want == 0 && ok:
				fs = append(fs, Finding{
					Rule: "HL007", Severity: Error, File: opts.File,
					Pos: opts.Source.TablePos(a.Name), Object: a.Name + "->" + b.Name,
					Message: fmt.Sprintf("TDG has a %s dependency %s->%s but the raw field sets imply none", e.Type, a.Name, b.Name),
				})
			case want != 0 && !ok:
				fs = append(fs, Finding{
					Rule: "HL007", Severity: Error, File: opts.File,
					Pos: opts.Source.TablePos(a.Name), Object: a.Name + "->" + b.Name,
					Message: fmt.Sprintf("raw field sets imply a %s dependency %s->%s that the TDG misses", want, a.Name, b.Name),
				})
			case want != 0 && ok && e.Type != want:
				fs = append(fs, Finding{
					Rule: "HL007", Severity: Error, File: opts.File,
					Pos: opts.Source.TablePos(a.Name), Object: a.Name + "->" + b.Name,
					Message: fmt.Sprintf("TDG classifies %s->%s as %s, raw field sets imply %s", a.Name, b.Name, e.Type, want),
				})
			}
		}
	}
	if err := analyzer.AnnotateMetadata(g); err == nil {
		for _, e := range g.Edges() {
			want := expectedBytesMaps(raws[idx[e.From]], raws[idx[e.To]], e.Type)
			if e.MetadataBytes != want {
				fs = append(fs, Finding{
					Rule: "HL008", Severity: Error, File: opts.File,
					Pos: opts.Source.TablePos(e.From), Object: e.From + "->" + e.To,
					Message: fmt.Sprintf("edge %s->%s (%s) annotated with A(a,b)=%dB, raw field sets imply %dB",
						e.From, e.To, e.Type, e.MetadataBytes, want),
				})
				continue
			}
			a, _ := g.Node(e.From)
			b, _ := g.Node(e.To)
			got, err := analyzer.EdgeMetadataBytes(a.MAT, b.MAT, e.Type)
			if err != nil || got != want {
				fs = append(fs, Finding{
					Rule: "HL008", Severity: Error, File: opts.File,
					Pos: opts.Source.TablePos(e.From), Object: e.From + "->" + e.To,
					Message: fmt.Sprintf("analyzer.EdgeMetadataBytes(%s->%s, %s) = %dB (err=%v), raw field sets imply %dB",
						e.From, e.To, e.Type, got, err, want),
				})
			}
		}
	}
	fs = append(fs, lintIsolatedNodesRef(g, opts)...)
	fs.Sort()
	return fs
}

func lintFieldFlowRef(p *program.Program, raws []rawMaps, opts Options) Findings {
	var fs Findings
	written := map[string]bool{}
	everRead := map[string]bool{}
	for _, s := range raws {
		for name := range s.reads {
			everRead[name] = true
		}
	}
	reportedRead := map[string]bool{}
	for i, m := range p.MATs {
		for name := range raws[i].writes {
			written[name] = true
		}
		for _, name := range sortedNames(raws[i].reads) {
			f := raws[i].reads[name]
			if !f.IsMetadata() || written[name] || intrinsicMetadata[name] || reportedRead[name] {
				continue
			}
			reportedRead[name] = true
			pos := opts.Source.FieldPos(name)
			if pos.IsZero() {
				pos = opts.Source.TablePos(m.Name)
			}
			fs = append(fs, Finding{
				Rule: "HL003", Severity: Warning, File: opts.File,
				Pos: pos, Object: m.Name,
				Message: fmt.Sprintf("MAT %q reads metadata %q before any MAT writes it (uninitialized read)",
					m.Name, name),
				Hint: "write the field in an earlier MAT or match on a header field instead",
			})
		}
	}
	reportedStore := map[string]bool{}
	for i, m := range p.MATs {
		for _, name := range sortedNames(raws[i].writes) {
			f := raws[i].writes[name]
			if !f.IsMetadata() || everRead[name] || sinkMetadata[name] || reportedStore[name] {
				continue
			}
			reportedStore[name] = true
			pos := opts.Source.FieldPos(name)
			if pos.IsZero() {
				pos = opts.Source.TablePos(m.Name)
			}
			fs = append(fs, Finding{
				Rule: "HL009", Severity: Info, File: opts.File,
				Pos: pos, Object: m.Name,
				Message: fmt.Sprintf("metadata %q is written by MAT %q but never read by any MAT (dead store unless it is the program's externally-consumed result)",
					name, m.Name),
			})
		}
	}
	return fs
}

func lintMetadataBudgetRef(p *program.Program, raws []rawMaps, opts Options) Findings {
	budget := opts.budget()
	if budget < 0 {
		return nil
	}
	footprint := map[string]fields.Field{}
	for _, s := range raws {
		for name, f := range s.writes {
			if f.IsMetadata() {
				footprint[name] = f
			}
		}
	}
	total := metaBytesMaps(footprint)
	if total <= budget {
		return nil
	}
	return Findings{{
		Rule: "HL005", Severity: Error, File: opts.File,
		Pos: progPos(opts.Source), Object: p.Name,
		Message: fmt.Sprintf("program writes %d bytes of metadata across %d fields, exceeding the %d-byte header budget; a worst-case cross-switch split cannot serialize the coordination header",
			total, len(footprint), budget),
		Hint: "narrow metadata fields or raise -budget if the target permits larger headers",
	}}
}

// widthConflictProgram declares meta.w twice with different widths:
// 16 bits in the writer, 8 in the rewriter, plus a header/metadata kind
// clash on meta.k, so the id path must read each MAT's own definition.
func widthConflictProgram() *program.Program {
	w16, w8 := fields.Metadata("meta.w", 16), fields.Metadata("meta.w", 8)
	kHdr, kMeta := fields.Header("meta.k", 8), fields.Metadata("meta.k", 8)
	set := func(dst fields.Field) program.Op { return program.Op{Kind: program.OpSet, Dst: dst, Imm: 1} }
	return &program.Program{Name: "widths", MATs: []*program.MAT{
		{Name: "a_writer", Capacity: 1, Actions: []program.Action{{Name: "w", Ops: []program.Op{set(w16), set(kMeta)}}}, DefaultAction: "w"},
		{Name: "b_rewriter", Capacity: 1,
			Keys:          []program.MatchKey{{Field: kHdr, Type: program.MatchExact}},
			Actions:       []program.Action{{Name: "w", Ops: []program.Op{set(w8), {Kind: program.OpAdd, Dst: w16, Srcs: []fields.Field{kHdr}}, set(w8)}}},
			DefaultAction: "w"},
		{Name: "c_reader", Capacity: 1,
			Keys:          []program.MatchKey{{Field: w8, Type: program.MatchExact}},
			Actions:       []program.Action{{Name: "w", Ops: []program.Op{set(fields.Metadata("meta.out", 32))}}},
			DefaultAction: "w"},
	}}
}

// TestLintProgramMatchesMapReference holds LintProgram to the
// name-keyed reference, findings DeepEqual in order, on the p4lite
// examples (with and without their sources, under two budgets) and on
// every program of the workload corpora.
func TestLintProgramMatchesMapReference(t *testing.T) {
	type item struct {
		name string
		p    *program.Program
		opts Options
	}
	var items []item
	for _, file := range []string{"bad.p4", "monitor.p4", "router.p4"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "examples", "p4src", file))
		if err != nil {
			t.Fatal(err)
		}
		p, info, err := p4lite.ParseSource(string(data))
		if err != nil {
			t.Fatal(err)
		}
		items = append(items,
			item{file, p, Options{File: file, Source: info}},
			item{file + "/budget8", p, Options{MetadataBudgetBytes: 8}})
	}
	corpus := func(progs []*program.Program, err error) []*program.Program {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return progs
	}
	var progs []*program.Program
	progs = append(progs, workload.RealPrograms()...)
	progs = append(progs, corpus(workload.EvaluationPrograms(30, 1))...)
	progs = append(progs, corpus(workload.SyntheticSet(30, workload.PaperSyntheticSpec(), 1))...)
	progs = append(progs, corpus(workload.SyntheticSet(16, workload.PaperSyntheticSpec(), 1))...)
	progs = append(progs, widthConflictProgram())
	for _, p := range progs {
		items = append(items, item{p.Name, p, Options{}}, item{p.Name + "/budget4", p, Options{MetadataBudgetBytes: 4}})
	}
	fired := map[string]bool{}
	for _, it := range items {
		got, want := LintProgram(it.p, it.opts), lintProgramRef(it.p, it.opts)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: LintProgram diverges from the map reference:\n got %d findings\n%s\nwant %d findings\n%s",
				it.name, len(got), got.Text(), len(want), want.Text())
		}
		for _, r := range got.Rules() {
			fired[r] = true
		}
	}
	// The corpora must exercise the rules that read footprints.
	for _, r := range []string{"HL003", "HL005", "HL009"} {
		if !fired[r] {
			t.Errorf("no corpus program fired %s; the differential is vacuous for it (fired: %v)", r, fired)
		}
	}
}
