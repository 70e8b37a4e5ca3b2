package lint

import (
	"fmt"
	"sort"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/p4lite"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

// DefaultMetadataBudget is the per-program metadata byte budget HL005
// checks: the headroom a pipeline's PHV and the coordination header
// format leave for user metadata. Roughly half a Tofino PHV's byte
// capacity — deliberately conservative, and overridable per run.
const DefaultMetadataBudget = 64

// Options tune the lint engine.
type Options struct {
	// MetadataBudgetBytes is the HL005 budget; zero means
	// DefaultMetadataBudget, negative disables the rule.
	MetadataBudgetBytes int
	// Analyzer carries the analyzer options (IntersectMatch) the
	// metadata recomputation of HL008 must mirror.
	Analyzer analyzer.Options
	// File is attached to findings for source-bearing lint runs.
	File string
	// Source supplies p4lite positions when the program came from text.
	Source *p4lite.Source
}

func (o Options) budget() int {
	if o.MetadataBudgetBytes == 0 {
		return DefaultMetadataBudget
	}
	return o.MetadataBudgetBytes
}

// intrinsicMetadata lists catalog metadata the switch hardware
// populates (Table I telemetry sources); reading them without a prior
// MAT write is not an uninitialized read.
var intrinsicMetadata = map[string]bool{
	fields.MetaSwitchID:  true,
	fields.MetaQueueLen:  true,
	fields.MetaTimestamp: true,
}

// sinkMetadata lists catalog metadata the switch hardware consumes
// after the pipeline (traffic manager verdicts); writing them without
// a downstream MAT read is not a dead store.
var sinkMetadata = map[string]bool{
	fields.MetaEgressPort: true,
	fields.MetaDropFlag:   true,
}

// rawSets is the independently-recomputed read/write footprint of one
// MAT. It is built directly from keys and ops, bypassing
// MAT.ReadFields/ModifiedFields, so the HL007/HL008 cross-checks do
// not inherit their bugs.
type rawSets struct {
	reads, writes map[string]fields.Field
}

// rawFootprint recomputes the MAT's field sets from first principles:
// match keys and op sources are reads, op destinations are writes, and
// read-modify-write ops (add, dec, count) read their destination.
func rawFootprint(m *program.MAT) rawSets {
	s := rawSets{reads: map[string]fields.Field{}, writes: map[string]fields.Field{}}
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

// overlaps reports whether the two field maps share a name.
func overlaps(a, b map[string]fields.Field) bool {
	small, big := a, b
	if len(big) < len(small) {
		small, big = big, small
	}
	for name := range small {
		if _, ok := big[name]; ok {
			return true
		}
	}
	return false
}

// metaSize is the whole-byte size a field adds to a coordination
// header: zero unless it is metadata.
func metaSize(f fields.Field) int {
	if !f.IsMetadata() {
		return 0
	}
	return (f.Bits + 7) / 8
}

// metaBytes sums whole-byte sizes of the metadata fields in the map.
func metaBytes(m map[string]fields.Field) int {
	total := 0
	for _, f := range m {
		total += metaSize(f)
	}
	return total
}

// classifyPair recomputes T(a,b) for a declared before b, per §IV:
// M if a modifies a field b reads, else A if both modify a common
// field, else R if a reads a field b modifies, else S when an explicit
// control edge gates the pair. Returns 0 when the pair is independent.
func classifyPair(a, b rawSets, control bool) tdg.DepType {
	switch {
	case overlaps(a.writes, b.reads):
		return tdg.DepMatch
	case overlaps(a.writes, b.writes):
		return tdg.DepAction
	case overlaps(a.reads, b.writes):
		if control {
			// AddEdge keeps the stronger type: S subsumes R.
			return tdg.DepSuccessor
		}
		return tdg.DepReverse
	case control:
		return tdg.DepSuccessor
	default:
		return 0
	}
}

// expectedBytes recomputes A(a,b) per Algorithm 1, independent of the
// fields.Set machinery analyzer uses. It sums straight over the raw
// sets: LintGraph calls it once per edge, so a scratch map per call
// would dominate the edge pass.
func expectedBytes(a, b rawSets, typ tdg.DepType, intersectMatch bool) int {
	switch typ {
	case tdg.DepMatch:
		if !intersectMatch {
			return metaBytes(a.writes)
		}
		total := 0
		for name, f := range a.writes {
			if g, ok := b.reads[name]; ok && g == f {
				total += metaSize(f)
			}
		}
		return total
	case tdg.DepAction:
		// |a.writes ∪ b.writes| by name; on a shared name b's
		// definition stands.
		total := metaBytes(b.writes)
		for name, f := range a.writes {
			if _, ok := b.writes[name]; !ok {
				total += metaSize(f)
			}
		}
		return total
	case tdg.DepSuccessor:
		return metaBytes(a.writes)
	default: // R edges carry nothing
		return 0
	}
}

// LintProgram runs every program-level rule over a single program. If
// the program induces a TDG, the TDG rules (including the dependency
// cross-check against tdg.FromProgram and analyzer.EdgeMetadataBytes)
// run as well.
func LintProgram(p *program.Program, opts Options) Findings {
	var fs Findings
	if p == nil {
		return Findings{{Rule: "HL000", Severity: Error, File: opts.File, Message: "nil program"}}
	}
	if err := p.Validate(); err != nil {
		return Findings{{Rule: "HL000", Severity: Error, File: opts.File,
			Object: p.Name, Message: fmt.Sprintf("invalid program: %v", err)}}
	}

	raws := make([]rawSets, len(p.MATs))
	for i, m := range p.MATs {
		raws[i] = rawFootprint(m)
	}
	control := map[[2]string]bool{}
	for _, e := range p.Control {
		control[[2]string{e.From, e.To}] = true
	}

	fs = append(fs, lintActions(p, opts)...)
	fs = append(fs, lintTableShapes(p, opts)...)
	fs = append(fs, lintFieldFlow(p, raws, opts)...)
	fs = append(fs, lintMetadataBudget(p, raws, opts)...)
	if opts.Source != nil {
		fs = append(fs, lintUnusedFields(opts)...)
	}

	// Build the reference TDG and cross-check it against the
	// independent pairwise classification.
	g, err := tdg.FromProgram(p)
	if err != nil {
		fs = append(fs, Finding{Rule: "HL006", Severity: Error, File: opts.File,
			Pos: opts.Source.TablePos(p.MATs[0].Name), Object: p.Name,
			Message: fmt.Sprintf("program induces no valid TDG: %v", err),
			Hint:    "break the dependency cycle or remove the conflicting control edges"})
		fs.Sort()
		return fs
	}
	fs = append(fs, crossCheckClassification(p, g, raws, control, opts)...)
	if err := analyzer.AnnotateMetadata(g, opts.Analyzer); err == nil {
		fs = append(fs, crossCheckMetadata(p, g, raws, opts)...)
	}
	fs = append(fs, lintIsolatedNodes(g, opts)...)
	fs.Sort()
	return fs
}

// lintActions flags dead actions: never referenced by an installed
// rule and not the default (HL002).
func lintActions(p *program.Program, opts Options) Findings {
	var fs Findings
	for _, m := range p.MATs {
		used := map[string]bool{}
		for _, r := range m.Rules {
			used[r.Action] = true
		}
		for _, a := range m.Actions {
			if a.Name == m.DefaultAction || used[a.Name] {
				continue
			}
			sev := Warning
			if len(m.Rules) == 0 {
				// No rules installed yet: the action may be selected
				// by future control plane rules.
				sev = Info
			}
			fs = append(fs, Finding{
				Rule: "HL002", Severity: sev, File: opts.File,
				Pos:    opts.Source.ActionPos(m.Name, a.Name),
				Object: m.Name + "." + a.Name,
				Message: fmt.Sprintf("action %q is neither the default of MAT %q nor referenced by any of its %d rule(s)",
					a.Name, m.Name, len(m.Rules)),
				Hint: "remove the action or install a rule selecting it",
			})
		}
	}
	return fs
}

// lintTableShapes flags structurally suspect tables: keyless tables
// with several actions (HL010) and keyed tables with neither rules nor
// a default (HL011).
func lintTableShapes(p *program.Program, opts Options) Findings {
	var fs Findings
	for _, m := range p.MATs {
		if len(m.Keys) == 0 && len(m.Actions) > 1 {
			fs = append(fs, Finding{
				Rule: "HL010", Severity: Warning, File: opts.File,
				Pos: opts.Source.TablePos(m.Name), Object: m.Name,
				Message: fmt.Sprintf("MAT %q has no match key but %d actions; only the default can ever run",
					m.Name, len(m.Actions)),
				Hint: "add a match key or drop the unreachable actions",
			})
		}
		if len(m.Keys) > 0 && len(m.Rules) == 0 && m.DefaultAction == "" {
			fs = append(fs, Finding{
				Rule: "HL011", Severity: Info, File: opts.File,
				Pos: opts.Source.TablePos(m.Name), Object: m.Name,
				Message: fmt.Sprintf("MAT %q matches %d field(s) but installs no rules and no default; every packet misses into a no-op",
					m.Name, len(m.Keys)),
				Hint: "declare a default action",
			})
		}
	}
	return fs
}

// lintFieldFlow tracks metadata def-use across the program order:
// reads with no preceding write (HL003) and writes never read (HL009).
func lintFieldFlow(p *program.Program, raws []rawSets, opts Options) Findings {
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
		// The MAT's own writes count as definitions for its reads:
		// read-modify-write ops (counters, TTL) initialize in place.
		for name := range raws[i].writes {
			written[name] = true
		}
		for name, f := range raws[i].reads {
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
		for name, f := range raws[i].writes {
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

// lintMetadataBudget sums the program's metadata write footprint and
// flags overflow of the header budget (HL005).
func lintMetadataBudget(p *program.Program, raws []rawSets, opts Options) Findings {
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
	total := metaBytes(footprint)
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

// progPos returns the program declaration position, nil-safe.
func progPos(s *p4lite.Source) p4lite.Pos {
	if s == nil {
		return p4lite.Pos{}
	}
	return s.ProgramPos
}

// lintUnusedFields flags declared-but-unreferenced fields (HL004).
func lintUnusedFields(opts Options) Findings {
	var fs Findings
	for _, name := range opts.Source.UnusedFields() {
		fs = append(fs, Finding{
			Rule: "HL004", Severity: Warning, File: opts.File,
			Pos: opts.Source.FieldPos(name), Object: name,
			Message: fmt.Sprintf("field %q is declared but never referenced", name),
			Hint:    "delete the declaration",
		})
	}
	return fs
}

// crossCheckClassification recomputes T(a,b) for every declaration-
// ordered pair from raw read/write sets and diffs the result against
// the inferred TDG (HL007).
func crossCheckClassification(p *program.Program, g *tdg.Graph, raws []rawSets, control map[[2]string]bool, opts Options) Findings {
	var fs Findings
	for i := 0; i < len(p.MATs); i++ {
		for j := i + 1; j < len(p.MATs); j++ {
			a, b := p.MATs[i], p.MATs[j]
			want := classifyPair(raws[i], raws[j], control[[2]string{a.Name, b.Name}])
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
	return fs
}

// crossCheckMetadata recomputes A(a,b) for every edge and diffs it
// against both the annotated edge value and analyzer.EdgeMetadataBytes
// (HL008).
func crossCheckMetadata(p *program.Program, g *tdg.Graph, raws []rawSets, opts Options) Findings {
	idx := map[string]int{}
	for i, m := range p.MATs {
		idx[m.Name] = i
	}
	var fs Findings
	for _, e := range g.Edges() {
		want := expectedBytes(raws[idx[e.From]], raws[idx[e.To]], e.Type, opts.Analyzer.IntersectMatch)
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
		got, err := analyzer.EdgeMetadataBytes(a.MAT, b.MAT, e.Type, opts.Analyzer)
		if err != nil || got != want {
			fs = append(fs, Finding{
				Rule: "HL008", Severity: Error, File: opts.File,
				Pos: opts.Source.TablePos(e.From), Object: e.From + "->" + e.To,
				Message: fmt.Sprintf("analyzer.EdgeMetadataBytes(%s->%s, %s) = %dB (err=%v), raw field sets imply %dB",
					e.From, e.To, e.Type, got, err, want),
			})
		}
	}
	return fs
}

// lintIsolatedNodes flags unreachable tables: nodes of a multi-table
// TDG with no dependencies at all — they share no state with the rest
// of the pipeline and sit on no control path (HL001).
func lintIsolatedNodes(g *tdg.Graph, opts Options) Findings {
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

// LintGraph runs the TDG-level rules over an already-built (possibly
// merged and annotated) graph: cycles (HL006), isolated nodes (HL001),
// per-edge classification consistency (HL007), and metadata size
// consistency (HL008). Pair orientation information is gone after
// merging, so HL007 only verifies existing edges and flags entirely
// missing data dependencies in either direction.
func LintGraph(g *tdg.Graph, opts Options) Findings {
	var fs Findings
	if g == nil {
		return Findings{{Rule: "HL000", Severity: Error, Message: "nil graph"}}
	}
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
	// Dense node indices in name order: index order is the u < v
	// orientation lost-dependency findings are reported in.
	names := g.NodeNames()
	sort.Strings(names)
	index := make(map[string]int32, len(names))
	nodes := make([]*tdg.Node, len(names))
	raws := make([]rawSets, len(names))
	for i, name := range names {
		index[name] = int32(i)
		nodes[i], _ = g.Node(name)
		raws[i] = rawFootprint(nodes[i].MAT)
	}
	// Existing edges: the recomputed class from raw sets must match,
	// except S edges (control provenance is not recoverable here).
	for _, e := range g.EdgeList() {
		ra, rb := raws[index[e.From]], raws[index[e.To]]
		want := classifyPair(ra, rb, e.Type == tdg.DepSuccessor)
		if want != e.Type {
			fs = append(fs, Finding{
				Rule: "HL007", Severity: Error, File: opts.File,
				Object: e.From + "->" + e.To,
				Message: fmt.Sprintf("TDG classifies %s->%s as %s, raw field sets imply %v",
					e.From, e.To, e.Type, want),
			})
			continue
		}
		wantBytes := expectedBytes(ra, rb, e.Type, opts.Analyzer.IntersectMatch)
		if e.MetadataBytes != wantBytes {
			fs = append(fs, Finding{
				Rule: "HL008", Severity: Error, File: opts.File,
				Object: e.From + "->" + e.To,
				Message: fmt.Sprintf("edge %s->%s (%s) annotated with A(a,b)=%dB, raw field sets imply %dB",
					e.From, e.To, e.Type, e.MetadataBytes, wantBytes),
			})
		}
	}
	fs = append(fs, lintLostDependencies(g, nodes, raws, opts)...)
	fs = append(fs, lintIsolatedNodes(g, opts)...)
	fs.Sort()
	return fs
}

// lintLostDependencies flags a data overlap between two nodes of the
// same source program that the TDG connects in neither direction
// (HL007). Cross-program pairs are exempt — the merger deliberately
// does not relate independent programs that happen to touch the same
// fields.
//
// Two nodes overlap exactly when some field is written by one and
// read or written by the other, so an inverted field index enumerates
// the overlapping pairs directly instead of testing all N² of them:
// each node is paired with the touchers of every field it writes and
// the writers of every field it reads. nodes and raws are indexed in
// name order; a pair is examined once, from its lower index, with
// seen deduplicating partners that share several fields.
func lintLostDependencies(g *tdg.Graph, nodes []*tdg.Node, raws []rawSets, opts Options) Findings {
	fieldID := map[string]int{}
	var writers, touchers [][]int32 // per field, ascending node index
	intern := func(name string) int {
		id, ok := fieldID[name]
		if !ok {
			id = len(writers)
			fieldID[name] = id
			writers = append(writers, nil)
			touchers = append(touchers, nil)
		}
		return id
	}
	for i, r := range raws {
		for name := range r.writes {
			id := intern(name)
			writers[id] = append(writers[id], int32(i))
			touchers[id] = append(touchers[id], int32(i))
		}
		for name := range r.reads {
			if _, ok := r.writes[name]; !ok {
				id := intern(name)
				touchers[id] = append(touchers[id], int32(i))
			}
		}
	}

	var fs Findings
	seen := make([]int32, len(nodes)) // seen[v] == u+1: pair (u, v) examined
	examine := func(u int, partners []int32) {
		for _, v := range partners {
			if int(v) <= u || seen[v] == int32(u)+1 {
				continue
			}
			seen[v] = int32(u) + 1
			a, b := nodes[u].Name(), nodes[v].Name()
			if _, ok := g.Edge(a, b); ok {
				continue
			}
			if _, ok := g.Edge(b, a); ok {
				continue
			}
			if !sharesOrigin(nodes[u], nodes[v]) {
				continue
			}
			fs = append(fs, Finding{
				Rule: "HL007", Severity: Error, File: opts.File,
				Object: a + "<->" + b,
				Message: fmt.Sprintf("MATs %q and %q share modified fields but the TDG connects them in neither direction (lost dependency)",
					a, b),
			})
		}
	}
	for u, r := range raws {
		for name := range r.writes {
			examine(u, touchers[fieldID[name]])
		}
		for name := range r.reads {
			examine(u, writers[fieldID[name]])
		}
	}
	return fs
}

// sharesOrigin reports whether two merged-TDG nodes come from at least
// one common source program. Nodes built outside the analyzer carry no
// origin; treat those as same-program so hand-built graphs get the
// full check.
func sharesOrigin(a, b *tdg.Node) bool {
	if len(a.Origin) == 0 || len(b.Origin) == 0 {
		return true
	}
	for _, oa := range a.Origin {
		for _, ob := range b.Origin {
			if oa == ob {
				return true
			}
		}
	}
	return false
}
