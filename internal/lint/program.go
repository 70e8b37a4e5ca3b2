package lint

import (
	"fmt"
	"slices"

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
	// Analyzer is ignored: no analyzer option changes A(a,b) any more,
	// so HL008 has nothing to mirror. The field stays only until
	// benchmark/ moves onto the facade (ROADMAP 2(ii)).
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

// fieldUse is one field of a MAT's recomputed footprint, under the
// MAT's own last definition of the name.
type fieldUse struct {
	id   int32
	meta bool
	// size is the definition's metaSize: what the field adds to a
	// coordination header.
	size int32
}

// footprints is the independently recomputed read/write footprint of
// a MAT list: per MAT position, its reads and writes as fieldUse lists
// sorted by field id. It is built from the field table's key and op id
// lists and the MATs' own field definitions, bypassing MAT.Footprint,
// the merge's footprints and the sorted-list arithmetic analyzer runs
// on them, so the HL007/HL008 cross-checks do not inherit their bugs.
// The field table contributes names only: match keys and op sources are
// reads, op destinations are writes, and read-modify-write ops (add,
// dec, count) read their destination.
type footprints struct {
	names                 []string // field names by id
	readStart, writeStart []int32
	reads, writes         []fieldUse
	// writeBytes is each MAT's metadata write footprint in bytes.
	writeBytes []int32
}

func (fp *footprints) readsOf(i int32) []fieldUse {
	return fp.reads[fp.readStart[i]:fp.readStart[i+1]]
}

func (fp *footprints) writesOf(i int32) []fieldUse {
	return fp.writes[fp.writeStart[i]:fp.writeStart[i+1]]
}

// newFootprints recomputes the footprints of mats, the MAT list ft was
// interned from. A name's last definition in the MAT stands, so two
// MATs defining one metadata name with different widths each keep
// their own.
func newFootprints(ft *tdg.FieldTable, mats []*program.MAT) *footprints {
	nf := len(ft.Names)
	fp := &footprints{
		names:      ft.Names,
		readStart:  make([]int32, len(mats)+1),
		writeStart: make([]int32, len(mats)+1),
		writeBytes: make([]int32, len(mats)),
	}
	// mark[f] is 1 + the MAT position that last listed field f as a read
	// (first half) or a write (second half); last holds that listing's
	// definition.
	mark := make([]int32, 2*nf)
	last := make([]fieldUse, 2*nf)
	var rs, ws []int32
	use := func(half int, list []int32, stamp, id int32, f fields.Field) []int32 {
		k := half*nf + int(id)
		if mark[k] != stamp {
			mark[k] = stamp
			list = append(list, id)
		}
		last[k] = fieldUse{id: id, meta: f.IsMetadata(), size: int32(metaSize(f))}
		return list
	}
	for i, m := range mats {
		stamp := int32(i) + 1
		rs, ws = rs[:0], ws[:0]
		for k, id := range ft.Keys(int32(i)) {
			rs = use(0, rs, stamp, id, m.Keys[k].Field)
		}
		// The table lists the ops in declaration order: walk the MAT's
		// own ops alongside for their definitions.
		ops, j := ft.Ops(int32(i)), 0
		for _, a := range m.Actions {
			for _, op := range a.Ops {
				fop := ops[j]
				j++
				ws = use(1, ws, stamp, fop.Dst, op.Dst)
				for s, id := range fop.Srcs {
					rs = use(0, rs, stamp, id, op.Srcs[s])
				}
				switch op.Kind {
				case program.OpAdd, program.OpDecrement, program.OpCount:
					rs = use(0, rs, stamp, fop.Dst, op.Dst)
				}
			}
		}
		slices.Sort(rs)
		slices.Sort(ws)
		for _, id := range rs {
			fp.reads = append(fp.reads, last[id])
		}
		for _, id := range ws {
			w := last[nf+int(id)]
			fp.writes = append(fp.writes, w)
			fp.writeBytes[i] += w.size
		}
		fp.readStart[i+1], fp.writeStart[i+1] = int32(len(fp.reads)), int32(len(fp.writes))
	}
	return fp
}

// overlaps reports whether the two sorted lists share a field.
func overlaps(a, b []fieldUse) bool {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i].id < b[j].id:
			i++
		case a[i].id > b[j].id:
			j++
		default:
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

// classifyPair recomputes T(a,b) for MAT positions a and b, a declared
// before b, per §IV: M if a modifies a field b reads, else A if both
// modify a common field, else R if a reads a field b modifies, else S
// when an explicit control edge gates the pair. Returns 0 when the pair
// is independent.
func (fp *footprints) classifyPair(a, b int32, control bool) tdg.DepType {
	switch {
	case overlaps(fp.writesOf(a), fp.readsOf(b)):
		return tdg.DepMatch
	case overlaps(fp.writesOf(a), fp.writesOf(b)):
		return tdg.DepAction
	case overlaps(fp.readsOf(a), fp.writesOf(b)):
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
// footprint merges analyzer.Delivered uses.
func (fp *footprints) expectedBytes(a, b int32, typ tdg.DepType) int {
	switch typ {
	case tdg.DepMatch, tdg.DepSuccessor:
		return int(fp.writeBytes[a])
	case tdg.DepAction:
		// |a.writes ∪ b.writes| by name; on a shared name b's
		// definition stands.
		total := int(fp.writeBytes[b])
		wa, wb := fp.writesOf(a), fp.writesOf(b)
		j := 0
		for _, w := range wa {
			for j < len(wb) && wb[j].id < w.id {
				j++
			}
			if j == len(wb) || wb[j].id != w.id {
				total += int(w.size)
			}
		}
		return total
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

	fp := newFootprints(tdg.InternFields(p.MATs), p.MATs)
	control := map[[2]string]bool{}
	for _, e := range p.Control {
		control[[2]string{e.From, e.To}] = true
	}

	fs = append(fs, lintActions(p, opts)...)
	fs = append(fs, lintTableShapes(p, opts)...)
	fs = append(fs, lintFieldFlow(p, fp, opts)...)
	fs = append(fs, lintMetadataBudget(p, fp, opts)...)
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
	fs = append(fs, crossCheckClassification(p, g, fp, control, opts)...)
	if err := analyzer.AnnotateMetadata(g); err == nil {
		fs = append(fs, crossCheckMetadata(g, fp, opts)...)
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
func lintFieldFlow(p *program.Program, fp *footprints, opts Options) Findings {
	var fs Findings
	nf := len(fp.names)
	flags := make([]bool, 4*nf)
	written, everRead := flags[:nf], flags[nf:2*nf]
	reportedRead, reportedStore := flags[2*nf:3*nf], flags[3*nf:]
	for _, r := range fp.reads {
		everRead[r.id] = true
	}
	for i, m := range p.MATs {
		// The MAT's own writes count as definitions for its reads:
		// read-modify-write ops (counters, TTL) initialize in place.
		for _, w := range fp.writesOf(int32(i)) {
			written[w.id] = true
		}
		for _, r := range fp.readsOf(int32(i)) {
			name := fp.names[r.id]
			if !r.meta || written[r.id] || intrinsicMetadata[name] || reportedRead[r.id] {
				continue
			}
			reportedRead[r.id] = true
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
	for i, m := range p.MATs {
		for _, w := range fp.writesOf(int32(i)) {
			name := fp.names[w.id]
			if !w.meta || everRead[w.id] || sinkMetadata[name] || reportedStore[w.id] {
				continue
			}
			reportedStore[w.id] = true
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
// flags overflow of the header budget (HL005). On a name several MATs
// write, the last writer's definition stands.
func lintMetadataBudget(p *program.Program, fp *footprints, opts Options) Findings {
	budget := opts.budget()
	if budget < 0 {
		return nil
	}
	size := make([]int32, len(fp.names)) // -1: not written as metadata
	for i := range size {
		size[i] = -1
	}
	for _, w := range fp.writes {
		if w.meta {
			size[w.id] = w.size
		}
	}
	total, count := 0, 0
	for _, s := range size {
		if s >= 0 {
			total += int(s)
			count++
		}
	}
	if total <= budget {
		return nil
	}
	return Findings{{
		Rule: "HL005", Severity: Error, File: opts.File,
		Pos: progPos(opts.Source), Object: p.Name,
		Message: fmt.Sprintf("program writes %d bytes of metadata across %d fields, exceeding the %d-byte header budget; a worst-case cross-switch split cannot serialize the coordination header",
			total, count, budget),
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
// the inferred TDG (HL007). g's node ids are the declaration positions.
func crossCheckClassification(p *program.Program, g *tdg.Graph, fp *footprints, control map[[2]string]bool, opts Options) Findings {
	var fs Findings
	for i := int32(0); int(i) < len(p.MATs); i++ {
		for j := i + 1; int(j) < len(p.MATs); j++ {
			a, b := p.MATs[i], p.MATs[j]
			want := fp.classifyPair(i, j, control[[2]string{a.Name, b.Name}])
			e, ok := g.EdgeByID(i, j)
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
// (HL008). g's node ids are the declaration positions.
func crossCheckMetadata(g *tdg.Graph, fp *footprints, opts Options) Findings {
	var fs Findings
	for _, e := range g.EdgeList() {
		from, to := e.Endpoints()
		want := fp.expectedBytes(from, to, e.Type)
		if e.MetadataBytes != want {
			fs = append(fs, Finding{
				Rule: "HL008", Severity: Error, File: opts.File,
				Pos: opts.Source.TablePos(e.From), Object: e.From + "->" + e.To,
				Message: fmt.Sprintf("edge %s->%s (%s) annotated with A(a,b)=%dB, raw field sets imply %dB",
					e.From, e.To, e.Type, e.MetadataBytes, want),
			})
			continue
		}
		got, err := analyzer.EdgeMetadataBytes(g.NodeOf(from).MAT, g.NodeOf(to).MAT, e.Type)
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
	for id := int32(0); int(id) < g.NumNodes(); id++ {
		if len(g.OutEdgesOf(id)) > 0 || len(g.InEdgesOf(id)) > 0 {
			continue
		}
		name := g.NodeOf(id).Name()
		fs = append(fs, Finding{
			Rule: "HL001", Severity: Warning, File: opts.File,
			Pos: opts.Source.TablePos(name), Object: name,
			Message: fmt.Sprintf("MAT %q is isolated: no data dependency connects it to the pipeline and no control path gates it", name),
			Hint:    "wire it into the control flow or delete it",
		})
	}
	return fs
}

// LintGraph runs the TDG-level rules over an already-built (possibly
// merged and annotated) graph: cycles (HL006), isolated nodes (HL001),
// per-edge classification consistency (HL007), and metadata size
// consistency (HL008). Pair orientation information is gone after
// merging, so HL007 only verifies existing edges and flags entirely
// missing data dependencies in either direction. It reads the graph's
// tdg.Index: the MATs in name order and the field table's names.
func LintGraph(g *tdg.Graph, opts Options) Findings {
	var fs Findings
	if g == nil {
		return Findings{{Rule: "HL000", Severity: Error, Message: "nil graph"}}
	}
	if _, err := g.TopoIDs(); err != nil {
		fs = append(fs, Finding{
			Rule: "HL006", Severity: Error, File: opts.File,
			Message: fmt.Sprintf("TDG is cyclic: %v", err),
			Hint:    "a cyclic TDG admits no stage packing on any switch",
		})
		fs.Sort()
		return fs
	}
	// MAT positions are name ranks: rank order is the u < v orientation
	// lost-dependency findings are reported in.
	ix := g.Index()
	mats := make([]*program.MAT, len(ix.ByName))
	for r, id := range ix.ByName {
		mats[r] = g.NodeOf(id).MAT
	}
	fp := newFootprints(ix.Fields(), mats)
	// Existing edges: the recomputed class from raw sets must match,
	// except S edges (control provenance is not recoverable here).
	//hermes:hot
	for _, e := range g.EdgeList() {
		from, to := e.Endpoints()
		a, b := ix.Rank[from], ix.Rank[to]
		want := fp.classifyPair(a, b, e.Type == tdg.DepSuccessor)
		if want != e.Type {
			fs = append(fs, Finding{
				Rule: "HL007", Severity: Error, File: opts.File,
				Object: e.From + "->" + e.To,
				Message: fmt.Sprintf("TDG classifies %s->%s as %s, raw field sets imply %v",
					e.From, e.To, e.Type, want),
			})
			continue
		}
		wantBytes := fp.expectedBytes(a, b, e.Type)
		if e.MetadataBytes != wantBytes {
			fs = append(fs, Finding{
				Rule: "HL008", Severity: Error, File: opts.File,
				Object: e.From + "->" + e.To,
				Message: fmt.Sprintf("edge %s->%s (%s) annotated with A(a,b)=%dB, raw field sets imply %dB",
					e.From, e.To, e.Type, e.MetadataBytes, wantBytes),
			})
		}
	}
	fs = append(fs, lintLostDependencies(g, ix, fp, opts)...)
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
// the writers of every field it reads. fp's MAT positions are name
// ranks; a pair is examined once, from its lower rank, with seen
// deduplicating partners that share several fields.
func lintLostDependencies(g *tdg.Graph, ix *tdg.Index, fp *footprints, opts Options) Findings {
	// Per field, its writers and its touchers in ascending rank, laid
	// out as offsets into two flat lists. A MAT that reads and writes a
	// field is listed twice among its touchers; seen absorbs that.
	nf, n := len(fp.names), int32(len(ix.ByName))
	offs := make([]int32, 4*(nf+1))
	wStart, tStart := offs[:nf+1], offs[nf+1:2*(nf+1)]
	wFill, tFill := offs[2*(nf+1):3*(nf+1)], offs[3*(nf+1):]
	for _, w := range fp.writes {
		wStart[w.id+1]++
		tStart[w.id+1]++
	}
	for _, r := range fp.reads {
		tStart[r.id+1]++
	}
	for f := 0; f < nf; f++ {
		wStart[f+1] += wStart[f]
		tStart[f+1] += tStart[f]
	}
	copy(wFill, wStart)
	copy(tFill, tStart)
	writers := make([]int32, wStart[nf])
	touchers := make([]int32, tStart[nf])
	for u := int32(0); u < n; u++ {
		for _, w := range fp.writesOf(u) {
			writers[wFill[w.id]], touchers[tFill[w.id]] = u, u
			wFill[w.id]++
			tFill[w.id]++
		}
		for _, r := range fp.readsOf(u) {
			touchers[tFill[r.id]] = u
			tFill[r.id]++
		}
	}

	var fs Findings
	seen := make([]int32, n) // seen[v] == u+1: pair (u, v) examined
	examine := func(u int32, partners []int32) {
		//hermes:hot
		for _, v := range partners {
			if v <= u || seen[v] == u+1 {
				continue
			}
			seen[v] = u + 1
			a, b := ix.ByName[u], ix.ByName[v]
			if _, ok := g.EdgeByID(a, b); ok {
				continue
			}
			if _, ok := g.EdgeByID(b, a); ok {
				continue
			}
			na, nb := g.NodeOf(a), g.NodeOf(b)
			if !sharesOrigin(na, nb) {
				continue
			}
			fs = append(fs, Finding{
				Rule: "HL007", Severity: Error, File: opts.File,
				Object: na.Name() + "<->" + nb.Name(),
				Message: fmt.Sprintf("MATs %q and %q share modified fields but the TDG connects them in neither direction (lost dependency)",
					na.Name(), nb.Name()),
			})
		}
	}
	//hermes:hot
	for u := int32(0); u < n; u++ {
		for _, w := range fp.writesOf(u) {
			examine(u, touchers[tStart[w.id]:tStart[w.id+1]])
		}
		for _, r := range fp.readsOf(u) {
			examine(u, writers[wStart[r.id]:wStart[r.id+1]])
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
