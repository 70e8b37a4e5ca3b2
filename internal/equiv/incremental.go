// Incremental equivalence re-checking after a replan. A drain-driven
// replan usually moves a handful of MATs; re-proving the whole merged
// pipeline repeats work for every program whose placement is
// untouched. The Rechecker partitions the reference graph into
// field-closed components — MATs coupled by a shared field, a TDG
// edge, or a common origin program end up together — and after a
// replan re-proves only the components containing a moved MAT
// (ReplanReport.Moved), carrying the prior verdict for the rest.
//
// Soundness rests on three facts. First, components are closed under
// field access and edges: every reader, writer, and edge neighbor of a
// component field is inside the component, so a component's per-field
// write histories are fully determined by its own MATs' placements.
// Second, the dependency analyzer edge-connects conflicting accesses,
// so any two MATs touching the same field carry a direct TDG edge;
// every realizable switch order (global or component-local) respects
// that edge identically, which makes the component sub-walk observe
// exactly the per-field histories the global walk would project onto
// the component. Third, the conditions a component cannot decide
// locally — a cyclic contracted switch order, a duplicated or unknown
// MAT, a drifted definition — are screened globally by the cheap
// structural pass before any sub-walk verdict is trusted; a structural
// failure falls back to the full diagnostic check. The incremental
// path additionally verifies that every MAT outside the dirty
// components sits exactly where the last proven plan put it, so an
// under-reported move degrades to a full check rather than a stale
// verdict.
package equiv

import (
	"fmt"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/tdg"
)

// DefaultRecheckThreshold is the dirty-MAT fraction above which
// Recheck abandons the per-component path and runs the full walk: once
// most of the pipeline moved, component bookkeeping costs more than it
// saves.
const DefaultRecheckThreshold = 0.5

// RecheckStats reports which path one Recheck call took.
type RecheckStats struct {
	// Full marks a full-walk check (first proof, fallback, or
	// over-threshold dirty set); false means only dirty components were
	// re-proven.
	Full bool
	// FallbackReason is empty on the incremental path and on a planned
	// full check; otherwise it names why the incremental path was
	// abandoned.
	FallbackReason string
	// DirtyComponents and DirtyMATs size the re-proven region;
	// TotalMATs is the reference pipeline size for comparison.
	DirtyComponents int
	DirtyMATs       int
	TotalMATs       int
}

// Rechecker proves successive plans over one reference graph,
// re-proving only what a replan moved. Like Checker it is not safe for
// concurrent use.
type Rechecker struct {
	// Threshold overrides DefaultRecheckThreshold when positive.
	Threshold float64

	full *Checker

	// Component partition of the reference MATs (dense index space).
	compOf []int32
	comps  [][]string // MAT names per component, ascending

	// Memoized per-component sub-checkers and their subgraphs.
	subs  []*Checker
	subGs []*tdg.Graph
	dirty []bool // per-component dirty scratch

	// Baseline: the last proven plan's placements (switch and start
	// stage — the two coordinates the equivalence semantics see).
	verified bool
	base     map[string]basePlacement
}

type basePlacement struct {
	sw    network.SwitchID
	start int
}

// NewRechecker builds a rechecker for the reference graph, computing
// the field/edge/program component partition once.
func NewRechecker(ref *tdg.Graph) (*Rechecker, error) {
	full, err := NewChecker(ref)
	if err != nil {
		return nil, err
	}
	r := &Rechecker{full: full}
	r.buildComponents()
	return r, nil
}

// Reference returns the graph this rechecker proves against.
func (r *Rechecker) Reference() *tdg.Graph { return r.full.Reference() }

// Components returns the MAT-name partition the incremental path
// re-proves by (each inner slice ascending) — exposed for telemetry
// and tests.
func (r *Rechecker) Components() [][]string {
	out := make([][]string, len(r.comps))
	for i, c := range r.comps {
		out[i] = append([]string(nil), c...)
	}
	return out
}

// buildComponents unions the reference MATs over shared fields, TDG
// edges, and shared origin programs, then materializes the partition.
func (r *Rechecker) buildComponents() {
	ov := r.full.ov
	n := len(ov.names)
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}

	// Shared fields: the first toucher of each field anchors it. Every
	// field a MAT's unrefined read set names is in its reads or its
	// writes, so the two lists couple every analyzer-visible access.
	fieldOwner := make([]int32, len(ov.fieldNames))
	for i := range fieldOwner {
		fieldOwner[i] = -1
	}
	link := func(x int32, starts, fs []int32) {
		for s := starts[x]; s < starts[x+1]; s++ {
			fi := fs[s]
			if fieldOwner[fi] < 0 {
				fieldOwner[fi] = x
			} else {
				union(fieldOwner[fi], x)
			}
		}
	}
	for x := int32(0); x < int32(n); x++ {
		link(x, ov.readStart, ov.readF)
		link(x, ov.writeStart, ov.writeF)
	}

	// TDG edges: ordering constraints and carried fields stay
	// component-internal.
	for _, e := range ov.g.EdgeList() {
		union(ov.index[e.From], ov.index[e.To])
	}

	// Shared origin programs: a program's verdict is re-proven whole.
	progOwner := map[string]int32{}
	for x, node := range ov.nodes {
		for _, org := range node.Origin {
			if prev, ok := progOwner[org]; ok {
				union(prev, int32(x))
			} else {
				progOwner[org] = int32(x)
			}
		}
	}

	r.compOf = make([]int32, n)
	rootComp := map[int32]int32{}
	for x := int32(0); x < int32(n); x++ { // ascending index = sorted names
		root := find(x)
		ci, ok := rootComp[root]
		if !ok {
			ci = int32(len(r.comps))
			rootComp[root] = ci
			r.comps = append(r.comps, nil)
		}
		r.compOf[x] = ci
		r.comps[ci] = append(r.comps[ci], ov.names[x])
	}
	r.subs = make([]*Checker, len(r.comps))
	r.subGs = make([]*tdg.Graph, len(r.comps))
	r.dirty = make([]bool, len(r.comps))
}

// Check runs the full proof and, on success, records the plan as the
// incremental baseline. aopts is ignored, here and in RecheckReplan:
// no analyzer option changes the carried headers any more, and the
// parameter stays only until benchmark/ moves onto the facade
// (ROADMAP 2(ii)).
func (r *Rechecker) Check(p *placement.Plan, aopts analyzer.Options) error {
	return r.check(p)
}

func (r *Rechecker) check(p *placement.Plan) error {
	err := r.full.CheckPlan(p)
	r.updateBaseline(p, err)
	return err
}

// RecheckReplan is Recheck keyed off a replan's churn telemetry. A nil
// report means the moved set is unknown, so the full proof runs.
func (r *Rechecker) RecheckReplan(p *placement.Plan, rep *placement.ReplanReport, aopts analyzer.Options) (RecheckStats, error) {
	if rep == nil {
		st := RecheckStats{Full: true, FallbackReason: "no replan report", TotalMATs: len(r.full.ov.names)}
		return st, r.check(p)
	}
	return r.Recheck(p, rep.Moved)
}

// Recheck proves the plan equivalent, re-proving only the components
// containing a moved MAT when a verified baseline exists and the dirty
// fraction stays under the threshold. The verdict is identical to a
// full Check: any condition the component view cannot decide falls
// back to the full proof.
func (r *Rechecker) Recheck(p *placement.Plan, moved []string) (RecheckStats, error) {
	st := RecheckStats{TotalMATs: len(r.full.ov.names)}
	fallback := func(reason string) (RecheckStats, error) {
		st.Full = true
		st.FallbackReason = reason
		return st, r.check(p)
	}

	if p == nil || p.Graph == nil {
		return fallback("nil plan")
	}
	if !r.verified {
		return fallback("no verified baseline")
	}
	if p.Graph != r.full.ov.g {
		// Carried-field derivation walks the plan's own edge list; a
		// different graph can couple components the reference never did.
		return fallback("plan graph is not the reference graph")
	}

	// Mark dirty components off the moved set.
	for i := range r.dirty {
		r.dirty[i] = false
	}
	for _, name := range moved {
		x, ok := r.full.ov.index[name]
		if !ok {
			return fallback(fmt.Sprintf("moved MAT %q unknown to reference", name))
		}
		r.dirty[r.compOf[x]] = true
	}
	for _, ci := range r.compOf {
		if r.dirty[ci] {
			st.DirtyMATs++
		}
	}
	for _, d := range r.dirty {
		if d {
			st.DirtyComponents++
		}
	}
	thr := r.Threshold
	if thr <= 0 {
		thr = DefaultRecheckThreshold
	}
	if float64(st.DirtyMATs) > thr*float64(st.TotalMATs) {
		return fallback(fmt.Sprintf("dirty fraction %d/%d over threshold", st.DirtyMATs, st.TotalMATs))
	}

	// Global structural screen: lower the whole plan (cheap, no walk)
	// and reject or fall back on anything a component cannot see.
	if err := r.full.lowerPlan(p); err != nil {
		r.forget()
		return st, err
	}
	if !r.full.structuralClean() {
		st.Full = true
		st.FallbackReason = "structural screen failed"
		err := findingsErr(r.full.diagnose(false))
		r.updateBaseline(p, err)
		return st, err
	}

	// Clean components must sit exactly where the proven baseline put
	// them; otherwise the moved list under-reports and the verdict
	// cannot be carried.
	for x, ci := range r.compOf {
		if r.dirty[ci] {
			continue
		}
		name := r.full.ov.names[x]
		sp, ok := p.Assignments[name]
		if !ok {
			return fallback(fmt.Sprintf("clean MAT %q unassigned", name))
		}
		if b := r.base[name]; b.sw != sp.Switch || b.start != sp.Start {
			return fallback(fmt.Sprintf("unreported move of MAT %q", name))
		}
	}

	// Re-prove each dirty component against its own sub-reference.
	for ci := range r.comps {
		if !r.dirty[ci] {
			continue
		}
		sub, err := r.subChecker(ci)
		if err != nil {
			r.forget()
			return st, err
		}
		subPlan := &placement.Plan{
			Graph:       r.subGs[ci],
			Topo:        p.Topo,
			Assignments: make(map[string]placement.StagePlacement, len(r.comps[ci])),
		}
		for _, name := range r.comps[ci] {
			subPlan.Assignments[name] = p.Assignments[name]
		}
		if err := sub.CheckPlan(subPlan); err != nil {
			r.forget()
			return st, err
		}
	}
	r.updateBaseline(p, nil)
	return st, nil
}

// subChecker lazily builds the memoized checker for one component.
func (r *Rechecker) subChecker(ci int) (*Checker, error) {
	if r.subs[ci] != nil {
		return r.subs[ci], nil
	}
	sub, err := r.full.ov.g.Subgraph(r.comps[ci])
	if err != nil {
		return nil, fmt.Errorf("equiv: component subgraph: %w", err)
	}
	c, err := NewChecker(sub)
	if err != nil {
		return nil, fmt.Errorf("equiv: component checker: %w", err)
	}
	r.subGs[ci] = sub
	r.subs[ci] = c
	return c, nil
}

// updateBaseline records a proven plan (or forgets on failure).
func (r *Rechecker) updateBaseline(p *placement.Plan, err error) {
	if err != nil || p == nil {
		r.forget()
		return
	}
	if r.base == nil {
		r.base = make(map[string]basePlacement, len(p.Assignments))
	}
	for k := range r.base {
		delete(r.base, k)
	}
	for name, sp := range p.Assignments {
		r.base[name] = basePlacement{sw: sp.Switch, start: sp.Start}
	}
	r.verified = true
}

// forget drops the baseline so the next Recheck runs the full proof.
func (r *Rechecker) forget() { r.verified = false }
