package equiv

import (
	"slices"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/tdg"
)

// RecheckStats reports how RecheckReplan proved a plan: always in
// full, so Full is true and DirtyComponents zero.
//
// Deprecated: kept only until benchmark/ moves onto the facade
// (ROADMAP 2(ii)).
type RecheckStats struct {
	Full            bool
	DirtyComponents int
}

// Rechecker proves successive plans against one reference graph. It is
// the pooled gate CheckPlanAgainst under another name: there is no
// partial re-proof, because every measured workload's merged TDG is one
// field-coupled component (DESIGN.md §13.3). Unlike Checker it holds no
// scratch, so it is safe for concurrent use.
//
// Deprecated: use CheckPlanAgainst. The type stays only until
// benchmark/ moves onto the facade (ROADMAP 2(ii)).
type Rechecker struct {
	ref *tdg.Graph
}

// NewRechecker compiles the reference graph (memoized on it), failing
// on a nil or cyclic graph as NewChecker does.
func NewRechecker(ref *tdg.Graph) (*Rechecker, error) {
	if _, err := compile(ref); err != nil {
		return nil, err
	}
	return &Rechecker{ref: ref}, nil
}

// Components returns every reference MAT as one component, ascending
// by name.
func (r *Rechecker) Components() [][]string {
	names := r.ref.NodeNames()
	slices.Sort(names)
	return [][]string{names}
}

// Check is CheckPlanAgainst on the reference graph.
func (r *Rechecker) Check(p *placement.Plan, aopts analyzer.Options) error {
	return CheckPlanAgainst(r.ref, p, aopts)
}

// RecheckReplan is Check on a replanned plan; the report is ignored.
func (r *Rechecker) RecheckReplan(p *placement.Plan, _ *placement.ReplanReport, aopts analyzer.Options) (RecheckStats, error) {
	return RecheckStats{Full: true}, CheckPlanAgainst(r.ref, p, aopts)
}
