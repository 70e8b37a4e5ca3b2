// Package analyzer implements the Hermes program analyzer (paper §IV,
// Algorithm 1). It converts a set of data plane programs into a single
// merged TDG and annotates every edge (a,b) with A(a,b), the number of
// metadata bytes the upstream MAT a must piggyback on each packet for
// the downstream MAT b when the two are deployed on different switches.
//
// Analyze takes each MAT's footprint once, and merge.Programs folds the
// programs into the merged TDG on dense node ids without building a TDG
// per program; A(a,b) is then filled from the footprints held per node
// id. The graph keeps those footprints (tdg.Graph.Footprints), so the
// deploy backend lays out coordination headers without deriving them
// again.
package analyzer

import (
	"fmt"

	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/merge"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

// Options tune the analysis. Only Analyze reads them: the A(a,b) every
// later layer derives follows Algorithm 1's listing alone.
type Options struct {
	// SkipMerge disables SPEED-style TDG merging (useful for baselines
	// that deploy programs one by one).
	SkipMerge bool
}

// Analyze runs the full Program Analyzer: convert programs to TDGs,
// merge them, and compute A(a,b) for every edge. It is Algorithm 1's
// PROGRAM_ANALYZER entry point, and its result is the literal one:
// merge.Graphs over the tdg.FromProgram graphs, then AnnotateMetadata.
func Analyze(progs []*program.Program, opts Options) (*tdg.Graph, error) {
	if len(progs) == 0 {
		return nil, fmt.Errorf("analyzer: no input programs")
	}
	mats := 0
	for _, p := range progs {
		if p != nil {
			mats += len(p.MATs)
		}
	}
	// merge.Programs keeps pointers into fps: it must not regrow.
	fps := make([]program.Footprint, 0, mats)
	seen := make(map[string]bool, len(progs))
	for _, p := range progs {
		if p == nil {
			return nil, fmt.Errorf("analyzer: nil program")
		}
		if seen[p.Name] {
			return nil, fmt.Errorf("analyzer: duplicate program name %q", p.Name)
		}
		seen[p.Name] = true
		var err error
		if fps, err = tdg.Footprints(fps, p); err != nil {
			return nil, fmt.Errorf("analyzer: converting %q: %w", p.Name, err)
		}
	}

	if opts.SkipMerge {
		if err := distinctMATs(progs); err != nil {
			return nil, fmt.Errorf("analyzer: merging TDGs: %w", err)
		}
	}
	g, nodeFps, err := merge.Programs(progs, fps, !opts.SkipMerge)
	if err != nil {
		return nil, fmt.Errorf("analyzer: merging TDGs: %w", err)
	}

	//hermes:hot
	for _, e := range g.EdgeList() {
		from, to := e.Endpoints()
		size, err := Delivered(nodeFps[from], nodeFps[to], e.Type, nil)
		if err != nil {
			return nil, fmt.Errorf("analyzer: edge %s->%s: %w", e.From, e.To, err)
		}
		e.MetadataBytes = size
	}
	g.SetFootprints(nodeFps)
	return g, nil
}

// distinctMATs fails on a MAT name two programs share: without merging,
// every program's MATs stay nodes of their own.
func distinctMATs(progs []*program.Program) error {
	seen := make(map[string]bool)
	for _, p := range progs {
		for _, m := range p.MATs {
			if seen[m.Name] {
				return fmt.Errorf("analyzer: duplicate MAT %q across programs", m.Name)
			}
			seen[m.Name] = true
		}
	}
	return nil
}

// AnnotateMetadata computes A(a,b) for every edge of the graph in
// place, per Algorithm 1's TDG_ANALYSIS (see Delivered), from the
// graph's footprints (derived once per graph, tdg.Graph.Footprints).
func AnnotateMetadata(g *tdg.Graph) error {
	fps := g.Footprints()
	//hermes:hot
	for _, e := range g.EdgeList() {
		from, to := e.Endpoints()
		size, err := Delivered(&fps[from], &fps[to], e.Type, nil)
		if err != nil {
			return fmt.Errorf("analyzer: edge %s->%s: %w", e.From, e.To, err)
		}
		e.MetadataBytes = size
	}
	return nil
}

// Delivered computes A(a,b) from two footprints: the metadata bytes a
// piggybacks for b across one typ dependency when the two sit on
// different switches. Per Algorithm 1's listing,
//
//	M: Σ size(f) over metadata fields f ∈ F_a^a,
//	A: Σ size(f) over metadata fields f ∈ F_a^a ∪ F_b^a,
//	R: nothing (b does not consume a's results),
//	S: Σ size(f) over metadata fields f ∈ F_a^a.
//
// Header fields never count: they already ride in the packet. When fs
// is non-nil, the fields behind the total are appended to *fs in name
// order (the deploy backend lays out coordination headers from them).
// The M edge charges a's writes whether or not b reads them: the paper's
// prose also admits F_a^a ∩ reads(b), but the listing is the one
// reading this package implements. It fails when the footprint side it
// consults failed, or when a name both ends of an A edge write carries
// two definitions.
func Delivered(a, b *program.Footprint, typ tdg.DepType, fs *[]fields.Field) (int, error) {
	if a.WriteErr != nil {
		return 0, a.WriteErr
	}
	switch typ {
	case tdg.DepMatch, tdg.DepSuccessor:
		appendMetadata(fs, a.Writes)
		return a.WriteMetaBytes, nil
	case tdg.DepAction:
		if b.WriteErr != nil {
			return 0, b.WriteErr
		}
		shared, err := unionMetadata(a.Writes, b.Writes, fs)
		if err != nil {
			return 0, err
		}
		return a.WriteMetaBytes + b.WriteMetaBytes - shared, nil
	case tdg.DepReverse:
		return 0, nil
	default:
		return 0, fmt.Errorf("unknown dependency type %v", typ)
	}
}

// appendMetadata appends the metadata fields of a sorted list to *fs.
func appendMetadata(fs *[]fields.Field, list []fields.Field) {
	if fs == nil {
		return
	}
	for _, f := range list {
		if f.IsMetadata() {
			*fs = append(*fs, f)
		}
	}
}

// unionMetadata merges two sorted lists, appending the metadata of their
// union to *fs, and returns the metadata bytes the two share — what
// |x| + |y| counts twice. A name with two definitions is an error, header
// fields included, as the union of the full write sets always was.
func unionMetadata(x, y []fields.Field, fs *[]fields.Field) (int, error) {
	shared := 0
	for i, j := 0, 0; i < len(x) || j < len(y); {
		var f fields.Field
		switch {
		case j == len(y) || i < len(x) && x[i].Name < y[j].Name:
			f = x[i]
			i++
		case i == len(x) || y[j].Name < x[i].Name:
			f = y[j]
			j++
		default:
			if x[i] != y[j] {
				return 0, fields.Conflict(x[i], y[j])
			}
			f = x[i]
			i++
			j++
			if f.IsMetadata() {
				shared += f.Bytes()
			}
		}
		if fs != nil && f.IsMetadata() {
			*fs = append(*fs, f)
		}
	}
	return shared, nil
}

// EdgeMetadataBytes computes A(a,b) for a single dependency.
func EdgeMetadataBytes(a, b *program.MAT, typ tdg.DepType) (int, error) {
	fa, fb := a.Footprint(), b.Footprint()
	n, err := Delivered(&fa, &fb, typ, nil)
	if err != nil {
		return 0, fmt.Errorf("analyzer: %w", err)
	}
	return n, nil
}

// MetadataFields returns the metadata fields a passes along the edge
// type: the fields EdgeMetadataBytes counts.
func MetadataFields(a, b *program.MAT, typ tdg.DepType) (fields.Set, error) {
	fa, fb := a.Footprint(), b.Footprint()
	var fs []fields.Field
	if _, err := Delivered(&fa, &fb, typ, &fs); err != nil {
		return fields.Set{}, fmt.Errorf("analyzer: %w", err)
	}
	return fields.NewSet(fs...)
}
