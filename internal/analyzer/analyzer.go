// Package analyzer implements the Hermes program analyzer (paper §IV,
// Algorithm 1). It converts a set of data plane programs into a single
// merged TDG and annotates every edge (a,b) with A(a,b), the number of
// metadata bytes the upstream MAT a must piggyback on each packet for
// the downstream MAT b when the two are deployed on different switches.
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
	// Lint, when true, runs the registered GraphLintHook over the
	// merged, annotated TDG and fails the analysis on error-severity
	// findings. The internal/lint package registers the hook; with no
	// hook registered the flag is a no-op.
	Lint bool
}

// GraphLintHook is the static diagnostics hook Analyze invokes on its
// result when Options.Lint is set. internal/lint registers its TDG
// rule family here; keeping the hook a variable avoids an import cycle
// (lint depends on analyzer for the A(a,b) cross-check).
var GraphLintHook func(*tdg.Graph) error

// Analyze runs the full Program Analyzer: convert programs to TDGs,
// merge them, and compute A(a,b) for every edge. It is Algorithm 1's
// PROGRAM_ANALYZER entry point.
func Analyze(progs []*program.Program, opts Options) (*tdg.Graph, error) {
	if len(progs) == 0 {
		return nil, fmt.Errorf("analyzer: no input programs")
	}
	graphs := make([]*tdg.Graph, 0, len(progs))
	seen := make(map[string]bool, len(progs))
	for _, p := range progs {
		if p == nil {
			return nil, fmt.Errorf("analyzer: nil program")
		}
		if seen[p.Name] {
			return nil, fmt.Errorf("analyzer: duplicate program name %q", p.Name)
		}
		seen[p.Name] = true
		g, err := tdg.FromProgram(p)
		if err != nil {
			return nil, fmt.Errorf("analyzer: converting %q: %w", p.Name, err)
		}
		graphs = append(graphs, g)
	}

	var merged *tdg.Graph
	var err error
	if opts.SkipMerge && len(graphs) > 1 {
		merged, err = unionAll(graphs)
	} else {
		merged, err = merge.Graphs(graphs)
	}
	if err != nil {
		return nil, fmt.Errorf("analyzer: merging TDGs: %w", err)
	}

	if err := AnnotateMetadata(merged); err != nil {
		return nil, err
	}
	if opts.Lint && GraphLintHook != nil {
		if err := GraphLintHook(merged); err != nil {
			return nil, fmt.Errorf("analyzer: merged TDG rejected by lint: %w", err)
		}
	}
	return merged, nil
}

// unionAll unions graphs without unifying equivalent MATs.
func unionAll(graphs []*tdg.Graph) (*tdg.Graph, error) {
	out := tdg.New()
	for _, g := range graphs {
		for _, n := range g.Nodes() {
			if _, ok := out.Node(n.Name()); ok {
				return nil, fmt.Errorf("analyzer: duplicate MAT %q across programs", n.Name())
			}
			if err := out.AddNode(n.MAT, n.Origin...); err != nil {
				return nil, err
			}
		}
		for _, e := range g.Edges() {
			if err := out.AddEdge(e.From, e.To, e.Type, e.MetadataBytes); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// AnnotateMetadata computes A(a,b) for every edge of the graph in
// place, per Algorithm 1's TDG_ANALYSIS (see Delivered). Each node's
// footprint is derived once per call.
func AnnotateMetadata(g *tdg.Graph) error {
	nodes := g.Nodes()
	fps := make([]program.Footprint, len(nodes))
	byName := make(map[string]*program.Footprint, len(nodes))
	for i, n := range nodes {
		fps[i] = n.MAT.Footprint()
		byName[n.Name()] = &fps[i]
	}
	//hermes:hot
	for _, e := range g.EdgeList() {
		a, ok := byName[e.From]
		if !ok {
			return fmt.Errorf("analyzer: edge from unknown node %q", e.From)
		}
		b, ok := byName[e.To]
		if !ok {
			return fmt.Errorf("analyzer: edge to unknown node %q", e.To)
		}
		size, err := Delivered(a, b, e.Type, nil)
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

// Report summarizes an analyzed TDG.
type Report struct {
	// Nodes and Edges are the merged TDG's sizes.
	Nodes, Edges int
	// TotalMetadataBytes sums A(a,b) over all edges.
	TotalMetadataBytes int
	// MaxEdgeBytes is the largest single A(a,b).
	MaxEdgeBytes int
	// TotalRequirement sums R(a) under the default resource model.
	TotalRequirement float64
}

// Summarize computes a Report for an analyzed TDG.
func Summarize(g *tdg.Graph) Report {
	r := Report{Nodes: g.NumNodes(), Edges: g.NumEdges()}
	for _, e := range g.Edges() {
		r.TotalMetadataBytes += e.MetadataBytes
		if e.MetadataBytes > r.MaxEdgeBytes {
			r.MaxEdgeBytes = e.MetadataBytes
		}
	}
	r.TotalRequirement = g.TotalRequirement(program.DefaultResourceModel)
	return r
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
