package tdg

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/program"
)

// FromProgram converts a program into its TDG, inferring dependencies
// between every pair of MATs from their field read/write sets following
// the paper's T(a,b) definitions (§IV):
//
//	M — b reads (matches or uses as an action source) a field modified
//	    by a (f ∈ F_a^a ∩ reads(b)),
//	A — a and b modify a common field (f ∈ F_a^a ∩ F_b^a),
//	R — a reads a field modified by b (f ∈ reads(a) ∩ F_b^a),
//	S — an explicit control edge a→b without a stronger dependency.
//
// Pairs are oriented by declaration order: the earlier MAT is upstream.
// Node ids are declaration indexes; edges are inserted in InferDeps'
// order. Edge metadata sizes are left zero; the analyzer fills them in.
// The TDG is acyclic by construction: data edges run forward in
// declaration order, and Validate refuses a control edge that does not.
//
// The paper stands on P4C [41] for this step; this function plays that
// role for our in-Go program representation.
func FromProgram(p *program.Program) (*Graph, error) {
	fps, err := Footprints(nil, p)
	if err != nil {
		return nil, err
	}
	deps := InferDeps(nil, p, fps)
	g := New()
	g.Grow(len(p.MATs), len(deps))
	for _, m := range p.MATs {
		if err := g.AddNode(m, p.Name); err != nil {
			return nil, err
		}
	}
	for _, d := range deps {
		g.AppendEdge(d.From, d.To, d.Type, 0)
	}
	return g, nil
}

// Footprints validates p and appends its MATs' footprints, in
// declaration order, to dst: what InferDeps and Algorithm 1's A(a,b)
// read. It fails as FromProgram does.
func Footprints(dst []program.Footprint, p *program.Program) ([]program.Footprint, error) {
	if err := p.Validate(); err != nil {
		return dst, fmt.Errorf("tdg: %w", err)
	}
	// The read side is the full read set: match keys plus action
	// sources. Action-source reads induce match dependencies too — the
	// value must reach the downstream MAT's switch just like a matched
	// field (Jose et al. fold both into the match-dependency rule).
	for _, m := range p.MATs {
		fp := m.Footprint()
		if err := cmp.Or(fp.ReadErr, fp.WriteErr); err != nil {
			return dst, fmt.Errorf("tdg: %w", err)
		}
		dst = append(dst, fp)
	}
	return dst, nil
}

// Dep is one dependency InferDeps finds between two MATs of a program,
// addressed by their declaration indexes.
type Dep struct {
	From, To int32
	Type     DepType
}

// InferDeps appends the dependencies of p, whose MATs' footprints are
// fps (Footprints' output), to dst in the order FromProgram inserts its
// edges: every data pair (i < j) in enumeration order, where a control
// edge raises a reverse dependency to a successor one in place, then
// each control edge no data dependency connects, in declaration order.
// p must be valid (Footprints checks it).
func InferDeps(dst []Dep, p *program.Program, fps []program.Footprint) []Dep {
	base := len(dst)
	// Disjoint signatures rule a pair out without comparing names.
	var buf [64]uint64
	sig := buf[:0]
	if 2*len(fps) > len(buf) {
		sig = make([]uint64, 0, 2*len(fps))
	}
	for i := range fps {
		sig = append(sig, fields.Signature(fps[i].Reads), fields.Signature(fps[i].Writes))
	}
	// Enumerate ordered pairs (a before b in declaration order), the
	// same enumeration §I describes ("enumerates every pair of MATs").
	//hermes:hot
	for i := range fps {
		a, ar, aw := &fps[i], sig[2*i], sig[2*i+1]
		for j := i + 1; j < len(fps); j++ {
			b, br, bw := &fps[j], sig[2*j], sig[2*j+1]
			var typ DepType
			switch {
			case aw&br != 0 && fields.Overlap(a.Writes, b.Reads):
				typ = DepMatch
			case aw&bw != 0 && fields.Overlap(a.Writes, b.Writes):
				typ = DepAction
			case ar&bw != 0 && fields.Overlap(a.Reads, b.Writes):
				typ = DepReverse
			default:
				continue
			}
			dst = append(dst, Dep{From: int32(i), To: int32(j), Type: typ})
		}
	}

	// Explicit control-flow edges become successor dependencies unless a
	// stronger data dependency already connects the pair. The data pairs
	// are sorted by (From, To), so the pair is found by binary search.
	data := len(dst)
	for _, c := range p.Control {
		s := Dep{From: int32(p.Index(c.From)), To: int32(p.Index(c.To)), Type: DepSuccessor}
		if k, ok := slices.BinarySearchFunc(dst[base:data], s, func(d, s Dep) int {
			return cmp.Or(cmp.Compare(d.From, s.From), cmp.Compare(d.To, s.To))
		}); ok {
			if d := &dst[base+k]; strength(DepSuccessor) > strength(d.Type) {
				d.Type = DepSuccessor
			}
			continue
		}
		if !slices.Contains(dst[data:], s) {
			dst = append(dst, s)
		}
	}
	return dst
}
