package tdg

import (
	"cmp"
	"fmt"

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
// Edge metadata sizes are left zero; the analyzer fills them in.
//
// The paper stands on P4C [41] for this step; this function plays that
// role for our in-Go program representation.
func FromProgram(p *program.Program) (*Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("tdg: %w", err)
	}
	g := New()
	for _, m := range p.MATs {
		if err := g.AddNode(m, p.Name); err != nil {
			return nil, err
		}
	}

	// One footprint per MAT, in declaration order. The read side is the
	// full read set: match keys plus action sources. Action-source reads
	// induce match dependencies too — the value must reach the
	// downstream MAT's switch just like a matched field (Jose et al. fold
	// both into the match-dependency rule).
	fps := make([]program.Footprint, len(p.MATs))
	for i, m := range p.MATs {
		fps[i] = m.Footprint()
		if err := cmp.Or(fps[i].ReadErr, fps[i].WriteErr); err != nil {
			return nil, fmt.Errorf("tdg: %w", err)
		}
	}

	// Enumerate ordered pairs (a before b in declaration order), the
	// same enumeration §I describes ("enumerates every pair of MATs").
	//hermes:hot
	for i := range fps {
		a := &fps[i]
		for j := i + 1; j < len(fps); j++ {
			b := &fps[j]
			var typ DepType
			switch {
			case fields.Overlap(a.Writes, b.Reads):
				typ = DepMatch
			case fields.Overlap(a.Writes, b.Writes):
				typ = DepAction
			case fields.Overlap(a.Reads, b.Writes):
				typ = DepReverse
			default:
				continue
			}
			if err := g.AddEdge(p.MATs[i].Name, p.MATs[j].Name, typ, 0); err != nil {
				return nil, err
			}
		}
	}

	// Explicit control-flow edges become successor dependencies unless a
	// stronger data dependency already connects the pair (AddEdge keeps
	// the stronger type).
	for _, e := range p.Control {
		if err := g.AddEdge(e.From, e.To, DepSuccessor, 0); err != nil {
			return nil, err
		}
	}

	if !g.IsDAG() {
		return nil, fmt.Errorf("tdg: program %q induces a cyclic TDG", p.Name)
	}
	return g, nil
}
