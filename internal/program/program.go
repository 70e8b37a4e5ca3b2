package program

import (
	"encoding/json"
	"fmt"
	"sort"

	"github.com/hermes-net/hermes/internal/fields"
)

// ControlEdge declares an explicit control-flow relation between two
// MATs of the same program: the processing result of From gates whether
// To executes. It induces a successor dependency (type S) in the TDG
// unless a stronger data dependency (M or A) already exists.
type ControlEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// Program is a data plane program: an ordered set of MATs plus declared
// control-flow edges.
type Program struct {
	// Name identifies the program; MAT names are unique within it.
	Name string `json:"name"`
	// MATs lists the tables in declaration (program) order. Declaration
	// order is the logical invocation order used to orient inferred
	// dependencies.
	MATs []*MAT `json:"mats"`
	// Control lists explicit control-flow edges.
	Control []ControlEdge `json:"control,omitempty"`
}

// MAT returns the named MAT.
func (p *Program) MAT(name string) (*MAT, bool) {
	for _, m := range p.MATs {
		if m.Name == name {
			return m, true
		}
	}
	return nil, false
}

// Index returns the declaration index of the named MAT, or -1.
func (p *Program) Index(name string) int {
	for i, m := range p.MATs {
		if m.Name == name {
			return i
		}
	}
	return -1
}

// Validate checks the program for structural problems.
func (p *Program) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("program has empty name")
	}
	if len(p.MATs) == 0 {
		return fmt.Errorf("program %q: no MATs", p.Name)
	}
	seen := make(map[string]bool, len(p.MATs))
	for _, m := range p.MATs {
		if m == nil {
			return fmt.Errorf("program %q: nil MAT", p.Name)
		}
		if err := m.Validate(); err != nil {
			return fmt.Errorf("program %q: %w", p.Name, err)
		}
		if seen[m.Name] {
			return fmt.Errorf("program %q: duplicate MAT %q", p.Name, m.Name)
		}
		seen[m.Name] = true
	}
	for _, e := range p.Control {
		if !seen[e.From] {
			return fmt.Errorf("program %q: control edge from unknown MAT %q", p.Name, e.From)
		}
		if !seen[e.To] {
			return fmt.Errorf("program %q: control edge to unknown MAT %q", p.Name, e.To)
		}
		if p.Index(e.From) >= p.Index(e.To) {
			return fmt.Errorf("program %q: control edge %q->%q against declaration order", p.Name, e.From, e.To)
		}
	}
	return nil
}

// Clone returns a deep copy of the program.
func (p *Program) Clone() *Program {
	out := &Program{Name: p.Name}
	out.MATs = make([]*MAT, len(p.MATs))
	for i, m := range p.MATs {
		out.MATs[i] = cloneMAT(m)
	}
	out.Control = append([]ControlEdge(nil), p.Control...)
	return out
}

func cloneMAT(m *MAT) *MAT {
	c := &MAT{
		Name:             m.Name,
		Capacity:         m.Capacity,
		DefaultAction:    m.DefaultAction,
		FixedRequirement: m.FixedRequirement,
		Keys:             append([]MatchKey(nil), m.Keys...),
	}
	c.Actions = make([]Action, len(m.Actions))
	for i, a := range m.Actions {
		c.Actions[i] = Action{Name: a.Name, Ops: make([]Op, len(a.Ops))}
		for j, op := range a.Ops {
			c.Actions[i].Ops[j] = Op{
				Kind: op.Kind, Dst: op.Dst, Imm: op.Imm,
				Srcs: append([]fields.Field(nil), op.Srcs...),
			}
		}
	}
	c.Rules = make([]Rule, len(m.Rules))
	for i, r := range m.Rules {
		nr := Rule{Priority: r.Priority, Action: r.Action}
		if r.Matches != nil {
			nr.Matches = make(map[string]Pattern, len(r.Matches))
			for k, v := range r.Matches {
				nr.Matches[k] = v
			}
		}
		if r.Params != nil {
			nr.Params = make(map[string]uint64, len(r.Params))
			for k, v := range r.Params {
				nr.Params[k] = v
			}
		}
		c.Rules[i] = nr
	}
	return c
}

// EncodeJSON serializes the program with stable formatting.
func (p *Program) EncodeJSON() ([]byte, error) {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("encoding program %q: %w", p.Name, err)
	}
	return b, nil
}

// SortedMATNames returns the MAT names in sorted order; useful for
// deterministic reporting.
func (p *Program) SortedMATNames() []string {
	names := make([]string, len(p.MATs))
	for i, m := range p.MATs {
		names[i] = m.Name
	}
	sort.Strings(names)
	return names
}
