package program

import "fmt"

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
