package milp

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Status reports the outcome of a solve.
type Status int

const (
	// StatusOptimal means the returned solution is proven optimal.
	StatusOptimal Status = iota + 1
	// StatusFeasible means a feasible (integer) solution was found but
	// optimality was not proven before the deadline.
	StatusFeasible
	// StatusInfeasible means no feasible solution exists.
	StatusInfeasible
	// StatusUnbounded means the objective is unbounded below.
	StatusUnbounded
	// StatusDeadline means the deadline expired before any feasible
	// integer solution was found.
	StatusDeadline
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusFeasible:
		return "feasible"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusDeadline:
		return "deadline"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Var identifies a model variable.
type Var int

// Term is coefficient·variable.
type Term struct {
	Var   Var
	Coeff float64
}

// Expr is a linear expression Σ terms.
type Expr []Term

// Plus appends a term.
func (e Expr) Plus(v Var, coeff float64) Expr {
	return append(e, Term{Var: v, Coeff: coeff})
}

// variable is the internal variable record.
type variable struct {
	lb, ub  float64
	obj     float64
	integer bool
}

// constraint is the internal constraint record.
type constraint struct {
	terms []Term
	rel   Relation
	rhs   float64
}

// Model is a MILP under construction. Objective sense is minimize.
type Model struct {
	vars []variable
	cons []constraint
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// NumVars returns the number of variables.
func (m *Model) NumVars() int { return len(m.vars) }

// NumConstraints returns the number of constraints.
func (m *Model) NumConstraints() int { return len(m.cons) }

// AddVar adds a continuous variable with bounds [lb, ub] and objective
// coefficient obj. ub may be math.Inf(1).
func (m *Model) AddVar(name string, lb, ub, obj float64) (Var, error) {
	return m.addVar(name, lb, ub, obj, false)
}

// AddIntVar adds an integer variable.
func (m *Model) AddIntVar(name string, lb, ub, obj float64) (Var, error) {
	return m.addVar(name, lb, ub, obj, true)
}

// AddBinaryVar adds a {0,1} variable.
func (m *Model) AddBinaryVar(name string, obj float64) (Var, error) {
	return m.addVar(name, 0, 1, obj, true)
}

func (m *Model) addVar(name string, lb, ub, obj float64, integer bool) (Var, error) {
	if math.IsNaN(lb) || math.IsNaN(ub) || math.IsNaN(obj) {
		return 0, fmt.Errorf("milp: NaN in variable %q", name)
	}
	if lb > ub {
		return 0, fmt.Errorf("milp: variable %q has lb %g > ub %g", name, lb, ub)
	}
	if math.IsInf(lb, -1) {
		return 0, fmt.Errorf("milp: variable %q has unbounded lower bound (unsupported)", name)
	}
	m.vars = append(m.vars, variable{lb: lb, ub: ub, obj: obj, integer: integer})
	return Var(len(m.vars) - 1), nil
}

// AddConstraint adds Σ terms rel rhs. Terms on the same variable are
// accumulated.
func (m *Model) AddConstraint(name string, terms Expr, rel Relation, rhs float64) error {
	if rel != LE && rel != GE && rel != EQ {
		return fmt.Errorf("milp: constraint %q: bad relation", name)
	}
	if math.IsNaN(rhs) {
		return fmt.Errorf("milp: constraint %q: NaN rhs", name)
	}
	acc := map[Var]float64{}
	for _, t := range terms {
		if int(t.Var) < 0 || int(t.Var) >= len(m.vars) {
			return fmt.Errorf("milp: constraint %q references unknown variable %d", name, t.Var)
		}
		if math.IsNaN(t.Coeff) {
			return fmt.Errorf("milp: constraint %q: NaN coefficient", name)
		}
		acc[t.Var] += t.Coeff
	}
	merged := make([]Term, 0, len(acc))
	for v, c := range acc {
		if c != 0 {
			merged = append(merged, Term{Var: v, Coeff: c})
		}
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Var < merged[j].Var })
	m.cons = append(m.cons, constraint{terms: merged, rel: rel, rhs: rhs})
	return nil
}

// Solution is a solved model.
type Solution struct {
	Status Status
	// Objective is the objective value of the returned point (only
	// meaningful for StatusOptimal/StatusFeasible).
	Objective float64
	// Values holds a value per variable.
	Values []float64
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
}

// Value returns the solution value of v.
func (s *Solution) Value(v Var) float64 {
	if int(v) < 0 || int(v) >= len(s.Values) {
		return math.NaN()
	}
	return s.Values[v]
}

// Int returns the solution value of v rounded to the nearest integer.
func (s *Solution) Int(v Var) int {
	return int(math.Round(s.Value(v)))
}

// Options configure a solve.
type Options struct {
	// Deadline stops the search; zero means no deadline.
	Deadline time.Time
	// MaxNodes bounds branch-and-bound nodes; zero means the default
	// (1e6).
	MaxNodes int
	// Cancel, when non-nil, stops the search as soon as the channel is
	// closed (polled at the same cadence as Deadline); the solver
	// returns its incumbent exactly as it does at the deadline.
	Cancel <-chan struct{}
}

// buildLP lowers the model to standard form for the simplex: every
// variable is shifted by its lower bound (x = lb + x', x' ≥ 0) and
// finite upper bounds become rows. extraUB overrides per-variable upper
// bounds and extraLB lower bounds (used by branch & bound).
func (m *Model) buildLP(extraLB, extraUB []float64) *lp {
	n := len(m.vars)
	lb := make([]float64, n)
	ub := make([]float64, n)
	for i, v := range m.vars {
		lb[i], ub[i] = v.lb, v.ub
		if extraLB != nil && extraLB[i] > lb[i] {
			lb[i] = extraLB[i]
		}
		if extraUB != nil && extraUB[i] < ub[i] {
			ub[i] = extraUB[i]
		}
	}
	p := &lp{c: make([]float64, n)}
	for i, v := range m.vars {
		p.c[i] = v.obj
	}
	// Constraints with shifted variables: Σ a (lb + x') rel b →
	// Σ a x' rel b - Σ a lb.
	for _, c := range m.cons {
		row := make([]float64, n)
		shift := 0.0
		for _, t := range c.terms {
			row[t.Var] += t.Coeff
			shift += t.Coeff * lb[t.Var]
		}
		p.rows = append(p.rows, row)
		p.rel = append(p.rel, c.rel)
		p.rhs = append(p.rhs, c.rhs-shift)
	}
	// Upper bounds as rows: x' ≤ ub - lb.
	for i := 0; i < n; i++ {
		if math.IsInf(ub[i], 1) {
			continue
		}
		span := ub[i] - lb[i]
		if span < 0 {
			// Contradictory bounds: encode an infeasible row.
			span = -1
		}
		row := make([]float64, n)
		row[i] = 1
		p.rows = append(p.rows, row)
		p.rel = append(p.rel, LE)
		p.rhs = append(p.rhs, span)
	}
	return p
}

// solveRelaxation solves the LP relaxation under bound overrides and
// un-shifts the solution.
func (m *Model) solveRelaxation(extraLB, extraUB []float64) lpResult {
	p := m.buildLP(extraLB, extraUB)
	res := solveLP(p)
	if res.status != StatusOptimal {
		return res
	}
	// Un-shift.
	n := len(m.vars)
	x := make([]float64, n)
	obj := 0.0
	for i, v := range m.vars {
		lo := v.lb
		if extraLB != nil && extraLB[i] > lo {
			lo = extraLB[i]
		}
		x[i] = lo + res.x[i]
		obj += v.obj * x[i]
	}
	return lpResult{status: StatusOptimal, x: x, obj: obj}
}
