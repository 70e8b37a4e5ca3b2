// Package milp is a small mixed-integer linear programming solver built
// on a dense two-phase simplex and branch & bound. It solves the
// literal MILP encoding of the paper's problem P#1, the role Gurobi
// plays in the paper, as the differential test oracle of
// placement.Exact (internal/placement/ilp_oracle_test.go). It is
// deliberately simple and test-only: hermeslint HV010 rejects an import
// from any non-test file.
package milp

import (
	"fmt"
	"math"
)

// Relation is the sense of a linear constraint.
type Relation int

const (
	// LE is Σ a_j x_j ≤ b.
	LE Relation = iota + 1
	// GE is Σ a_j x_j ≥ b.
	GE
	// EQ is Σ a_j x_j = b.
	EQ
)

// String returns the operator.
func (r Relation) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Relation(%d)", int(r))
	}
}

const (
	eps       = 1e-9
	maxPivots = 200000
	// maxTableauCells bounds the dense tableau (rows × columns). A
	// model beyond it would exhaust memory; solveLP reports it as
	// infeasible-by-resource via StatusDeadline so branch & bound
	// surfaces a capped run instead of dying.
	maxTableauCells = 64 << 20
)

// lp is a linear program in the internal standard form: minimize c·x
// subject to rows with non-negative x.
type lp struct {
	// c is the objective (length = number of structural variables).
	c []float64
	// rows holds the constraint coefficients; rel and rhs the sense and
	// right-hand side per row.
	rows [][]float64
	rel  []Relation
	rhs  []float64
}

// lpResult is the outcome of a simplex run.
type lpResult struct {
	status Status
	x      []float64
	obj    float64
}

// solveLP runs two-phase simplex on the lp. All variables are x ≥ 0.
func solveLP(p *lp) lpResult {
	n := len(p.c)
	m := len(p.rows)

	// Normalize rhs ≥ 0.
	rows := make([][]float64, m)
	rel := make([]Relation, m)
	rhs := make([]float64, m)
	for i := 0; i < m; i++ {
		rows[i] = append([]float64(nil), p.rows[i]...)
		rel[i] = p.rel[i]
		rhs[i] = p.rhs[i]
		if rhs[i] < 0 {
			for j := range rows[i] {
				rows[i][j] = -rows[i][j]
			}
			rhs[i] = -rhs[i]
			switch rel[i] {
			case LE:
				rel[i] = GE
			case GE:
				rel[i] = LE
			}
		}
	}

	// Count slack/surplus/artificial columns.
	numSlack := 0
	numArt := 0
	for i := 0; i < m; i++ {
		switch rel[i] {
		case LE:
			numSlack++
		case GE:
			numSlack++ // surplus
			numArt++
		case EQ:
			numArt++
		}
	}
	total := n + numSlack + numArt
	if int64(m)*int64(total+1) > maxTableauCells {
		return lpResult{status: StatusDeadline}
	}
	// Tableau: m rows of total+1 (last col = rhs).
	tab := make([][]float64, m)
	basis := make([]int, m)
	slackAt := n
	artAt := n + numSlack
	artCols := make([]int, 0, numArt)
	for i := 0; i < m; i++ {
		tab[i] = make([]float64, total+1)
		copy(tab[i], rows[i])
		tab[i][total] = rhs[i]
		switch rel[i] {
		case LE:
			tab[i][slackAt] = 1
			basis[i] = slackAt
			slackAt++
		case GE:
			tab[i][slackAt] = -1
			slackAt++
			tab[i][artAt] = 1
			basis[i] = artAt
			artCols = append(artCols, artAt)
			artAt++
		case EQ:
			tab[i][artAt] = 1
			basis[i] = artAt
			artCols = append(artCols, artAt)
			artAt++
		}
	}

	// Phase 1: minimize sum of artificials.
	if numArt > 0 {
		obj := make([]float64, total+1)
		for _, c := range artCols {
			obj[c] = 1
		}
		// Price out basic artificials.
		for i := 0; i < m; i++ {
			if isArt(basis[i], n+numSlack) {
				for j := 0; j <= total; j++ {
					obj[j] -= tab[i][j]
				}
			}
		}
		if !pivotLoop(tab, obj, basis, total) {
			return lpResult{status: StatusUnbounded}
		}
		if -obj[total] > 1e-7 {
			return lpResult{status: StatusInfeasible}
		}
		// Drive remaining artificial variables out of the basis.
		for i := 0; i < m; i++ {
			if !isArt(basis[i], n+numSlack) {
				continue
			}
			pivoted := false
			for j := 0; j < n+numSlack; j++ {
				if math.Abs(tab[i][j]) > eps {
					pivot(tab, obj, basis, i, j, total)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row; leave the artificial at zero.
				continue
			}
		}
	}

	// Phase 2: minimize the real objective. Zero the artificial columns
	// so they can never re-enter.
	obj := make([]float64, total+1)
	copy(obj, p.c)
	for _, c := range artCols {
		for i := 0; i < m; i++ {
			tab[i][c] = 0
		}
		obj[c] = 0
	}
	// Price out basic variables.
	for i := 0; i < m; i++ {
		b := basis[i]
		if b < len(obj) && math.Abs(obj[b]) > eps {
			coef := obj[b]
			for j := 0; j <= total; j++ {
				obj[j] -= coef * tab[i][j]
			}
		}
	}
	if !pivotLoop(tab, obj, basis, total) {
		return lpResult{status: StatusUnbounded}
	}

	x := make([]float64, n)
	for i := 0; i < m; i++ {
		if basis[i] < n {
			x[basis[i]] = tab[i][total]
		}
	}
	objVal := 0.0
	for j := 0; j < n; j++ {
		objVal += p.c[j] * x[j]
	}
	return lpResult{status: StatusOptimal, x: x, obj: objVal}
}

func isArt(col, artStart int) bool { return col >= artStart }

// pivotLoop runs primal simplex iterations until optimal. Returns false
// on unboundedness. Uses Dantzig pricing with a Bland fallback to break
// potential cycles.
func pivotLoop(tab [][]float64, obj []float64, basis []int, total int) bool {
	m := len(tab)
	for iter := 0; iter < maxPivots; iter++ {
		bland := iter > maxPivots/2
		// Entering column.
		enter := -1
		best := -eps
		for j := 0; j < total; j++ {
			if obj[j] < -eps {
				if bland {
					enter = j
					break
				}
				if obj[j] < best {
					best = obj[j]
					enter = j
				}
			}
		}
		if enter < 0 {
			return true // optimal
		}
		// Ratio test.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			if tab[i][enter] > eps {
				ratio := tab[i][total] / tab[i][enter]
				if ratio < bestRatio-eps || (math.Abs(ratio-bestRatio) <= eps && (leave < 0 || basis[i] < basis[leave])) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return false // unbounded
		}
		pivot(tab, obj, basis, leave, enter, total)
	}
	return true // give up politely; treated as converged
}

// pivot performs a Gauss-Jordan pivot on (row, col).
func pivot(tab [][]float64, obj []float64, basis []int, row, col, total int) {
	p := tab[row][col]
	for j := 0; j <= total; j++ {
		tab[row][j] /= p
	}
	for i := range tab {
		if i == row {
			continue
		}
		f := tab[i][col]
		if math.Abs(f) <= eps {
			continue
		}
		for j := 0; j <= total; j++ {
			tab[i][j] -= f * tab[row][j]
		}
	}
	f := obj[col]
	if math.Abs(f) > eps {
		for j := 0; j <= total; j++ {
			obj[j] -= f * tab[row][j]
		}
	}
	basis[row] = col
}
