package milp

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func mustVar(v Var, err error) Var {
	if err != nil {
		panic(err)
	}
	return v
}

func TestSimpleLP(t *testing.T) {
	// max x + y s.t. x + 2y <= 14, 3x - y >= 0, x - y <= 2
	// == min -(x+y). Optimum at (6, 4): obj 10.
	m := NewModel()
	x := mustVar(m.AddVar("x", 0, math.Inf(1), -1))
	y := mustVar(m.AddVar("y", 0, math.Inf(1), -1))
	if err := m.AddConstraint("c1", Expr{}.Plus(x, 1).Plus(y, 2), LE, 14); err != nil {
		t.Fatal(err)
	}
	if err := m.AddConstraint("c2", Expr{}.Plus(x, 3).Plus(y, -1), GE, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.AddConstraint("c3", Expr{}.Plus(x, 1).Plus(y, -1), LE, 2); err != nil {
		t.Fatal(err)
	}
	sol := m.Solve(Options{})
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if math.Abs(sol.Objective-(-10)) > 1e-6 {
		t.Errorf("objective = %g, want -10", sol.Objective)
	}
	if math.Abs(sol.Value(x)-6) > 1e-6 || math.Abs(sol.Value(y)-4) > 1e-6 {
		t.Errorf("solution = (%g, %g), want (6, 4)", sol.Value(x), sol.Value(y))
	}
}

func TestLPWithEqualityAndBounds(t *testing.T) {
	// min 2x + 3y s.t. x + y = 10, x <= 4 (via ub), y <= 8.
	// Optimum: x=4 (cheapest), y=6 -> 8 + 18 = 26... check: we minimize,
	// prefer x (coeff 2): x=4, y=6, obj=26.
	m := NewModel()
	x := mustVar(m.AddVar("x", 0, 4, 2))
	y := mustVar(m.AddVar("y", 0, 8, 3))
	if err := m.AddConstraint("sum", Expr{}.Plus(x, 1).Plus(y, 1), EQ, 10); err != nil {
		t.Fatal(err)
	}
	sol := m.Solve(Options{})
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-26) > 1e-6 {
		t.Errorf("objective = %g, want 26", sol.Objective)
	}
}

func TestLPNonzeroLowerBounds(t *testing.T) {
	// min x + y with x >= 3, y >= 2, x + y >= 7 -> x=5,y=2 or x=3,y=4; obj 7.
	m := NewModel()
	x := mustVar(m.AddVar("x", 3, math.Inf(1), 1))
	y := mustVar(m.AddVar("y", 2, math.Inf(1), 1))
	if err := m.AddConstraint("c", Expr{}.Plus(x, 1).Plus(y, 1), GE, 7); err != nil {
		t.Fatal(err)
	}
	sol := m.Solve(Options{})
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-7) > 1e-6 {
		t.Errorf("objective = %g, want 7", sol.Objective)
	}
	if sol.Value(x) < 3-1e-9 || sol.Value(y) < 2-1e-9 {
		t.Errorf("bounds violated: x=%g y=%g", sol.Value(x), sol.Value(y))
	}
}

func TestInfeasibleLP(t *testing.T) {
	m := NewModel()
	x := mustVar(m.AddVar("x", 0, 1, 1))
	if err := m.AddConstraint("c", Expr{}.Plus(x, 1), GE, 5); err != nil {
		t.Fatal(err)
	}
	sol := m.Solve(Options{})
	if sol.Status != StatusInfeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnboundedLP(t *testing.T) {
	m := NewModel()
	x := mustVar(m.AddVar("x", 0, math.Inf(1), -1))
	_ = x
	sol := m.Solve(Options{})
	if sol.Status != StatusUnbounded {
		t.Errorf("status = %v, want unbounded", sol.Status)
	}
}

func TestIntegerKnapsack(t *testing.T) {
	// max 10a + 6b + 4c s.t. a+b+c <= 100, 10a+4b+5c <= 600,
	// 2a+2b+6c <= 300, integer. LP opt is fractional; known MILP
	// optimum: a=33, b=67, c=0 -> 732.
	m := NewModel()
	a := mustVar(m.AddIntVar("a", 0, math.Inf(1), -10))
	b := mustVar(m.AddIntVar("b", 0, math.Inf(1), -6))
	c := mustVar(m.AddIntVar("c", 0, math.Inf(1), -4))
	cons := []struct {
		e   Expr
		rhs float64
	}{
		{Expr{}.Plus(a, 1).Plus(b, 1).Plus(c, 1), 100},
		{Expr{}.Plus(a, 10).Plus(b, 4).Plus(c, 5), 600},
		{Expr{}.Plus(a, 2).Plus(b, 2).Plus(c, 6), 300},
	}
	for i, cc := range cons {
		if err := m.AddConstraint("k", cc.e, LE, cc.rhs); err != nil {
			t.Fatal(i, err)
		}
	}
	sol := m.Solve(Options{})
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-(-732)) > 1e-6 {
		t.Errorf("objective = %g, want -732 (a=%d b=%d c=%d)",
			sol.Objective, sol.Int(a), sol.Int(b), sol.Int(c))
	}
}

func TestBinaryAssignment(t *testing.T) {
	// Assign 3 jobs to 3 machines, costs c[i][j]; each job exactly one
	// machine, each machine at most one job. Classic assignment problem.
	costs := [3][3]float64{{4, 2, 8}, {4, 3, 7}, {3, 1, 6}}
	m := NewModel()
	var vars [3][3]Var
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			vars[i][j] = mustVar(m.AddBinaryVar("x", costs[i][j]))
		}
	}
	for i := 0; i < 3; i++ {
		row := Expr{}
		col := Expr{}
		for j := 0; j < 3; j++ {
			row = row.Plus(vars[i][j], 1)
			col = col.Plus(vars[j][i], 1)
		}
		if err := m.AddConstraint("row", row, EQ, 1); err != nil {
			t.Fatal(err)
		}
		if err := m.AddConstraint("col", col, LE, 1); err != nil {
			t.Fatal(err)
		}
	}
	sol := m.Solve(Options{})
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	// Optimal: job0->m1(2)? then job2 wants m1 too (1). Best total:
	// j0->m0(4), j1->m2(7), j2->m1(1) = 12; or j0->m1(2), j1->m0(4),
	// j2->m2(6)? m2 cost 6 -> 12. Optimum is 12.
	if math.Abs(sol.Objective-12) > 1e-6 {
		t.Errorf("objective = %g, want 12", sol.Objective)
	}
}

func TestBinPackingSmall(t *testing.T) {
	// Items 6,5,4,3 into bins of 9: needs 2 bins (6+3, 5+4). Minimize
	// bins used. y_b = bin used, x_ib = item in bin.
	items := []float64{6, 5, 4, 3}
	const bins = 4
	m := NewModel()
	var y [bins]Var
	for b := 0; b < bins; b++ {
		y[b] = mustVar(m.AddBinaryVar("y", 1))
	}
	x := make([][bins]Var, len(items))
	for i := range items {
		assign := Expr{}
		for b := 0; b < bins; b++ {
			x[i][b] = mustVar(m.AddBinaryVar("x", 0))
			assign = assign.Plus(x[i][b], 1)
		}
		if err := m.AddConstraint("assign", assign, EQ, 1); err != nil {
			t.Fatal(err)
		}
	}
	for b := 0; b < bins; b++ {
		capc := Expr{}
		for i := range items {
			capc = capc.Plus(x[i][b], items[i])
		}
		capc = capc.Plus(y[b], -9)
		if err := m.AddConstraint("cap", capc, LE, 0); err != nil {
			t.Fatal(err)
		}
	}
	sol := m.Solve(Options{})
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-2) > 1e-6 {
		t.Errorf("bins used = %g, want 2", sol.Objective)
	}
}

func TestIntegerInfeasible(t *testing.T) {
	// 2x = 3 with x integer in [0, 5]: LP feasible (x=1.5), MILP not.
	m := NewModel()
	x := mustVar(m.AddIntVar("x", 0, 5, 1))
	if err := m.AddConstraint("c", Expr{}.Plus(x, 2), EQ, 3); err != nil {
		t.Fatal(err)
	}
	sol := m.Solve(Options{})
	if sol.Status != StatusInfeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

// TestDeadline: a solve whose deadline has already passed stops at the
// first poll of the clock, so it explores no more nodes than one poll
// interval, on a model that branches well past one interval unbounded.
func TestDeadline(t *testing.T) {
	// A model that branches a lot: equality-partition style.
	m := NewModel()
	e := Expr{}
	for i := 0; i < 30; i++ {
		v := mustVar(m.AddBinaryVar("x", float64(i%7)-3))
		e = e.Plus(v, float64(2*i+1))
	}
	if err := m.AddConstraint("c", e, EQ, 155); err != nil {
		t.Fatal(err)
	}
	if sol := m.Solve(Options{MaxNodes: 4 * deadlinePoll}); sol.Nodes <= deadlinePoll {
		t.Fatalf("fixture: the unbounded search stopped after %d nodes, within one poll interval (%d)", sol.Nodes, deadlinePoll)
	}
	sol := m.Solve(Options{Deadline: time.Now().Add(-time.Second)})
	if sol.Nodes > deadlinePoll {
		t.Fatalf("an expired deadline explored %d nodes, more than one poll interval (%d)", sol.Nodes, deadlinePoll)
	}
	switch sol.Status {
	case StatusFeasible, StatusDeadline:
	default:
		t.Errorf("status = %v, want feasible or deadline", sol.Status)
	}
}

func TestMaxNodes(t *testing.T) {
	m := NewModel()
	e := Expr{}
	for i := 0; i < 20; i++ {
		v := mustVar(m.AddBinaryVar("x", -1))
		e = e.Plus(v, float64(i)+0.5)
	}
	if err := m.AddConstraint("c", e, LE, 50); err != nil {
		t.Fatal(err)
	}
	sol := m.Solve(Options{MaxNodes: 3})
	if sol.Nodes > 3 {
		t.Errorf("explored %d nodes, cap was 3", sol.Nodes)
	}
}

func TestModelValidation(t *testing.T) {
	m := NewModel()
	if _, err := m.AddVar("bad", 2, 1, 0); err == nil {
		t.Error("lb > ub accepted")
	}
	if _, err := m.AddVar("bad", math.Inf(-1), 1, 0); err == nil {
		t.Error("-inf lower bound accepted")
	}
	if _, err := m.AddVar("bad", math.NaN(), 1, 0); err == nil {
		t.Error("NaN bound accepted")
	}
	x := mustVar(m.AddVar("x", 0, 1, 0))
	if err := m.AddConstraint("c", Expr{{Var: 99, Coeff: 1}}, LE, 1); err == nil {
		t.Error("unknown variable accepted")
	}
	if err := m.AddConstraint("c", Expr{}.Plus(x, 1), Relation(0), 1); err == nil {
		t.Error("bad relation accepted")
	}
	if err := m.AddConstraint("c", Expr{}.Plus(x, math.NaN()), LE, 1); err == nil {
		t.Error("NaN coefficient accepted")
	}
	if err := m.AddConstraint("c", Expr{}.Plus(x, 1), LE, math.NaN()); err == nil {
		t.Error("NaN rhs accepted")
	}
}

func TestSolutionAccessors(t *testing.T) {
	s := &Solution{Values: []float64{1.4, 2.6}}
	if s.Int(0) != 1 || s.Int(1) != 3 {
		t.Errorf("Int rounding wrong: %d %d", s.Int(0), s.Int(1))
	}
	if !math.IsNaN(s.Value(5)) {
		t.Error("out-of-range Value should be NaN")
	}
	if StatusOptimal.String() != "optimal" || StatusDeadline.String() != "deadline" {
		t.Error("status strings wrong")
	}
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" {
		t.Error("relation strings wrong")
	}
}

// Property: for random small knapsacks, branch & bound matches brute
// force enumeration.
func TestBranchAndBoundMatchesBruteForce(t *testing.T) {
	prop := func(seedValues [6]uint8, seedWeights [6]uint8, capSeed uint8) bool {
		n := 6
		values := make([]float64, n)
		weights := make([]float64, n)
		wsum := 0.0
		for i := 0; i < n; i++ {
			values[i] = float64(seedValues[i]%20) + 1
			weights[i] = float64(seedWeights[i]%15) + 1
			wsum += weights[i]
		}
		capacity := math.Mod(float64(capSeed), wsum) + 1

		m := NewModel()
		e := Expr{}
		vars := make([]Var, n)
		for i := 0; i < n; i++ {
			v, err := m.AddBinaryVar("x", -values[i])
			if err != nil {
				return false
			}
			vars[i] = v
			e = e.Plus(v, weights[i])
		}
		if err := m.AddConstraint("cap", e, LE, capacity); err != nil {
			return false
		}
		sol := m.Solve(Options{})
		if sol.Status != StatusOptimal {
			return false
		}

		// Brute force.
		best := 0.0
		for mask := 0; mask < 1<<n; mask++ {
			w, v := 0.0, 0.0
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					w += weights[i]
					v += values[i]
				}
			}
			if w <= capacity && v > best {
				best = v
			}
		}
		if math.Abs(-sol.Objective-best) > 1e-6 {
			return false
		}
		// Verify the reported assignment is consistent and feasible.
		w, v := 0.0, 0.0
		for i := 0; i < n; i++ {
			xi := sol.Value(vars[i])
			if xi < -1e-9 || xi > 1+1e-9 {
				return false
			}
			if sol.Int(vars[i]) == 1 {
				w += weights[i]
				v += values[i]
			}
		}
		return w <= capacity+1e-6 && math.Abs(v-best) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
