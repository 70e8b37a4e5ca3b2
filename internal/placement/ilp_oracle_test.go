package placement

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/hermes-net/hermes/internal/milp"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

// ILP solves problem P#1 under Eq. 1's byte objective through the
// literal MILP encoding, with internal/milp in place of Gurobi. It is
// Exact's differential twin: the two share no search code, so equal
// proven optima certify both. The decision variable x(a,i,u) is
// aggregated per switch into L(a,u) — the paper's own edge constraints
// (Eq. 7) are stated over L — and the stage-level split is recovered
// afterwards with the production packer. Products L(a,u)·L(b,v) in
// Eq. 1 are linearized with z ≥ L(a,u) + L(b,v) − 1.
//
// The encoding relaxes the stage-granular problem twice, and each
// relaxation is tightened only where an optimum violates it. An optimum
// whose switch order is cyclic adds order rows for the TDG edges that
// close the cycle, which no later solution can cycle through again. An
// optimum the stage packer rejects gets a no-good cut that forbids
// exactly that assignment, up to maxNoGoodCuts of them. Both remove
// only infeasible assignments, so the first optimum that passes is
// optimal for P#1. ε1 is not encoded.
type ILP struct{}

// maxNoGoodCuts bounds the repair loop of ILP.Solve.
const maxNoGoodCuts = 16

var _ Solver = ILP{}

// Name implements Solver.
func (ILP) Name() string { return "ILP" }

// Solve implements Solver.
func (s ILP) Solve(g *tdg.Graph, topo *network.Topology, opts Options) (*Plan, error) {
	start := time.Now()
	if err := opts.canceled(); err != nil {
		return nil, fmt.Errorf("placement: solve canceled: %w", err)
	}
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("placement: empty TDG")
	}
	if opts.Epsilon1 > 0 {
		return nil, fmt.Errorf("placement: the MILP oracle does not encode ε1")
	}
	if err := topo.Validate(); err != nil {
		return nil, fmt.Errorf("placement: %w", err)
	}
	prog := topo.ProgrammableSwitches()
	if len(prog) == 0 {
		return nil, fmt.Errorf("placement: no programmable switches")
	}
	rm := program.DefaultResourceModel
	nodes := g.NodeNames()
	eps2 := opts.epsilon2(len(prog))

	m := milp.NewModel()
	// L(a,u), with Eq. 6 as an equality: exactly one host per MAT.
	lvar := map[string]map[network.SwitchID]milp.Var{}
	for _, a := range nodes {
		lvar[a] = map[network.SwitchID]milp.Var{}
		assign := milp.Expr{}
		for _, u := range prog {
			v, err := m.AddBinaryVar(fmt.Sprintf("L(%s,%d)", a, u), 0)
			if err != nil {
				return nil, err
			}
			lvar[a][u] = v
			assign = assign.Plus(v, 1)
		}
		if err := m.AddConstraint("deploy:"+a, assign, milp.EQ, 1); err != nil {
			return nil, err
		}
	}
	amax, err := m.AddVar("A_max", 0, math.Inf(1), 1)
	if err != nil {
		return nil, err
	}
	// z(e,u,v) with linking rows, summed per ordered switch pair.
	pairSum := map[RouteKey]milp.Expr{}
	for ei, e := range g.Edges() {
		if e.MetadataBytes == 0 {
			continue // a zero-byte edge cannot move A_max
		}
		for _, u := range prog {
			for _, v := range prog {
				if u == v {
					continue
				}
				z, err := m.AddVar(fmt.Sprintf("z(%d,%d,%d)", ei, u, v), 0, 1, 0)
				if err != nil {
					return nil, err
				}
				link := milp.Expr{}.Plus(lvar[e.From][u], 1).Plus(lvar[e.To][v], 1).Plus(z, -1)
				if err := m.AddConstraint("link", link, milp.LE, 1); err != nil {
					return nil, err
				}
				key := RouteKey{From: u, To: v}
				pairSum[key] = pairSum[key].Plus(z, float64(e.MetadataBytes))
			}
		}
	}
	// Eq. 1: A_max dominates every pair sum.
	for key, expr := range pairSum {
		if err := m.AddConstraint(fmt.Sprintf("amax(%d,%d)", key.From, key.To), expr.Plus(amax, -1), milp.LE, 0); err != nil {
			return nil, err
		}
	}
	// Eq. 9 aggregated per switch: Σ R(a)·L(a,u) ≤ capacity(u).
	for _, u := range prog {
		sw, err := topo.Switch(u)
		if err != nil {
			return nil, err
		}
		capc := milp.Expr{}
		for _, a := range nodes {
			node, _ := g.Node(a)
			capc = capc.Plus(lvar[a][u], rm.Requirement(node.MAT))
		}
		if err := m.AddConstraint(fmt.Sprintf("cap(%d)", u), capc, milp.LE, sw.Capacity()); err != nil {
			return nil, err
		}
	}
	// Eq. 5: occupancy o(u) ≥ L(a,u), Σ o(u) ≤ ε2, when the bound binds.
	if eps2 < len(prog) {
		occ := milp.Expr{}
		for _, u := range prog {
			o, err := m.AddBinaryVar(fmt.Sprintf("o(%d)", u), 0)
			if err != nil {
				return nil, err
			}
			for _, a := range nodes {
				if err := m.AddConstraint("occ-link", milp.Expr{}.Plus(lvar[a][u], 1).Plus(o, -1), milp.LE, 0); err != nil {
					return nil, err
				}
			}
			occ = occ.Plus(o, 1)
		}
		if err := m.AddConstraint("eps2", occ, milp.LE, float64(eps2)); err != nil {
			return nil, err
		}
	}

	// Switch order, added lazily: p(i,j) = 1 puts prog[i] before prog[j]
	// (i < j), two rows per switch triple forbid a 3-cycle of "before",
	// and once a TDG edge a→b has closed a cycle it may only cross
	// forwards: L(a,u) + L(b,v) ≤ 1 + before(u,v).
	p := map[[2]int]milp.Var{}
	for i := range prog {
		for j := i + 1; j < len(prog); j++ {
			v, err := m.AddBinaryVar(fmt.Sprintf("p(%d,%d)", prog[i], prog[j]), 0)
			if err != nil {
				return nil, err
			}
			p[[2]int{i, j}] = v
		}
	}
	for i := range prog {
		for j := i + 1; j < len(prog); j++ {
			for k := j + 1; k < len(prog); k++ {
				pij, pjk, pik := p[[2]int{i, j}], p[[2]int{j, k}], p[[2]int{i, k}]
				if err := m.AddConstraint("order", milp.Expr{}.Plus(pij, 1).Plus(pjk, 1).Plus(pik, -1), milp.LE, 1); err != nil {
					return nil, err
				}
				if err := m.AddConstraint("order", milp.Expr{}.Plus(pik, 1).Plus(pjk, -1).Plus(pij, -1), milp.LE, 0); err != nil {
					return nil, err
				}
			}
		}
	}
	forwards := map[*tdg.Edge]bool{}
	orderEdge := func(e *tdg.Edge) error {
		forwards[e] = true
		for i, u := range prog {
			for j, v := range prog {
				row := milp.Expr{}.Plus(lvar[e.From][u], 1).Plus(lvar[e.To][v], 1)
				var err error
				switch {
				case i < j:
					err = m.AddConstraint("forward", row.Plus(p[[2]int{i, j}], -1), milp.LE, 1)
				case i > j:
					err = m.AddConstraint("forward", row.Plus(p[[2]int{j, i}], 1), milp.LE, 2)
				}
				if err != nil {
					return err
				}
			}
		}
		return nil
	}

	proven := true
	for cuts := 0; ; {
		sol := m.Solve(milp.Options{Deadline: opts.Deadline, Cancel: opts.done()})
		switch sol.Status {
		case milp.StatusOptimal:
		case milp.StatusFeasible:
			proven = false
		case milp.StatusDeadline:
			return nil, errMILPDeadline
		default:
			return nil, fmt.Errorf("placement: ILP %v", sol.Status)
		}
		assign := map[string]network.SwitchID{}
		for _, a := range nodes {
			for _, u := range prog {
				if sol.Int(lvar[a][u]) == 1 {
					assign[a] = u
					break
				}
			}
			if _, ok := assign[a]; !ok {
				return nil, fmt.Errorf("placement: ILP left MAT %q unassigned", a)
			}
		}
		if cycle := switchCycle(g, prog, assign); cycle != nil {
			added := false
			for _, e := range cycle {
				if !forwards[e] {
					if err := orderEdge(e); err != nil {
						return nil, err
					}
					added = true
				}
			}
			if !added {
				return nil, fmt.Errorf("placement: ILP closed a switch cycle through ordered edges")
			}
			continue
		}
		byID, err := assignIDs(g, assign)
		if err != nil {
			return nil, err
		}
		plan, err := materializeAssignment(g, topo, byID, rm)
		if err == nil {
			plan.SolverName = s.Name()
			plan.SolveTime = time.Since(start)
			plan.Proven = proven
			return plan, nil
		}
		if cuts == maxNoGoodCuts {
			return nil, fmt.Errorf("placement: ILP optima kept failing stage packing after %d cuts", maxNoGoodCuts)
		}
		// No-good cut: forbid this exact assignment.
		cuts++
		ng := milp.Expr{}
		for a, u := range assign {
			ng = ng.Plus(lvar[a][u], 1)
		}
		if err := m.AddConstraint(fmt.Sprintf("nogood%d", cuts), ng, milp.LE, float64(len(nodes)-1)); err != nil {
			return nil, err
		}
	}
}

// errMILPDeadline reports a MILP solve the deadline stopped before any
// incumbent: it certifies nothing either way.
var errMILPDeadline = errors.New("placement: ILP hit deadline with no feasible plan")

// switchCycle returns TDG edges that witness a cycle in the switch order
// an assignment induces, or nil when that order is acyclic.
func switchCycle(g *tdg.Graph, prog []network.SwitchID, assign map[string]network.SwitchID) []*tdg.Edge {
	witness := map[[2]network.SwitchID]*tdg.Edge{}
	next := map[network.SwitchID][]network.SwitchID{}
	for _, e := range g.Edges() {
		k := [2]network.SwitchID{assign[e.From], assign[e.To]}
		if k[0] == k[1] || witness[k] != nil {
			continue
		}
		witness[k] = e
		next[k[0]] = append(next[k[0]], k[1])
	}
	const onPath, done = 1, 2
	state := map[network.SwitchID]int{}
	var path []network.SwitchID
	var cycle []*tdg.Edge
	var visit func(u network.SwitchID) bool
	visit = func(u network.SwitchID) bool {
		state[u] = onPath
		path = append(path, u)
		for _, v := range next[u] {
			if state[v] == onPath {
				closed := append(path, v)
				for i := len(closed) - 2; i >= 0; i-- {
					cycle = append(cycle, witness[[2]network.SwitchID{closed[i], closed[i+1]}])
					if closed[i] == v {
						break
					}
				}
				return true
			}
			if state[v] == 0 && visit(v) {
				return true
			}
		}
		path = path[:len(path)-1]
		state[u] = done
		return false
	}
	for _, u := range prog {
		if state[u] == 0 && visit(u) {
			break
		}
	}
	return cycle
}

func TestILPFigure1(t *testing.T) {
	g, tp := figure1(t)
	plan, err := (ILP{}).Solve(g, tp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.AMax(); got != 1 {
		t.Errorf("ILP AMax = %d, want 1", got)
	}
	if !plan.Proven {
		t.Error("ILP returned an unproven plan without a deadline")
	}
	if err := plan.Validate(program.DefaultResourceModel, 0, 0); err != nil {
		t.Fatal(err)
	}
}

// TestILPRejectsEpsilon1: the encoding has no ε1 rows, so the oracle
// must refuse the bound rather than answer a different problem.
func TestILPRejectsEpsilon1(t *testing.T) {
	g, tp := figure1(t)
	if _, err := (ILP{}).Solve(g, tp, Options{Epsilon1: time.Second}); err == nil {
		t.Fatal("ILP accepted ε1 it does not encode")
	}
}

// TestSwitchCycle checks the witness the oracle's order rows are built
// from: nil for an acyclic switch order, and otherwise TDG edges whose
// switch hops close a cycle.
func TestSwitchCycle(t *testing.T) {
	g := chainTDG(t, []string{"a", "b", "c", "d"}, []int{1, 1, 1}, 0.5)
	prog := []network.SwitchID{0, 1, 2}
	if c := switchCycle(g, prog, map[string]network.SwitchID{"a": 0, "b": 0, "c": 1, "d": 2}); c != nil {
		t.Fatalf("acyclic order 0→1→2 reported cycle %v", c)
	}
	assign := map[string]network.SwitchID{"a": 0, "b": 1, "c": 2, "d": 0}
	cycle := switchCycle(g, prog, assign)
	if len(cycle) != 3 {
		t.Fatalf("order 0→1→2→0 gave witness %v, want 3 edges", cycle)
	}
	out := map[network.SwitchID]network.SwitchID{}
	for _, e := range cycle {
		u, v := assign[e.From], assign[e.To]
		if u == v {
			t.Fatalf("witness edge %s→%s stays on switch %d", e.From, e.To, u)
		}
		out[u] = v
	}
	for u := range out {
		if _, ok := out[out[u]]; !ok {
			t.Fatalf("witness hops %v do not close a cycle", out)
		}
	}
}

// oracleInstance is one TDG × topology point of the Exact ≡ MILP sweep.
type oracleInstance struct {
	name string
	g    *tdg.Graph
	topo *network.Topology
}

// seededChain draws the chain instances the MILP comparison started
// from: 3–4 MATs of 0.4 on two 3-stage switches, 1–8 B per edge. Four
// MATs overflow one switch, so about half the draws must split.
func seededChain(t *testing.T, rng *rand.Rand) (*tdg.Graph, *network.Topology) {
	n := 3 + rng.Intn(2)
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	g := tdg.New()
	for _, nm := range names {
		if err := g.AddNode(fixedMAT(nm, 0.4)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(names[i], names[i+1], tdg.DepMatch, 1+rng.Intn(8)); err != nil {
			t.Fatal(err)
		}
	}
	tp := twoMATSwitchTopo(t, 2)
	for _, s := range tp.Switches() {
		s.Stages = 3
		s.StageCapacity = 0.5
	}
	return g, tp
}

// oracleDAG draws 5–8 MATs on 2–3 switches. Every requirement is one or
// two whole stages (0.5 each), so a switch whose capacity admits a MAT
// set can also pack it in topological order: the MILP's per-switch
// capacity row is then exact, and only cyclic switch orders need cuts.
// Stages are sized so the MATs overflow one switch but fit the network;
// a third switch sometimes gets an extra stage, which turns off Exact's
// symmetry breaking.
func oracleDAG(t *testing.T, rng *rand.Rand) (*tdg.Graph, *network.Topology) {
	n := 5 + rng.Intn(4)
	s := 2 + rng.Intn(2)
	g := tdg.New()
	units := 0
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('a' + i))
		u := 1
		if rng.Float64() < 0.3 {
			u = 2
		}
		units += u
		if err := g.AddNode(fixedMAT(names[i], 0.5*float64(u))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.4 {
				if err := g.AddEdge(names[i], names[j], tdg.DepMatch, rng.Intn(9)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	tp := twoMATSwitchTopo(t, s)
	stages := (units+s-1)/s + rng.Intn(2)
	for _, sw := range tp.Switches() {
		sw.Stages = stages
	}
	if s == 3 && rng.Intn(2) == 0 {
		tp.Switches()[2].Stages++
	}
	return g, tp
}

func oracleInstances(t *testing.T) []oracleInstance {
	g, tp := figure1(t)
	out := []oracleInstance{{"figure1", g, tp}}
	for _, seed := range []int64{21, 22, 23} {
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 6; trial++ {
			g, tp := seededChain(t, rng)
			out = append(out, oracleInstance{fmt.Sprintf("chain%d/%d", seed, trial), g, tp})
		}
	}
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 12; trial++ {
		g, tp := oracleDAG(t, rng)
		out = append(out, oracleInstance{fmt.Sprintf("dag/%d", trial), g, tp})
	}
	return out
}

// TestExactMatchesMILP holds Exact to the MILP encoding of P#1: where
// both prove their optimum, the A_max values are equal and both plans
// validate; where one solver errors, the other must too. A MILP solve
// that times out with no incumbent decides nothing and is only counted.
// The sweep must jointly prove enough instances, nonzero optima among
// them, that it cannot pass vacuously.
func TestExactMatchesMILP(t *testing.T) {
	start := time.Now()
	rm := program.DefaultResourceModel
	joint, nonzero, undecided := 0, 0, 0
	for _, inst := range oracleInstances(t) {
		for _, eps2 := range []int{0, 2} {
			name := fmt.Sprintf("%s/eps2=%d", inst.name, eps2)
			solve := func(s Solver) (*Plan, error) {
				return s.Solve(inst.g, inst.topo, Options{
					Epsilon2: eps2,
					Workers:  1,
					Deadline: time.Now().Add(2 * time.Second),
				})
			}
			ep, eerr := solve(Exact{})
			ip, ierr := solve(ILP{})
			if errors.Is(ierr, errMILPDeadline) {
				undecided++
				continue
			}
			if (eerr == nil) != (ierr == nil) {
				t.Errorf("%s: exact err=%v, MILP err=%v", name, eerr, ierr)
				continue
			}
			if eerr != nil || !ep.Proven || !ip.Proven {
				continue
			}
			for _, p := range []*Plan{ep, ip} {
				if err := p.Validate(rm, 0, eps2); err != nil {
					t.Errorf("%s: %s plan invalid: %v", name, p.SolverName, err)
				}
			}
			if ep.AMax() != ip.AMax() {
				t.Errorf("%s: exact A_max %d, MILP A_max %d", name, ep.AMax(), ip.AMax())
			}
			joint++
			if ep.AMax() > 0 {
				nonzero++
			}
		}
	}
	t.Logf("%d jointly proven instances, %d with a nonzero optimum, %d MILP timeouts, in %v",
		joint, nonzero, undecided, time.Since(start))
	if joint < 20 || nonzero < 10 {
		t.Errorf("jointly proven %d (want ≥ 20), nonzero %d (want ≥ 10)", joint, nonzero)
	}
}
