package baseline

import (
	"testing"
	"time"

	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

func fixedMAT(name string, req float64) *program.MAT {
	return &program.MAT{
		Name:             name,
		Capacity:         16,
		FixedRequirement: req,
		Actions: []program.Action{{
			Name: "a",
			Ops:  []program.Op{program.SetOp(fields.Metadata("meta."+name, 8), 1)},
		}},
	}
}

// figure1 reproduces the paper's Figure 1 workload: a -> b (1 B),
// b -> c (4 B); switches tolerate two MATs each.
func figure1(t *testing.T) (*tdg.Graph, *network.Topology) {
	t.Helper()
	g := tdg.New()
	for _, n := range []string{"a", "b", "c"} {
		if err := g.AddNode(fixedMAT(n, 0.5), "prog"); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge("a", "b", tdg.DepMatch, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("b", "c", tdg.DepMatch, 4); err != nil {
		t.Fatal(err)
	}
	tp := network.NewTopology("testbed")
	for i := 0; i < 3; i++ {
		tp.AddSwitch(network.Switch{
			Programmable:   true,
			Stages:         2,
			StageCapacity:  0.5,
			TransitLatency: time.Microsecond,
		})
	}
	for i := 0; i < 2; i++ {
		if err := tp.AddLink(network.SwitchID(i), network.SwitchID(i+1), time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	return g, tp
}

// twoPrograms builds two origin programs of two MATs each, with
// distinct requirements so packing behaviour differs between solvers.
func twoPrograms(t *testing.T) (*tdg.Graph, *network.Topology) {
	t.Helper()
	g := tdg.New()
	specs := []struct {
		name   string
		origin string
		req    float64
	}{
		{"p1/x", "p1", 0.4}, {"p1/y", "p1", 0.4},
		{"p2/x", "p2", 0.3}, {"p2/y", "p2", 0.3},
	}
	for _, s := range specs {
		if err := g.AddNode(fixedMAT(s.name, s.req), s.origin); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge("p1/x", "p1/y", tdg.DepMatch, 4); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge("p2/x", "p2/y", tdg.DepMatch, 2); err != nil {
		t.Fatal(err)
	}
	tp := network.NewTopology("net")
	for i := 0; i < 4; i++ {
		tp.AddSwitch(network.Switch{
			Programmable:   true,
			Stages:         4,
			StageCapacity:  0.5,
			TransitLatency: time.Microsecond,
		})
	}
	for i := 0; i < 3; i++ {
		if err := tp.AddLink(network.SwitchID(i), network.SwitchID(i+1), time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	return g, tp
}

func TestAllBaselinesSolveFigure1(t *testing.T) {
	g, tp := figure1(t)
	for _, s := range All() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			plan, err := s.Solve(g, tp, placement.Options{})
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			if err := plan.Validate(program.DefaultResourceModel, 0, 0); err != nil {
				t.Fatalf("%s invalid plan: %v", s.Name(), err)
			}
			if plan.SolverName != s.Name() {
				t.Errorf("SolverName = %q, want %q", plan.SolverName, s.Name())
			}
		})
	}
}

func TestFFLIsByteOblivious(t *testing.T) {
	// FFL fills switch 0 with a and b (level order, first fit), pushing
	// the expensive b->c edge (4 B) across switches — the paper's
	// Figure 1(a) outcome.
	g, tp := figure1(t)
	plan, err := (FFL{}).Solve(g, tp, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.AMax(); got != 4 {
		t.Errorf("FFL AMax = %d, want 4 (Figure 1a)", got)
	}
	ua, _ := plan.SwitchOf("a")
	ub, _ := plan.SwitchOf("b")
	if ua != ub {
		t.Errorf("FFL should co-locate a and b: %d vs %d", ua, ub)
	}
}

func TestFFLSOrdersBySize(t *testing.T) {
	// Two independent level-0 MATs: big (0.8) and small (0.2) declared
	// small-first. On 1-stage switches of capacity 1.0, FFL places
	// small then big -> big overflows to switch 1; FFLS places big
	// first so both land on switch 0... capacity 1.0 fits both
	// (0.8+0.2) in one stage? One stage capacity 1.0 fits both only if
	// stage capacity >= 1.0 total. Use independent MATs so same stage is
	// fine.
	g := tdg.New()
	if err := g.AddNode(fixedMAT("small", 0.2)); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(fixedMAT("big", 0.9)); err != nil {
		t.Fatal(err)
	}
	tp := network.NewTopology("net")
	for i := 0; i < 2; i++ {
		tp.AddSwitch(network.Switch{
			Programmable: true, Stages: 1, StageCapacity: 1, TransitLatency: 0,
		})
	}
	if err := tp.AddLink(0, 1, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// FFL: small on s0 (0.2), big does not fit s0 (1.1 > 1.0) -> s1.
	fp, err := (FFL{}).Solve(g, tp, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	us, _ := fp.SwitchOf("small")
	ub, _ := fp.SwitchOf("big")
	if us != 0 || ub != 1 {
		t.Errorf("FFL placement = small@%d big@%d, want 0/1", us, ub)
	}
	// FFLS: big first on s0 (0.9), small does not fit s0 -> s1.
	fsp, err := (FFLS{}).Solve(g, tp, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ub2, _ := fsp.SwitchOf("big")
	if ub2 != 0 {
		t.Errorf("FFLS should place big first on switch 0, got %d", ub2)
	}
}

func TestPerProgramSolversKeepProgramsTogether(t *testing.T) {
	g, tp := twoPrograms(t)
	for _, s := range []placement.Solver{MinStage{}, Sonata{}, Flightplan{}} {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			plan, err := s.Solve(g, tp, placement.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, prog := range []string{"p1", "p2"} {
				ux, _ := plan.SwitchOf(prog + "/x")
				uy, _ := plan.SwitchOf(prog + "/y")
				if ux != uy {
					t.Errorf("%s split program %s across %d and %d", s.Name(), prog, ux, uy)
				}
			}
			if err := plan.Validate(program.DefaultResourceModel, 0, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSonataBalancesAcrossSwitches(t *testing.T) {
	g, tp := twoPrograms(t)
	plan, err := (Sonata{}).Solve(g, tp, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The emptiest-fit rule sends the two programs to different
	// switches.
	u1, _ := plan.SwitchOf("p1/x")
	u2, _ := plan.SwitchOf("p2/x")
	if u1 == u2 {
		t.Errorf("Sonata put both programs on switch %d; want balanced", u1)
	}
}

func TestMinStagePacksSequentially(t *testing.T) {
	g, tp := twoPrograms(t)
	plan, err := (MinStage{}).Solve(g, tp, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// First-fit per program: p1 (0.8 total) on switch 0; p2 (0.6) also
	// fits switch 0 by capacity (1.4 <= 2.0)? Stage capacity 0.5 and 4
	// stages: p1 takes stages 0,1; p2 can take stages 2,3 -> same
	// switch.
	u1, _ := plan.SwitchOf("p1/x")
	u2, _ := plan.SwitchOf("p2/x")
	if u1 != 0 || u2 != 0 {
		t.Errorf("MS placement = p1@%d p2@%d, want both on 0", u1, u2)
	}
}

func TestMTPSpreadsMoreThanSPEED(t *testing.T) {
	// A 4-MAT chain with total requirement 1.6 on 2.0-capacity
	// switches: SPEED fills one switch as far as possible; MTP halves
	// the fill target and uses more switches.
	g := tdg.New()
	names := []string{"a", "b", "c", "d"}
	for _, n := range names {
		if err := g.AddNode(fixedMAT(n, 0.4), "p"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i+1 < len(names); i++ {
		if err := g.AddEdge(names[i], names[i+1], tdg.DepMatch, 2); err != nil {
			t.Fatal(err)
		}
	}
	tp := network.NewTopology("net")
	for i := 0; i < 4; i++ {
		tp.AddSwitch(network.Switch{
			Programmable: true, Stages: 4, StageCapacity: 0.5, TransitLatency: time.Microsecond,
		})
	}
	for i := 0; i < 3; i++ {
		if err := tp.AddLink(network.SwitchID(i), network.SwitchID(i+1), time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	sp, err := (SPEED{}).Solve(g, tp, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := (MTP{}).Solve(g, tp, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mp.QOcc() <= sp.QOcc() {
		t.Errorf("MTP QOcc %d should exceed SPEED QOcc %d", mp.QOcc(), sp.QOcc())
	}
	for _, p := range []*placement.Plan{sp, mp} {
		if err := p.Validate(program.DefaultResourceModel, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBaselinesNeverBeatHermesOnFigure1(t *testing.T) {
	g, tp := figure1(t)
	hermes, err := (placement.Greedy{}).Solve(g, tp, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range All() {
		plan, err := s.Solve(g, tp, placement.Options{})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if plan.AMax() < hermes.AMax() {
			t.Errorf("%s AMax %d beats Hermes %d on the overhead objective",
				s.Name(), plan.AMax(), hermes.AMax())
		}
	}
}

func TestBaselineErrors(t *testing.T) {
	_, tp := figure1(t)
	empty := tdg.New()
	for _, s := range All() {
		if _, err := s.Solve(empty, tp, placement.Options{}); err == nil {
			t.Errorf("%s accepted empty TDG", s.Name())
		}
	}
	// No programmable switches.
	g, _ := figure1(t)
	plain := network.NewTopology("plain")
	plain.AddSwitch(network.Switch{})
	for _, s := range All() {
		if _, err := s.Solve(g, plain, placement.Options{}); err == nil {
			t.Errorf("%s accepted topology without programmable switches", s.Name())
		}
	}
}

// The experiment tables key their columns on Solver.Name, so the eight
// baselines must answer to eight distinct names.
func TestAllSolversHaveDistinctNames(t *testing.T) {
	solvers := All()
	if len(solvers) != 8 {
		t.Fatalf("All() holds %d solvers, want 8", len(solvers))
	}
	seen := map[string]bool{}
	for _, s := range solvers {
		name := s.Name()
		if name == "" || seen[name] {
			t.Errorf("solver name %q is empty or repeated", name)
		}
		seen[name] = true
	}
}

func TestBalancedSplit(t *testing.T) {
	g := tdg.New()
	for _, n := range []string{"a", "b", "c", "d", "e"} {
		if err := g.AddNode(fixedMAT(n, 0.4)); err != nil {
			t.Fatal(err)
		}
	}
	ref := &network.Switch{Programmable: true, Stages: 2, StageCapacity: 0.5}
	segs, err := balancedSplit(g, program.DefaultResourceModel, ref, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// 5 * 0.4 at 1.0 per segment -> [a b] [c d] [e].
	if len(segs) != 3 {
		t.Fatalf("segments = %v, want 3", segs)
	}
	if len(segs[0]) != 2 || len(segs[1]) != 2 || len(segs[2]) != 1 {
		t.Errorf("segment sizes = %d/%d/%d, want 2/2/1", len(segs[0]), len(segs[1]), len(segs[2]))
	}
	// Halving the fill target (MTP style) doubles the segments.
	segs, err = balancedSplit(g, program.DefaultResourceModel, ref, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 5 {
		t.Errorf("half-fill segments = %d, want 5", len(segs))
	}
	tiny := &network.Switch{Programmable: true, Stages: 1, StageCapacity: 0.3}
	if _, err := balancedSplit(g, program.DefaultResourceModel, tiny, 1.0); err == nil {
		t.Error("oversized MAT accepted")
	}
}
