package network

import (
	"fmt"
	"math/rand"
	"time"
)

// SwitchSpec carries the per-switch defaults used by generators.
type SwitchSpec struct {
	// Stages and StageCapacity configure programmable switches;
	// defaults model a Tofino-class pipeline (12 stages, unit capacity).
	Stages        int
	StageCapacity float64
	// TransitLatency is t_s(u); the paper sets 1 µs.
	TransitLatency time.Duration
	// LinkLatencyMin/Max bound the uniformly random t_l(u,v); the paper
	// uses 1–10 ms for WANs.
	LinkLatencyMin time.Duration
	LinkLatencyMax time.Duration
	// ProgrammableFraction is the share of switches made programmable
	// (the paper randomly selects 50%).
	ProgrammableFraction float64
}

// TofinoSpec returns the paper's simulation settings: Tofino-like
// switches (12 stages), 1 µs transit, 1–10 ms links, 50% programmable.
func TofinoSpec() SwitchSpec {
	return SwitchSpec{
		Stages:               12,
		StageCapacity:        1.0,
		TransitLatency:       time.Microsecond,
		LinkLatencyMin:       time.Millisecond,
		LinkLatencyMax:       10 * time.Millisecond,
		ProgrammableFraction: 0.5,
	}
}

// TestbedSpec returns settings for the 3-switch testbed: all switches
// programmable, 100 Gbps short links (modeled at 1 µs).
func TestbedSpec() SwitchSpec {
	return SwitchSpec{
		Stages:               12,
		StageCapacity:        1.0,
		TransitLatency:       time.Microsecond,
		LinkLatencyMin:       time.Microsecond,
		LinkLatencyMax:       time.Microsecond,
		ProgrammableFraction: 1.0,
	}
}

func (s SwitchSpec) linkLatency(rng *rand.Rand) time.Duration {
	if s.LinkLatencyMax <= s.LinkLatencyMin {
		return s.LinkLatencyMin
	}
	span := int64(s.LinkLatencyMax - s.LinkLatencyMin)
	return s.LinkLatencyMin + time.Duration(rng.Int63n(span+1))
}

// Linear builds a linear chain of n switches, all programmable — the
// paper's Tofino testbed shape (three switches in a line).
func Linear(n int, spec SwitchSpec) (*Topology, error) {
	if n <= 0 {
		return nil, fmt.Errorf("network: linear topology needs n > 0, got %d", n)
	}
	t := NewTopology(fmt.Sprintf("linear-%d", n))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		t.AddSwitch(Switch{
			Name:           fmt.Sprintf("sw%d", i),
			Programmable:   true,
			Stages:         spec.Stages,
			StageCapacity:  spec.StageCapacity,
			TransitLatency: spec.TransitLatency,
		})
	}
	for i := 0; i+1 < n; i++ {
		if err := t.AddLink(SwitchID(i), SwitchID(i+1), spec.linkLatency(rng)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// FatTree builds a k-ary fat-tree data center topology (k even):
// (k/2)^2 core switches, k pods of k/2 aggregation + k/2 edge switches.
// Programmability is assigned per spec.ProgrammableFraction, seeded.
func FatTree(k int, spec SwitchSpec, seed int64) (*Topology, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("network: fat-tree arity must be even and >= 2, got %d", k)
	}
	rng := rand.New(rand.NewSource(seed))
	t := NewTopology(fmt.Sprintf("fattree-%d", k))
	half := k / 2
	numCore := half * half

	core := make([]SwitchID, numCore)
	for i := range core {
		core[i] = t.AddSwitch(Switch{Name: fmt.Sprintf("core%d", i), TransitLatency: spec.TransitLatency})
	}
	aggOf := make([][]SwitchID, k)
	edgeOf := make([][]SwitchID, k)
	for p := 0; p < k; p++ {
		aggOf[p] = make([]SwitchID, half)
		edgeOf[p] = make([]SwitchID, half)
		for i := 0; i < half; i++ {
			aggOf[p][i] = t.AddSwitch(Switch{Name: fmt.Sprintf("agg%d_%d", p, i), TransitLatency: spec.TransitLatency})
			edgeOf[p][i] = t.AddSwitch(Switch{Name: fmt.Sprintf("edge%d_%d", p, i), TransitLatency: spec.TransitLatency})
		}
		// Pod mesh: every edge connects to every aggregation switch.
		for i := 0; i < half; i++ {
			for j := 0; j < half; j++ {
				if err := t.AddLink(aggOf[p][i], edgeOf[p][j], spec.linkLatency(rng)); err != nil {
					return nil, err
				}
			}
		}
	}
	// Core links: agg i in each pod connects to cores [i*half, (i+1)*half).
	for p := 0; p < k; p++ {
		for i := 0; i < half; i++ {
			for j := 0; j < half; j++ {
				if err := t.AddLink(aggOf[p][i], core[i*half+j], spec.linkLatency(rng)); err != nil {
					return nil, err
				}
			}
		}
	}
	markProgrammable(t, spec, rng)
	return t, nil
}

// RandomWAN builds a connected random WAN-like topology with exactly
// nodes switches and edges links (edges >= nodes-1), deterministic in
// seed. A random spanning tree guarantees connectivity; remaining links
// are sampled uniformly among absent pairs.
func RandomWAN(name string, nodes, edges int, spec SwitchSpec, seed int64) (*Topology, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("network: WAN needs nodes > 0, got %d", nodes)
	}
	minEdges := nodes - 1
	maxEdges := nodes * (nodes - 1) / 2
	if edges < minEdges || edges > maxEdges {
		return nil, fmt.Errorf("network: %d nodes cannot carry %d edges (need %d..%d)", nodes, edges, minEdges, maxEdges)
	}
	rng := rand.New(rand.NewSource(seed))
	t := NewTopology(name)
	for i := 0; i < nodes; i++ {
		t.AddSwitch(Switch{Name: fmt.Sprintf("w%d", i), TransitLatency: spec.TransitLatency})
	}
	// Random spanning tree: connect each new node to a random earlier one.
	perm := rng.Perm(nodes)
	for i := 1; i < nodes; i++ {
		a := SwitchID(perm[i])
		b := SwitchID(perm[rng.Intn(i)])
		if err := t.AddLink(a, b, spec.linkLatency(rng)); err != nil {
			return nil, err
		}
	}
	// Extra links.
	for t.NumLinks() < edges {
		a := SwitchID(rng.Intn(nodes))
		b := SwitchID(rng.Intn(nodes))
		if a == b {
			continue
		}
		if _, dup := t.LinkBetween(a, b); dup {
			continue
		}
		if err := t.AddLink(a, b, spec.linkLatency(rng)); err != nil {
			return nil, err
		}
	}
	markProgrammable(t, spec, rng)
	return t, nil
}

func markProgrammable(t *Topology, spec SwitchSpec, rng *rand.Rand) {
	n := t.NumSwitches()
	count := int(float64(n)*spec.ProgrammableFraction + 0.5)
	if count < 1 {
		count = 1
	}
	if count > n {
		count = n
	}
	for _, idx := range rng.Perm(n)[:count] {
		s := t.switches[idx]
		s.Programmable = true
		s.Stages = spec.Stages
		s.StageCapacity = spec.StageCapacity
	}
}

// CompositeWAN stitches `regions` Table III-sized WAN regions into one
// connected topology — the scaled evaluation substrate for the
// region-sharded solver (Exp#10 extends the paper's Fig. 9 curve by two
// orders of magnitude with these). Region i is an independent
// RandomWAN with the node/edge counts of Table III row (i mod 10),
// seeded from seed+i+1 so every region differs deterministically;
// switch names are prefixed r<i>_ and region i occupies the contiguous
// ID range starting at i's base. Consecutive regions are stitched by
// two inter-region links (plus a ring-closing pair and a few long
// chords once regions > 2), mirroring how real WAN interconnects join
// metro fabrics: boundary edges are sparse relative to intra-region
// edges, which is exactly the regime the sharded solver's reconcile
// targets. ~70 switches per region: composite-30 is
// ~2.1k switches, composite-143 is ~10k.
func CompositeWAN(regions int, spec SwitchSpec, seed int64) (*Topology, error) {
	if regions <= 0 {
		return nil, fmt.Errorf("network: composite WAN needs regions > 0, got %d", regions)
	}
	t := NewTopology(fmt.Sprintf("composite-%d", regions))
	rng := rand.New(rand.NewSource(seed))
	base := make([]SwitchID, regions)
	size := make([]int, regions)
	for i := 0; i < regions; i++ {
		row := tableIII[i%len(tableIII)]
		nodes, edges := row.nodes, row.edges
		if edges < nodes-1 {
			edges = nodes - 1
		}
		reg, err := RandomWAN(fmt.Sprintf("c%d", i), nodes, edges, spec, seed+int64(i)+1)
		if err != nil {
			return nil, err
		}
		base[i] = SwitchID(t.NumSwitches())
		size[i] = nodes
		for _, s := range reg.Switches() {
			c := *s
			c.Name = fmt.Sprintf("r%d_%s", i, s.Name)
			t.AddSwitch(c)
		}
		for _, l := range reg.Links() {
			if err := t.AddLink(base[i]+l.A, base[i]+l.B, l.Latency); err != nil {
				return nil, err
			}
		}
	}
	// stitch joins regions a and b with one fresh link between random
	// members; duplicate picks retry (regions are ~70 switches, so a
	// handful of attempts always suffices).
	stitch := func(a, b int) error {
		for attempt := 0; attempt < 64; attempt++ {
			u := base[a] + SwitchID(rng.Intn(size[a]))
			v := base[b] + SwitchID(rng.Intn(size[b]))
			if _, dup := t.LinkBetween(u, v); dup {
				continue
			}
			return t.AddLink(u, v, spec.linkLatency(rng))
		}
		return fmt.Errorf("network: composite WAN could not stitch regions %d-%d", a, b)
	}
	for i := 0; i+1 < regions; i++ {
		if err := stitch(i, i+1); err != nil {
			return nil, err
		}
		if err := stitch(i, i+1); err != nil {
			return nil, err
		}
	}
	if regions > 2 {
		if err := stitch(regions-1, 0); err != nil {
			return nil, err
		}
		// Long chords shrink the ring diameter (real WAN backbones are
		// not pure rings); one chord per four regions.
		for c := 0; c < regions/4; c++ {
			a := rng.Intn(regions)
			b := (a + regions/2) % regions
			if a == b {
				continue
			}
			if err := stitch(a, b); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// tableIII lists the node/edge counts of the paper's Table III.
var tableIII = []struct{ nodes, edges int }{
	{65, 78}, {70, 85}, {75, 99}, {66, 75}, {73, 70},
	{72, 84}, {68, 92}, {71, 88}, {74, 92}, {69, 98},
}

// TableIII returns the i-th (1-based) evaluation topology with the
// exact node and edge count from the paper's Table III, generated
// deterministically. Topology 5 in the table lists fewer edges than
// nodes (73 nodes, 70 edges), which cannot be connected; we keep the
// published node count and raise the edge count to nodes-1 (72), the
// minimum connected graph, and record the adjustment in the name.
func TableIII(i int, spec SwitchSpec) (*Topology, error) {
	if i < 1 || i > len(tableIII) {
		return nil, fmt.Errorf("network: Table III index must be 1..%d, got %d", len(tableIII), i)
	}
	row := tableIII[i-1]
	nodes, edges := row.nodes, row.edges
	name := fmt.Sprintf("tableIII-%d", i)
	if edges < nodes-1 {
		edges = nodes - 1
		name += "-adj"
	}
	return RandomWAN(name, nodes, edges, spec, int64(1000+i))
}

// TableIIISize reports the published (nodes, edges) of topology i.
func TableIIISize(i int) (nodes, edges int, err error) {
	if i < 1 || i > len(tableIII) {
		return 0, 0, fmt.Errorf("network: Table III index must be 1..%d, got %d", len(tableIII), i)
	}
	return tableIII[i-1].nodes, tableIII[i-1].edges, nil
}

// NumTableIII returns how many topologies Table III defines.
func NumTableIII() int { return len(tableIII) }
