// Topology partitioner: deterministic, seeded decomposition of a
// switch graph into connected regions balanced by programmable stage
// capacity. The region-sharded solver (placement.ShardedGreedy) uses
// one region per shard, solves each on its Subgraph, and reconciles
// the boundary; everything here is therefore deterministic in (topo,
// options) so a partition can be recomputed, diffed, or shipped as
// text between runs.
//
// The algorithm is a classic three-phase graph-growing partitioner:
//
//  1. Seeding: the first seed is drawn from the seeded RNG among
//     programmable switches ("geography" start); each further seed is
//     the switch with maximum hop distance to every existing seed
//     (farthest-point/BFS seeding, ties to the smallest ID), which
//     spreads regions across the diameter.
//  2. Growing: multi-source BFS where the region with the least
//     accumulated programmable capacity claims the next switch from
//     its frontier (closest by hops, then smallest ID). Least-capacity-
//     first is what balances regions by C_stage·C_res rather than by
//     switch count.
//  3. Refinement: bounded boundary sweeps in the Kernighan–Lin spirit —
//     a boundary switch moves to a neighboring region when that
//     strictly reduces the number of cut links while keeping its old
//     region connected, nonempty, and both regions inside the balance
//     tolerance.
package network

import (
	"bufio"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// PartitionOptions configures PartitionTopology.
type PartitionOptions struct {
	// Regions is the number of regions k (required, 1 ≤ k ≤ switches).
	Regions int
	// Seed drives the first-seed draw; everything downstream is
	// deterministic in it.
	Seed int64
	// Tolerance bounds the per-region programmable-capacity deviation
	// from the mean during refinement: a move may not push a region
	// outside [mean·(1−Tolerance), mean·(1+Tolerance)]. Zero means the
	// default 0.5. Growing balances greedily on its own; the tolerance
	// only constrains how far refinement may trade balance for cut.
	Tolerance float64
	// RefinePasses bounds the boundary-refinement sweeps. Zero means
	// the default 2; negative disables refinement.
	RefinePasses int
	// MinCutPasses bounds the Kernighan–Lin-style boundary-swap sweeps
	// that run after the single-move refinement: a pair of switches on
	// opposite sides of a cut swap regions when that strictly reduces
	// the number of cut links while both regions stay connected and
	// within the balance tolerance. Swaps move capacity both ways at
	// once, so they escape the balance-blocked minima single moves
	// cannot (skewed topologies otherwise leave hot TDG edges on the
	// boundary). Zero disables the pass (the default — existing
	// partitions stay byte-identical); negative also disables.
	MinCutPasses int
}

func (o PartitionOptions) tolerance() float64 {
	if o.Tolerance <= 0 {
		return 0.5
	}
	return o.Tolerance
}

func (o PartitionOptions) refinePasses() int {
	if o.RefinePasses == 0 {
		return 2
	}
	if o.RefinePasses < 0 {
		return 0
	}
	return o.RefinePasses
}

// Partition is a disjoint cover of a topology's switches by connected
// regions. It is immutable after construction.
type Partition struct {
	topo     *Topology
	seed     int64
	regions  [][]SwitchID // sorted ascending within each region
	regionOf []int32      // switch ID → region index
}

// PartitionRegions partitions t into k connected regions with default
// tolerance and refinement (see PartitionTopology).
func PartitionRegions(t *Topology, k int, seed int64) (*Partition, error) {
	return PartitionTopology(t, PartitionOptions{Regions: k, Seed: seed})
}

// PartitionTopology partitions t into opts.Regions connected regions
// balanced by programmable stage capacity, minimizing boundary links.
// The result is deterministic in (t, opts).
func PartitionTopology(t *Topology, opts PartitionOptions) (*Partition, error) {
	n := t.NumSwitches()
	k := opts.Regions
	if k < 1 {
		return nil, fmt.Errorf("network: partition needs at least 1 region, got %d", k)
	}
	if k > n {
		return nil, fmt.Errorf("network: cannot cut %d switches into %d regions", n, k)
	}
	if !t.Connected() {
		return nil, fmt.Errorf("network: cannot partition disconnected topology %q", t.Name)
	}
	regionOf := make([]int32, n)
	for i := range regionOf {
		regionOf[i] = -1
	}
	if k == 1 {
		for i := range regionOf {
			regionOf[i] = 0
		}
	} else {
		seeds := partitionSeeds(t, k, opts.Seed)
		growRegions(t, seeds, regionOf)
		refineRegions(t, regionOf, k, opts.tolerance(), opts.refinePasses())
		if opts.MinCutPasses > 0 {
			swapRefineRegions(t, regionOf, k, opts.tolerance(), opts.MinCutPasses)
		}
	}
	p := &Partition{topo: t, seed: opts.Seed, regionOf: regionOf, regions: make([][]SwitchID, k)}
	for id, r := range regionOf {
		p.regions[r] = append(p.regions[r], SwitchID(id))
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// partitionSeeds picks k spread-out seeds: one seeded random
// programmable start, then farthest-point iteration on hop distance.
func partitionSeeds(t *Topology, k int, seed int64) []SwitchID {
	rng := rand.New(rand.NewSource(seed))
	cands := t.ProgrammableSwitches()
	if len(cands) == 0 {
		for i := 0; i < t.NumSwitches(); i++ {
			cands = append(cands, SwitchID(i))
		}
	}
	seeds := []SwitchID{cands[rng.Intn(len(cands))]}
	n := t.NumSwitches()
	// minDist[v] = hop distance from v to the nearest seed so far.
	minDist := make([]int, n)
	for i := range minDist {
		minDist[i] = -1
	}
	relax := func(src SwitchID) {
		q := []SwitchID{src}
		minDist[src] = 0
		for len(q) > 0 {
			u := q[0]
			q = q[1:]
			for _, e := range t.adj[u] {
				d := minDist[u] + 1
				if minDist[e.to] < 0 || d < minDist[e.to] {
					minDist[e.to] = d
					q = append(q, e.to)
				}
			}
		}
	}
	relax(seeds[0])
	taken := map[SwitchID]bool{seeds[0]: true}
	for len(seeds) < k {
		best := SwitchID(-1)
		bestDist := -1
		for v := 0; v < n; v++ {
			if taken[SwitchID(v)] {
				continue
			}
			if minDist[v] > bestDist {
				bestDist = minDist[v]
				best = SwitchID(v)
			}
		}
		seeds = append(seeds, best)
		taken[best] = true
		relax(best)
	}
	return seeds
}

// frontierItem is one candidate switch in a region's BFS frontier.
type frontierItem struct {
	dist int // hop distance from the region seed at push time
	id   SwitchID
}

type frontierHeap []frontierItem

func frontierLess(a, b frontierItem) bool {
	return a.dist < b.dist || (a.dist == b.dist && a.id < b.id)
}

func (h *frontierHeap) push(it frontierItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !frontierLess(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *frontierHeap) pop() frontierItem {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && frontierLess(s[l], s[min]) {
			min = l
		}
		if r < n && frontierLess(s[r], s[min]) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// growRegions runs the capacity-balanced multi-source BFS. Each
// iteration the region with the least accumulated programmable
// capacity (ties: fewest switches, then lowest index) that still has a
// non-exhausted frontier claims its closest unassigned switch.
func growRegions(t *Topology, seeds []SwitchID, regionOf []int32) {
	k := len(seeds)
	fronts := make([]frontierHeap, k)
	caps := make([]float64, k)
	sizes := make([]int, k)
	assigned := 0
	claim := func(r int, id SwitchID, dist int) {
		regionOf[id] = int32(r)
		caps[r] += t.switches[id].Capacity()
		sizes[r]++
		assigned++
		for _, e := range t.adj[id] {
			if regionOf[e.to] < 0 {
				fronts[r].push(frontierItem{dist: dist + 1, id: e.to})
			}
		}
	}
	for r, s := range seeds {
		claim(r, s, 0)
	}
	n := t.NumSwitches()
	for assigned < n {
		// Pick the neediest region with a live frontier.
		best := -1
		for r := 0; r < k; r++ {
			if len(fronts[r]) == 0 {
				continue
			}
			if best < 0 || caps[r] < caps[best] ||
				(caps[r] == caps[best] && (sizes[r] < sizes[best] || (sizes[r] == sizes[best] && r < best))) {
				best = r
			}
		}
		if best < 0 {
			// Cannot happen on a connected graph: any unassigned switch
			// adjacent to an assigned one sits in some frontier. Guard
			// against future generator bugs all the same.
			panic("network: partition growth stalled with unassigned switches")
		}
		// Drain stale entries (already claimed by another region).
		for len(fronts[best]) > 0 {
			it := fronts[best].pop()
			if regionOf[it.id] >= 0 {
				continue
			}
			claim(best, it.id, it.dist)
			break
		}
	}
}

// refineRegions runs bounded boundary sweeps: each switch (ID order)
// may move to the neighboring region that most reduces the cut, when
// the move keeps its old region connected and nonempty and both
// regions' programmable capacity within tolerance of the mean.
func refineRegions(t *Topology, regionOf []int32, k int, tol float64, passes int) {
	if passes <= 0 {
		return
	}
	n := t.NumSwitches()
	caps := make([]float64, k)
	sizes := make([]int, k)
	total := 0.0
	for id := 0; id < n; id++ {
		r := regionOf[id]
		c := t.switches[id].Capacity()
		caps[r] += c
		sizes[r]++
		total += c
	}
	mean := total / float64(k)
	lo, hi := mean*(1-tol), mean*(1+tol)
	edgeCount := make(map[int32]int, 8)
	for pass := 0; pass < passes; pass++ {
		moved := false
		for id := 0; id < n; id++ {
			a := regionOf[id]
			if sizes[a] <= 1 {
				continue
			}
			for r := range edgeCount {
				delete(edgeCount, r)
			}
			boundary := false
			for _, e := range t.adj[id] {
				r := regionOf[e.to]
				edgeCount[r]++
				if r != a {
					boundary = true
				}
			}
			if !boundary {
				continue
			}
			// Best target: most cut reduction, ties to lowest region.
			bestR := int32(-1)
			bestDelta := 0 // cut delta = edges kept in a − edges gained in b; must go negative
			for r := int32(0); r < int32(k); r++ {
				if r == a || edgeCount[r] == 0 {
					continue
				}
				delta := edgeCount[a] - edgeCount[r]
				if delta < bestDelta {
					bestDelta = delta
					bestR = r
				}
			}
			if bestR < 0 {
				continue
			}
			c := t.switches[id].Capacity()
			if c > 0 && (caps[a]-c < lo || caps[bestR]+c > hi) {
				continue
			}
			if !regionConnectedWithout(t, regionOf, a, SwitchID(id)) {
				continue
			}
			regionOf[id] = bestR
			caps[a] -= c
			caps[bestR] += c
			sizes[a]--
			sizes[bestR]++
			moved = true
		}
		if !moved {
			break
		}
	}
}

// swapRefineRegions runs bounded Kernighan–Lin-style swap sweeps over
// the boundary links (link-insertion order, so the pass is
// deterministic in (t, regionOf)): for a cut link (a, b) the two
// endpoint switches trade regions when the classic KL gain
//
//	gain = D(a) + D(b) − 2·c(a, b)
//
// is strictly positive, where D(x) counts x's links into the opposite
// region minus links into its own and c(a, b) counts the parallel
// links between the pair. Unlike the single-move refinement a swap is
// capacity-symmetric up to the difference of the two switches, so it
// can reduce the cut where every individual move is balance-blocked.
// Both regions must stay connected and inside [mean·(1−tol),
// mean·(1+tol)] after the swap.
func swapRefineRegions(t *Topology, regionOf []int32, k int, tol float64, passes int) {
	n := t.NumSwitches()
	caps := make([]float64, k)
	total := 0.0
	for id := 0; id < n; id++ {
		c := t.switches[id].Capacity()
		caps[regionOf[id]] += c
		total += c
	}
	mean := total / float64(k)
	lo, hi := mean*(1-tol), mean*(1+tol)
	for pass := 0; pass < passes; pass++ {
		swapped := false
		for _, l := range t.links {
			a, b := l.A, l.B
			ra, rb := regionOf[a], regionOf[b]
			if ra == rb {
				continue
			}
			da := 0
			for _, e := range t.adj[a] {
				switch regionOf[e.to] {
				case rb:
					da++
				case ra:
					da--
				}
			}
			db, cab := 0, 0
			for _, e := range t.adj[b] {
				if e.to == a {
					cab++
				}
				switch regionOf[e.to] {
				case ra:
					db++
				case rb:
					db--
				}
			}
			if da+db-2*cab <= 0 {
				continue
			}
			ca, cb := t.switches[a].Capacity(), t.switches[b].Capacity()
			na, nb := caps[ra]-ca+cb, caps[rb]-cb+ca
			if (ca != cb) && (na < lo || na > hi || nb < lo || nb > hi) {
				continue
			}
			// Tentatively apply, verify both regions stay connected.
			regionOf[a], regionOf[b] = rb, ra
			if !regionConnectedWithout(t, regionOf, ra, SwitchID(-1)) ||
				!regionConnectedWithout(t, regionOf, rb, SwitchID(-1)) {
				regionOf[a], regionOf[b] = ra, rb
				continue
			}
			caps[ra], caps[rb] = na, nb
			swapped = true
		}
		if !swapped {
			break
		}
	}
}

// regionConnectedWithout reports whether region r stays one connected
// component after removing the switch ex.
func regionConnectedWithout(t *Topology, regionOf []int32, r int32, ex SwitchID) bool {
	start := SwitchID(-1)
	count := 0
	for id := 0; id < t.NumSwitches(); id++ {
		if regionOf[id] == r && SwitchID(id) != ex {
			count++
			if start < 0 {
				start = SwitchID(id)
			}
		}
	}
	if count == 0 {
		return false
	}
	seen := map[SwitchID]bool{start: true}
	stack := []SwitchID{start}
	reached := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range t.adj[u] {
			if e.to == ex || seen[e.to] || regionOf[e.to] != r {
				continue
			}
			seen[e.to] = true
			reached++
			stack = append(stack, e.to)
		}
	}
	return reached == count
}

// NumRegions returns k.
func (p *Partition) NumRegions() int { return len(p.regions) }

// Seed returns the seed the partition was grown from.
func (p *Partition) Seed() int64 { return p.seed }

// Topology returns the partitioned topology.
func (p *Partition) Topology() *Topology { return p.topo }

// Region returns region r's switch IDs in ascending order (a copy).
func (p *Partition) Region(r int) []SwitchID {
	return append([]SwitchID(nil), p.regions[r]...)
}

// Regions returns all regions (copies), indexed by region.
func (p *Partition) Regions() [][]SwitchID {
	out := make([][]SwitchID, len(p.regions))
	for r := range p.regions {
		out[r] = p.Region(r)
	}
	return out
}

// RegionOf returns the region index hosting the switch, or -1 for an
// unknown ID.
func (p *Partition) RegionOf(id SwitchID) int {
	if int(id) < 0 || int(id) >= len(p.regionOf) {
		return -1
	}
	return int(p.regionOf[id])
}

// RegionCapacity returns region r's total programmable stage capacity
// (Σ C_stage·C_res over its programmable switches).
func (p *Partition) RegionCapacity(r int) float64 {
	var c float64
	for _, id := range p.regions[r] {
		c += p.topo.switches[id].Capacity()
	}
	return c
}

// BoundaryLinks returns the links whose endpoints lie in different
// regions, in link-insertion order.
func (p *Partition) BoundaryLinks() []Link {
	var out []Link
	for _, l := range p.topo.links {
		if p.regionOf[l.A] != p.regionOf[l.B] {
			out = append(out, l)
		}
	}
	return out
}

// AdjacentRegions returns the distinct unordered region pairs joined by
// at least one boundary link, sorted lexicographically. This is the
// peer schedule the boundary-exchange rounds iterate.
func (p *Partition) AdjacentRegions() [][2]int {
	seen := map[[2]int]bool{}
	for _, l := range p.BoundaryLinks() {
		a, b := int(p.regionOf[l.A]), int(p.regionOf[l.B])
		if a > b {
			a, b = b, a
		}
		seen[[2]int{a, b}] = true
	}
	out := make([][2]int, 0, len(seen))
	for pr := range seen {
		out = append(out, pr)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i][0] < out[j][0] || (out[i][0] == out[j][0] && out[i][1] < out[j][1])
	})
	return out
}

// SubTopology carves region r out of the topology via Subgraph. The
// returned slice maps local switch IDs back to global ones (it is the
// region's sorted member list). The sub-topology is connected by the
// partition invariant and its path cache is cold and region-local.
func (p *Partition) SubTopology(r int) (*Topology, []SwitchID, error) {
	if r < 0 || r >= len(p.regions) {
		return nil, nil, fmt.Errorf("network: partition has no region %d", r)
	}
	members := p.Region(r)
	sub, err := p.topo.Subgraph(fmt.Sprintf("%s/region%d", p.topo.Name, r), members)
	if err != nil {
		return nil, nil, err
	}
	return sub, members, nil
}

// Validate checks the partition invariants: every switch in exactly one
// region, no empty regions, every region connected within itself.
func (p *Partition) Validate() error {
	seen := make([]bool, p.topo.NumSwitches())
	for r, ids := range p.regions {
		if len(ids) == 0 {
			return fmt.Errorf("network: partition region %d is empty", r)
		}
		for _, id := range ids {
			if !p.topo.valid(id) {
				return fmt.Errorf("network: partition region %d references unknown switch %d", r, id)
			}
			if seen[id] {
				return fmt.Errorf("network: switch %d appears in multiple regions", id)
			}
			seen[id] = true
			if p.RegionOf(id) != r {
				return fmt.Errorf("network: switch %d region index disagrees with member list", id)
			}
		}
		if !p.regionConnected(int32(r)) {
			return fmt.Errorf("network: partition region %d is not connected", r)
		}
	}
	for id, ok := range seen {
		if !ok {
			return fmt.Errorf("network: switch %d is not covered by any region", id)
		}
	}
	return nil
}

// regionConnected reports whether region r induces one component.
func (p *Partition) regionConnected(r int32) bool {
	return regionConnectedWithout(p.topo, p.regionOf, r, SwitchID(-1))
}

// Format renders the partition as its canonical text form:
//
//	# hermes partition v1
//	topology <name>
//	regions <k>
//	seed <seed>
//	region <r>: <id> <id> ...
//
// ParsePartition round-trips it. Region member lists are sorted, so
// equal partitions always render identically.
func (p *Partition) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# hermes partition v1\n")
	fmt.Fprintf(&b, "topology %s\n", p.topo.Name)
	fmt.Fprintf(&b, "regions %d\n", len(p.regions))
	fmt.Fprintf(&b, "seed %d\n", p.seed)
	for r, ids := range p.regions {
		fmt.Fprintf(&b, "region %d:", r)
		for _, id := range ids {
			fmt.Fprintf(&b, " %d", id)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ParsePartition reads the text form produced by Format back into a
// validated Partition over t. The topology name must match t and the
// region lists must satisfy Validate.
func ParsePartition(text string, t *Topology) (*Partition, error) {
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	p := &Partition{topo: t, regionOf: make([]int32, t.NumSwitches())}
	for i := range p.regionOf {
		p.regionOf[i] = -1
	}
	declared := -1
	sawTopology := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case strings.HasPrefix(line, "topology "):
			if sawTopology {
				return nil, fmt.Errorf("network: duplicate topology line %q", line)
			}
			sawTopology = true
			name := strings.TrimSpace(strings.TrimPrefix(line, "topology "))
			if name != t.Name {
				return nil, fmt.Errorf("network: partition is for topology %q, not %q", name, t.Name)
			}
		case strings.HasPrefix(line, "regions "):
			if declared >= 0 {
				return nil, fmt.Errorf("network: duplicate regions line %q", line)
			}
			v, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "regions ")))
			if err != nil || v < 1 {
				return nil, fmt.Errorf("network: bad regions line %q", line)
			}
			declared = v
		case strings.HasPrefix(line, "seed "):
			v, err := strconv.ParseInt(strings.TrimSpace(strings.TrimPrefix(line, "seed ")), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("network: bad seed line %q: %v", line, err)
			}
			p.seed = v
		case strings.HasPrefix(line, "region "):
			rest := strings.TrimPrefix(line, "region ")
			colon := strings.IndexByte(rest, ':')
			if colon < 0 {
				return nil, fmt.Errorf("network: bad region line %q", line)
			}
			r, err := strconv.Atoi(strings.TrimSpace(rest[:colon]))
			if err != nil || r != len(p.regions) {
				return nil, fmt.Errorf("network: region lines must be dense and ordered, got %q", line)
			}
			var ids []SwitchID
			for _, f := range strings.Fields(rest[colon+1:]) {
				v, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("network: bad switch ID %q in region %d", f, r)
				}
				id := SwitchID(v)
				if !t.valid(id) {
					return nil, fmt.Errorf("network: region %d references unknown switch %d", r, v)
				}
				if p.regionOf[id] >= 0 {
					return nil, fmt.Errorf("network: switch %d appears in multiple regions", v)
				}
				p.regionOf[id] = int32(r)
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			p.regions = append(p.regions, ids)
		default:
			return nil, fmt.Errorf("network: unrecognized partition line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawTopology {
		return nil, fmt.Errorf("network: partition text missing topology line")
	}
	if declared >= 0 && declared != len(p.regions) {
		return nil, fmt.Errorf("network: header declares %d regions, found %d", declared, len(p.regions))
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
