// Package network models the substrate network Hermes deploys onto
// (paper §V-A): an undirected graph G = (V_G, E_G) of switches and
// links. Each switch u carries a programmability flag P(u), a stage
// count C_stage, a per-stage resource capacity C_res, and a maximum
// transit latency t_s(u); each link carries a latency t_l(u,v).
//
// The package provides shortest-path and k-shortest-path queries (the
// path sets P(u,v) of the formulation) and deterministic topology
// generators, including the ten WAN topologies of Table III.
package network

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// SwitchID identifies a switch within a topology.
type SwitchID int

// Switch is one network node.
type Switch struct {
	// ID is the switch's index in the topology.
	ID SwitchID `json:"id"`
	// Name is a human-readable label.
	Name string `json:"name"`
	// Programmable is P(u): whether the switch can host MATs.
	Programmable bool `json:"programmable"`
	// Stages is C_stage, the number of pipeline stages (programmable
	// switches only).
	Stages int `json:"stages,omitempty"`
	// StageCapacity is C_res, the normalized per-stage resource
	// capacity (1.0 = one full stage).
	StageCapacity float64 `json:"stage_capacity,omitempty"`
	// TransitLatency is t_s(u), the maximum per-switch latency.
	TransitLatency time.Duration `json:"transit_latency"`
}

// Capacity returns the switch's total resource capacity
// C_stage · C_res, the fit test used by the greedy splitter.
func (s *Switch) Capacity() float64 {
	if !s.Programmable {
		return 0
	}
	return float64(s.Stages) * s.StageCapacity
}

// Link is one undirected edge.
type Link struct {
	A SwitchID `json:"a"`
	B SwitchID `json:"b"`
	// Latency is t_l(u,v).
	Latency time.Duration `json:"latency"`
}

// Other returns the endpoint opposite to id.
func (l Link) Other(id SwitchID) (SwitchID, bool) {
	switch id {
	case l.A:
		return l.B, true
	case l.B:
		return l.A, true
	default:
		return 0, false
	}
}

// Topology is an immutable-after-build network graph.
type Topology struct {
	// Name labels the topology for reports.
	Name string

	switches []*Switch
	links    []Link
	// adj[id] lists (neighbor, link index).
	adj [][]adjEntry
	// cache memoizes shortest-path queries (see oracle.go). It is
	// invalidated on mutation and never shared between topologies.
	cache *pathCache

	// downSw and downLink are the fault layer's state (fault.go):
	// switches and link indexes currently failed. A down element keeps
	// its struct untouched — failure is an orthogonal, healable overlay,
	// unlike a drain, which rewrites the Programmable/Stages fields.
	// nil maps mean no faults.
	downSw   map[SwitchID]bool
	downLink map[int]bool
	// faultEpoch counts fault-state mutations so derived caches keyed on
	// the topology pointer (the compiled placement instance) can detect
	// staleness without comparing the maps.
	faultEpoch uint64
}

// infDist marks an unreachable node in Dijkstra distance arrays.
const infDist = int64(math.MaxInt64)

type adjEntry struct {
	to   SwitchID
	link int
}

// Builder-style construction.

// NewTopology creates an empty topology.
func NewTopology(name string) *Topology {
	return &Topology{Name: name, cache: newPathCache()}
}

// AddSwitch appends a switch and returns its ID.
func (t *Topology) AddSwitch(s Switch) SwitchID {
	id := SwitchID(len(t.switches))
	s.ID = id
	if s.Name == "" {
		s.Name = fmt.Sprintf("s%d", id)
	}
	sw := s
	t.switches = append(t.switches, &sw)
	t.adj = append(t.adj, nil)
	t.cache.invalidate()
	return id
}

// AddLink connects two switches. Parallel links and self-loops are
// rejected.
func (t *Topology) AddLink(a, b SwitchID, latency time.Duration) error {
	if a == b {
		return fmt.Errorf("network: self-loop on switch %d", a)
	}
	if !t.valid(a) || !t.valid(b) {
		return fmt.Errorf("network: link %d-%d references unknown switch", a, b)
	}
	for _, e := range t.adj[a] {
		if e.to == b {
			return fmt.Errorf("network: duplicate link %d-%d", a, b)
		}
	}
	if latency < 0 {
		return fmt.Errorf("network: negative latency on link %d-%d", a, b)
	}
	idx := len(t.links)
	t.links = append(t.links, Link{A: a, B: b, Latency: latency})
	t.adj[a] = append(t.adj[a], adjEntry{to: b, link: idx})
	t.adj[b] = append(t.adj[b], adjEntry{to: a, link: idx})
	t.cache.invalidate()
	return nil
}

func (t *Topology) valid(id SwitchID) bool {
	return id >= 0 && int(id) < len(t.switches)
}

// NumSwitches returns Q = |V_G|.
func (t *Topology) NumSwitches() int { return len(t.switches) }

// NumLinks returns N = |E_G|.
func (t *Topology) NumLinks() int { return len(t.links) }

// Switch returns the switch with the given ID.
func (t *Topology) Switch(id SwitchID) (*Switch, error) {
	if !t.valid(id) {
		return nil, fmt.Errorf("network: unknown switch %d", id)
	}
	return t.switches[id], nil
}

// Switches returns all switches in ID order.
func (t *Topology) Switches() []*Switch {
	return append([]*Switch(nil), t.switches...)
}

// ProgrammableSwitches returns the IDs of programmable switches in
// ascending order. Switches marked down by the fault layer are excluded:
// a failed switch cannot host MATs regardless of its hardware.
func (t *Topology) ProgrammableSwitches() []SwitchID {
	var out []SwitchID
	for _, s := range t.switches {
		if s.Programmable && !t.downSw[s.ID] {
			out = append(out, s.ID)
		}
	}
	return out
}

// Links returns all links.
func (t *Topology) Links() []Link {
	return append([]Link(nil), t.links...)
}

// Neighbors returns the IDs adjacent to id, sorted.
func (t *Topology) Neighbors(id SwitchID) []SwitchID {
	if !t.valid(id) {
		return nil
	}
	out := make([]SwitchID, 0, len(t.adj[id]))
	for _, e := range t.adj[id] {
		out = append(out, e.to)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LinkBetween returns the link connecting a and b.
func (t *Topology) LinkBetween(a, b SwitchID) (Link, bool) {
	if !t.valid(a) {
		return Link{}, false
	}
	for _, e := range t.adj[a] {
		if e.to == b {
			return t.links[e.link], true
		}
	}
	return Link{}, false
}

// Connected reports whether the topology is a single connected
// component (ignoring a topology with no switches, which is connected
// vacuously). With fault state present, connectivity is judged over the
// surviving subgraph: down switches and down links are removed, and the
// remaining up switches must form one component. All switches down is
// vacuously connected.
func (t *Topology) Connected() bool {
	if len(t.switches) == 0 {
		return true
	}
	start := SwitchID(-1)
	up := 0
	for _, s := range t.switches {
		if t.downSw[s.ID] {
			continue
		}
		up++
		if start < 0 {
			start = s.ID
		}
	}
	if up == 0 {
		return true
	}
	seen := make([]bool, len(t.switches))
	stack := []SwitchID{start}
	seen[start] = true
	count := 1
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range t.adj[n] {
			if seen[e.to] || t.downSw[e.to] || t.downLink[e.link] {
				continue
			}
			seen[e.to] = true
			count++
			stack = append(stack, e.to)
		}
	}
	return count == up
}

// Path is a walk through the network: a sequence of switch IDs where
// consecutive entries are linked. Latency is t_p(p): the sum of link
// latencies plus the transit latency of every switch on the path
// (paper §V-A's t_p definition).
type Path struct {
	Switches []SwitchID
	Latency  time.Duration
}

// Contains reports whether the path visits the switch (the E(a,p)
// indicator of the formulation).
func (p Path) Contains(id SwitchID) bool {
	for _, s := range p.Switches {
		if s == id {
			return true
		}
	}
	return false
}

// Hops returns the number of links traversed.
func (p Path) Hops() int {
	if len(p.Switches) == 0 {
		return 0
	}
	return len(p.Switches) - 1
}

// pathLatency recomputes t_p(p) for a switch sequence.
func (t *Topology) pathLatency(seq []SwitchID) (time.Duration, error) {
	var total time.Duration
	for i, id := range seq {
		sw, err := t.Switch(id)
		if err != nil {
			return 0, err
		}
		total += sw.TransitLatency
		if i == 0 {
			continue
		}
		l, ok := t.LinkBetween(seq[i-1], id)
		if !ok {
			return 0, fmt.Errorf("network: no link %d-%d in path", seq[i-1], id)
		}
		total += l.Latency
	}
	return total, nil
}

// ShortestPath returns the minimum-latency simple path from src to dst
// using Dijkstra over link+switch latencies. It fails if no path
// exists. Results are served from the path oracle's per-source Dijkstra
// tree (oracle.go), so repeated queries from the same source cost only
// the path reconstruction.
func (t *Topology) ShortestPath(src, dst SwitchID) (Path, error) {
	if !t.valid(src) || !t.valid(dst) {
		return Path{}, fmt.Errorf("network: shortest path %d->%d references unknown switch", src, dst)
	}
	return t.ssspFrom(src).pathTo(src, dst)
}

// KShortestPaths returns up to k loopless shortest paths from src to
// dst in increasing latency order (Yen's algorithm). This materializes
// the path set P(u,v) used by the MILP formulation.
//
// Yen's output is prefix-stable in k, so the oracle caches the longest
// list computed per (src, dst) and serves any smaller k as a prefix; an
// exhausted entry (no further loopless paths exist) answers every k.
func (t *Topology) KShortestPaths(src, dst SwitchID, k int) ([]Path, error) {
	if k <= 0 {
		return nil, fmt.Errorf("network: k must be positive, got %d", k)
	}
	if src == dst {
		sw, err := t.Switch(src)
		if err != nil {
			return nil, err
		}
		if t.downSw[src] {
			return nil, fmt.Errorf("network: no path from %d to %d: switch down", src, dst)
		}
		return []Path{{Switches: []SwitchID{src}, Latency: sw.TransitLatency}}, nil
	}
	key := [2]SwitchID{src, dst}
	c := t.cache
	if c != nil {
		c.mu.RLock()
		ent, ok := c.ksp[key]
		c.mu.RUnlock()
		if ok && (ent.exhausted || len(ent.paths) >= k) {
			c.hits.Add(1)
			got := ent.paths
			if len(got) > k {
				got = got[:k]
			}
			return clonePaths(got), nil
		}
		c.misses.Add(1)
	}
	paths, exhausted, err := t.yenKShortest(src, dst, k)
	if err != nil {
		return nil, err
	}
	if c != nil {
		c.mu.Lock()
		if prior, ok := c.ksp[key]; !ok || len(paths) > len(prior.paths) || (exhausted && !prior.exhausted) {
			c.ksp[key] = &kspEntry{paths: clonePaths(paths), exhausted: exhausted}
		}
		c.mu.Unlock()
	}
	return paths, nil
}

// yenKShortest is the uncached Yen loop. exhausted reports that the
// loop drained every loopless candidate before reaching k paths. Each
// spur search is one heap Dijkstra on a reused scratch, with the root
// path's switches and the links the accepted paths leave the spur by
// banned.
func (t *Topology) yenKShortest(src, dst SwitchID, k int) (_ []Path, exhausted bool, _ error) {
	first, err := t.ShortestPath(src, dst)
	if err != nil {
		return nil, false, err
	}
	paths := []Path{first}
	var candidates []Path

	sc := newSSSPScratch(len(t.switches))
	tree := ssspTree{dist: sc.dist, prev: sc.prev}
	bannedSw := make([]bool, len(t.switches))
	bannedLink := make([]bool, len(t.links))
	var spurSeq []SwitchID
	for len(paths) < k {
		last := paths[len(paths)-1]
		// For each spur node in the previous shortest path.
		for i := 0; i < len(last.Switches)-1; i++ {
			spur := last.Switches[i]
			root := last.Switches[:i+1]

			clear(bannedLink)
			for _, p := range paths {
				if sharesPrefix(p.Switches, root) && len(p.Switches) > i+1 {
					if li, ok := t.linkIndex(p.Switches[i], p.Switches[i+1]); ok {
						bannedLink[li] = true
					}
				}
			}
			for _, s := range root[:i] {
				bannedSw[s] = true
			}
			sc.run(t, spur, bannedSw, bannedLink)
			for _, s := range root[:i] {
				bannedSw[s] = false
			}
			if spurSeq, err = tree.walk(spur, dst, spurSeq[:0]); err != nil {
				continue
			}
			total := make([]SwitchID, i, i+len(spurSeq))
			copy(total, root)
			for j := len(spurSeq) - 1; j >= 0; j-- { // walk runs dst → spur
				total = append(total, spurSeq[j])
			}
			lat, err := t.pathLatency(total)
			if err != nil {
				continue
			}
			cand := Path{Switches: total, Latency: lat}
			if !containsPath(paths, cand) && !containsPath(candidates, cand) {
				candidates = append(candidates, cand)
			}
		}
		if len(candidates) == 0 {
			exhausted = true
			break
		}
		sort.Slice(candidates, func(i, j int) bool { return candidates[i].Latency < candidates[j].Latency })
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths, exhausted, nil
}

func (t *Topology) linkIndex(a, b SwitchID) (int, bool) {
	if !t.valid(a) {
		return 0, false
	}
	for _, e := range t.adj[a] {
		if e.to == b {
			return e.link, true
		}
	}
	return 0, false
}

func sharesPrefix(p, prefix []SwitchID) bool {
	if len(p) < len(prefix) {
		return false
	}
	for i := range prefix {
		if p[i] != prefix[i] {
			return false
		}
	}
	return true
}

func containsPath(ps []Path, q Path) bool {
	for _, p := range ps {
		if len(p.Switches) != len(q.Switches) {
			continue
		}
		same := true
		for i := range p.Switches {
			if p.Switches[i] != q.Switches[i] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

// NearestProgrammable returns up to limit programmable switches ordered
// by shortest-path latency from src, excluding src itself, and only
// those reachable within maxLatency (inclusive). This implements the
// candidate search of Algorithm 2 line 23 (SELECT_SWITCHES).
func (t *Topology) NearestProgrammable(src SwitchID, limit int, maxLatency time.Duration) ([]SwitchID, error) {
	if !t.valid(src) {
		return nil, fmt.Errorf("network: unknown switch %d", src)
	}
	// The oracle caches the full (latency, id)-sorted candidate list per
	// source; the maxLatency filter and limit are applied per query.
	cands := t.programmableByLatency(src)
	out := make([]SwitchID, 0, len(cands))
	for _, c := range cands {
		if maxLatency > 0 && c.lat > maxLatency {
			continue
		}
		out = append(out, c.id)
	}
	if limit >= 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

// Clone returns an independent copy of the topology. Everything was
// validated when t was built, so the copy is a straight bulk copy of
// the switch, link, and adjacency storage — no per-element re-insertion
// (the replan path clones the live topology on every churn event, so
// this runs in microseconds on thousand-switch graphs, not
// milliseconds). The copy starts with a cold path cache.
func (t *Topology) Clone() *Topology {
	c := NewTopology(t.Name)
	backing := make([]Switch, len(t.switches))
	c.switches = make([]*Switch, len(t.switches))
	for i, s := range t.switches {
		backing[i] = *s
		c.switches[i] = &backing[i]
	}
	c.links = append([]Link(nil), t.links...)
	total := 0
	for _, a := range t.adj {
		total += len(a)
	}
	flat := make([]adjEntry, 0, total)
	c.adj = make([][]adjEntry, len(t.adj))
	for i, a := range t.adj {
		n := len(flat)
		flat = append(flat, a...)
		// Full-capacity slice: a later AddLink on the clone reallocates
		// instead of clobbering its neighbors' rows.
		c.adj[i] = flat[n:len(flat):len(flat)]
	}
	c.copyFaultState(t)
	return c
}

// Subgraph returns the sub-topology induced by members: switch i of the
// result is a copy of t's switch members[i] (so members doubles as the
// local→global ID mapping), and every link of t whose endpoints both
// appear in members is kept at its original latency. The fault overlay
// is restricted to the surviving switches and links. Duplicate or
// unknown members are rejected; the result may be disconnected — the
// caller decides whether that matters (Partition.SubTopology guarantees
// connected regions).
//
// Like Clone, the sub-topology starts with a cold path cache: nothing
// here queries t's oracle or touches its dense latency table, so
// carving R regions out of an S-switch topology costs O(Σ S_r + E) and
// per-region path state stays O(S_r²) at worst. The region-sharded
// solver depends on this — at 10k switches the parent's dense table
// would be ~800 MB, and must only ever exist if someone asks the parent
// for it.
func (t *Topology) Subgraph(name string, members []SwitchID) (*Topology, error) {
	sub := NewTopology(name)
	local := make(map[SwitchID]SwitchID, len(members))
	for _, gid := range members {
		if !t.valid(gid) {
			return nil, fmt.Errorf("network: subgraph %q references unknown switch %d", name, gid)
		}
		if _, dup := local[gid]; dup {
			return nil, fmt.Errorf("network: subgraph %q lists switch %d twice", name, gid)
		}
		lid := sub.AddSwitch(*t.switches[gid])
		local[gid] = lid
		if t.downSw[gid] {
			if sub.downSw == nil {
				sub.downSw = map[SwitchID]bool{}
			}
			sub.downSw[lid] = true
			sub.faultEpoch++
		}
	}
	for li, l := range t.links {
		a, oka := local[l.A]
		b, okb := local[l.B]
		if !oka || !okb {
			continue
		}
		if err := sub.AddLink(a, b, l.Latency); err != nil {
			return nil, err
		}
		if t.downLink[li] {
			if sub.downLink == nil {
				sub.downLink = map[int]bool{}
			}
			sub.downLink[sub.NumLinks()-1] = true
			sub.faultEpoch++
		}
	}
	return sub, nil
}

// Validate checks structural invariants.
func (t *Topology) Validate() error {
	for _, s := range t.switches {
		if s.Programmable {
			if s.Stages <= 0 {
				return fmt.Errorf("network: programmable switch %q has %d stages", s.Name, s.Stages)
			}
			if s.StageCapacity <= 0 {
				return fmt.Errorf("network: programmable switch %q has capacity %g", s.Name, s.StageCapacity)
			}
		}
		if s.TransitLatency < 0 {
			return fmt.Errorf("network: switch %q has negative latency", s.Name)
		}
	}
	if !t.Connected() {
		return fmt.Errorf("network: topology %q is not connected", t.Name)
	}
	return nil
}
