// Traffic matrices: seeded end-to-end demand models over a topology
// (ROADMAP item 3; DESIGN.md §13). The paper's A_max objective treats
// every switch pair alike, but the run-time cost of inter-switch
// coordination is A(u,v) bytes piggybacked on every packet that
// actually crosses (u,v): a plan can be A_max-optimal and still route
// its heaviest headers through an elephant-flow hot spot. TrafficMatrix
// captures where packets flow — a list of (src, dst, rate) demands —
// and PairRates projects the demands onto ordered switch pairs along
// shortest paths, which the placement layer compiles into the weighted
// objective min Σ w(u,v)·A(u,v) (and the weighted-max variant).
// RatesAmong is the same projection onto a few hosts' pairs only, for
// readers that weigh a handful of pairs on a large topology.
//
// Everything is deterministic in (topology, model, seed), and the text
// form round-trips through Format/ParseTraffic so a matrix can be
// saved, diffed, and fed back via `hermes -traffic @file`.
package network

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Traffic model names accepted by GenerateTraffic and the
// `-traffic=<model:seed>` CLI spelling.
const (
	// TrafficUniform spreads one unit of demand over every sampled
	// ordered pair — the null model (weighted ≈ structural objective).
	TrafficUniform = "uniform"
	// TrafficGravity draws pair demand proportional to the product of
	// the endpoints' degrees (a standard WAN gravity model) with seeded
	// jitter.
	TrafficGravity = "gravity"
	// TrafficHotspot concentrates demand on a few hot destination
	// switches (incast-style skew).
	TrafficHotspot = "hotspot"
	// TrafficElephants is the herding-elephants-style ingress pattern:
	// each source sends 95% of a heavy-tailed volume to one preferred
	// peer and load-balances the remaining 5% over a small secondary
	// set.
	TrafficElephants = "elephants"
)

// TrafficModels lists the built-in model names.
func TrafficModels() []string {
	return []string{TrafficUniform, TrafficGravity, TrafficHotspot, TrafficElephants}
}

// Demand is one end-to-end traffic entry: Rate packets/sec flowing
// from the hosts behind Src to the hosts behind Dst.
type Demand struct {
	Src, Dst SwitchID
	Rate     float64
}

// TrafficMatrix is a seeded demand set over one topology's switch ID
// space. The zero value is unusable; build one with GenerateTraffic,
// ParseTraffic, or Restrict.
type TrafficMatrix struct {
	// Topology names the topology the matrix was generated for.
	Topology string
	// Model and Seed record provenance; Model is "restricted" for
	// Restrict outputs and "custom" for hand-written files.
	Model string
	Seed  int64
	// S is the switch count of the ID space.
	S int
	// Demands is sorted by (Src, Dst) with no duplicates.
	Demands []Demand

	// pre, when non-nil, is a precomputed dense pair-rate table (S×S):
	// Restrict outputs carry these instead of demands, since their
	// compacted ID space has no routable topology.
	pre []float64

	// PairRates memo (single entry, keyed by topology pointer) and the
	// RatesAmong memo (single entry, keyed by topology pointer and host
	// list), both guarded by mu.
	mu        sync.Mutex
	memoTopo  *Topology
	memoEpoch uint64
	memoRates []float64
	among     amongMemo
}

// amongMemo is RatesAmong's single memo entry.
type amongMemo struct {
	topo  *Topology
	epoch uint64
	hosts []SwitchID
	rates []float64
}

// maxTrafficDemands caps generated demand entries so huge topologies
// sample pairs instead of enumerating all S² of them.
const maxTrafficDemands = 1 << 16

// GenerateTraffic builds the named seeded model over t.
func GenerateTraffic(t *Topology, model string, seed int64) (*TrafficMatrix, error) {
	s := t.NumSwitches()
	if s < 2 {
		return nil, fmt.Errorf("network: traffic matrix needs at least 2 switches, topology %q has %d", t.Name, s)
	}
	tm := &TrafficMatrix{Topology: t.Name, Model: model, Seed: seed, S: s}
	rng := rand.New(rand.NewSource(mixSeed(seed, model)))
	switch model {
	case TrafficUniform:
		for _, p := range samplePairs(s, rng) {
			tm.Demands = append(tm.Demands, Demand{Src: p[0], Dst: p[1], Rate: 1})
		}
	case TrafficGravity:
		mass := make([]float64, s)
		total := 0.0
		for id := 0; id < s; id++ {
			mass[id] = float64(len(t.Neighbors(SwitchID(id))) + 1)
			total += mass[id]
		}
		mean := total / float64(s)
		for _, p := range samplePairs(s, rng) {
			jitter := 0.75 + 0.5*rng.Float64()
			rate := mass[p[0]] * mass[p[1]] / (mean * mean) * jitter
			tm.Demands = append(tm.Demands, Demand{Src: p[0], Dst: p[1], Rate: rate})
		}
	case TrafficHotspot:
		hot := map[SwitchID]bool{}
		nHot := s / 16
		if nHot < 1 {
			nHot = 1
		}
		for _, id := range rng.Perm(s)[:nHot] {
			hot[SwitchID(id)] = true
		}
		for _, p := range samplePairs(s, rng) {
			rate := 1.0
			if hot[p[1]] {
				rate *= 64 // incast into the hot set
			}
			if hot[p[0]] {
				rate *= 8 // fan-out from it
			}
			tm.Demands = append(tm.Demands, Demand{Src: p[0], Dst: p[1], Rate: rate})
		}
	case TrafficElephants:
		// 95/5 preferred/secondary ingress split per source, volumes
		// drawn from a heavy-tailed (Pareto-like) distribution.
		const secondaries = 4
		for src := 0; src < s; src++ {
			vol := 1.0 / (1.0 - 0.999*rng.Float64()) // tail up to ~1000×
			peers := rng.Perm(s)
			picked := make([]SwitchID, 0, secondaries+1)
			for _, p := range peers {
				if p == src {
					continue
				}
				picked = append(picked, SwitchID(p))
				if len(picked) == secondaries+1 {
					break
				}
			}
			if len(picked) == 0 {
				continue
			}
			tm.Demands = append(tm.Demands, Demand{Src: SwitchID(src), Dst: picked[0], Rate: 0.95 * vol})
			rest := picked[1:]
			for _, dst := range rest {
				tm.Demands = append(tm.Demands, Demand{Src: SwitchID(src), Dst: dst, Rate: 0.05 * vol / float64(len(rest))})
			}
		}
	default:
		return nil, fmt.Errorf("network: unknown traffic model %q (want one of %s)", model, strings.Join(TrafficModels(), ", "))
	}
	tm.normalize()
	return tm, nil
}

// samplePairs enumerates every ordered pair when that fits under the
// demand cap, and otherwise draws a seeded sample without replacement.
func samplePairs(s int, rng *rand.Rand) [][2]SwitchID {
	if n := s * (s - 1); n <= maxTrafficDemands {
		out := make([][2]SwitchID, 0, n)
		for a := 0; a < s; a++ {
			for b := 0; b < s; b++ {
				if a != b {
					out = append(out, [2]SwitchID{SwitchID(a), SwitchID(b)})
				}
			}
		}
		return out
	}
	seen := make(map[[2]SwitchID]bool, maxTrafficDemands)
	out := make([][2]SwitchID, 0, maxTrafficDemands)
	for len(out) < maxTrafficDemands {
		a, b := SwitchID(rng.Intn(s)), SwitchID(rng.Intn(s))
		if a == b || seen[[2]SwitchID{a, b}] {
			continue
		}
		seen[[2]SwitchID{a, b}] = true
		out = append(out, [2]SwitchID{a, b})
	}
	return out
}

// normalize sorts, merges duplicate (src, dst) entries, and drops
// non-positive rates, so equal matrices always render identically.
func (tm *TrafficMatrix) normalize() {
	sort.Slice(tm.Demands, func(i, j int) bool {
		a, b := tm.Demands[i], tm.Demands[j]
		return a.Src < b.Src || (a.Src == b.Src && a.Dst < b.Dst)
	})
	out := tm.Demands[:0]
	for _, d := range tm.Demands {
		if d.Rate <= 0 || d.Src == d.Dst {
			continue
		}
		if n := len(out); n > 0 && out[n-1].Src == d.Src && out[n-1].Dst == d.Dst {
			out[n-1].Rate += d.Rate
			continue
		}
		out = append(out, d)
	}
	tm.Demands = out
}

// mixSeed folds the model name into the seed so distinct models with
// the same seed draw independent streams.
func mixSeed(seed int64, model string) int64 {
	h := uint64(seed)*0x9e3779b97f4a7c15 + 0x51_7c_c1_b7
	for _, c := range model {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return int64(h & (1<<62 - 1))
}

// Validate checks the matrix against a topology's ID space.
func (tm *TrafficMatrix) Validate(t *Topology) error {
	if tm.S != t.NumSwitches() {
		return fmt.Errorf("network: traffic matrix covers %d switches, topology %q has %d", tm.S, t.Name, t.NumSwitches())
	}
	for _, d := range tm.Demands {
		if int(d.Src) < 0 || int(d.Src) >= tm.S || int(d.Dst) < 0 || int(d.Dst) >= tm.S {
			return fmt.Errorf("network: traffic demand references unknown switch (%d -> %d)", d.Src, d.Dst)
		}
		if d.Src == d.Dst {
			return fmt.Errorf("network: traffic demand with equal endpoints (switch %d)", d.Src)
		}
		if !(d.Rate > 0) || math.IsInf(d.Rate, 0) {
			// The negated comparison also rejects NaN, which a text file
			// can smuggle in through ParseFloat.
			return fmt.Errorf("network: traffic rate %g is not a positive finite number (%d -> %d)", d.Rate, d.Src, d.Dst)
		}
	}
	return nil
}

// PairRates projects the demands onto ordered switch pairs: entry
// [u*S+v] is the aggregate packet rate of demands whose shortest path
// visits u and later v — the packets a coordination header A(u,v) can
// piggyback on. The returned slice is shared and must be treated as
// read-only; it is memoized per (topology, fault epoch).
func (tm *TrafficMatrix) PairRates(t *Topology) ([]float64, error) {
	if tm.pre != nil {
		if tm.S != t.NumSwitches() {
			return nil, fmt.Errorf("network: restricted traffic matrix covers %d switches, topology %q has %d", tm.S, t.Name, t.NumSwitches())
		}
		return tm.pre, nil
	}
	if err := tm.Validate(t); err != nil {
		return nil, err
	}
	tm.mu.Lock()
	defer tm.mu.Unlock()
	if tm.memoTopo == t && tm.memoEpoch == t.FaultEpoch() && tm.memoRates != nil {
		return tm.memoRates, nil
	}
	idx := make([]int32, tm.S)
	for u := range idx {
		idx[u] = int32(u)
	}
	rates, err := tm.project(t, idx, tm.S)
	if err != nil {
		return nil, err
	}
	tm.memoTopo, tm.memoEpoch, tm.memoRates = t, t.FaultEpoch(), rates
	return rates, nil
}

// RatesAmong is PairRates restricted to hosts: entry [i*H+j],
// H = len(hosts), is PairRates(t)[hosts[i]*S+hosts[j]] bit for bit,
// but neither the S×S table nor a path-oracle entry is built, so a
// caller that weighs a few switch pairs (the replay's coordination
// metrics) pays O(H²) memory instead of O(S²). hosts must be distinct
// switch IDs of t, in any order. The returned slice is shared and must
// be treated as read-only; it is memoized per (topology, fault epoch,
// hosts), one entry deep. A Restrict output has no demands to project
// and is rejected.
func (tm *TrafficMatrix) RatesAmong(t *Topology, hosts []SwitchID) ([]float64, error) {
	if tm.pre != nil {
		return nil, fmt.Errorf("network: restricted traffic matrix has no demand form")
	}
	if err := tm.Validate(t); err != nil {
		return nil, err
	}
	tm.mu.Lock()
	defer tm.mu.Unlock()
	m := &tm.among
	if m.topo == t && m.epoch == t.FaultEpoch() && m.rates != nil && slices.Equal(m.hosts, hosts) {
		return m.rates, nil
	}
	idx := make([]int32, tm.S)
	for u := range idx {
		idx[u] = -1
	}
	for i, u := range hosts {
		if int(u) < 0 || int(u) >= tm.S {
			return nil, fmt.Errorf("network: traffic rates among unknown switch %d", u)
		}
		if idx[u] >= 0 {
			return nil, fmt.Errorf("network: traffic rates among switch %d twice", u)
		}
		idx[u] = int32(i)
	}
	rates, err := tm.project(t, idx, len(hosts))
	if err != nil {
		return nil, err
	}
	*m = amongMemo{topo: t, epoch: t.FaultEpoch(), hosts: slices.Clone(hosts), rates: rates}
	return rates, nil
}

// project folds the demands onto an h×h table over a host index: idx[u]
// is switch u's row and column, or -1 when u is not a host. Each
// demand's shortest path is walked in demand order and adds its rate to
// every (earlier host, later host) cell it visits, so every cell sees
// the same float additions in the same order whatever the host set —
// the restricted tables are the dense table's entries bit for bit. The
// demands are sorted by Src, so one Dijkstra per distinct source runs
// on one reused scratch, with computeSSSP's (dist, id) pop order and
// strict relaxation; no tree enters the path oracle. Every demand is
// routed whether or not its path meets a host, so an unroutable demand
// fails every projection with the same error.
func (tm *TrafficMatrix) project(t *Topology, idx []int32, h int) ([]float64, error) {
	n := t.NumSwitches()
	rates := make([]float64, h*h)
	sc := ssspScratch{
		dist: make([]int64, n),
		prev: make([]SwitchID, n),
		done: make([]bool, n),
		heap: make(distHeap, 0, n),
	}
	tree := ssspTree{dist: sc.dist, prev: sc.prev}
	var seq []SwitchID
	var at []int32
	src := SwitchID(-1)
	for _, d := range tm.Demands {
		if d.Src != src {
			src = d.Src
			sc.run(t, src)
		}
		var err error
		if seq, err = tree.walk(src, d.Dst, seq[:0]); err != nil {
			return nil, fmt.Errorf("network: routing traffic demands: %w", err)
		}
		// seq runs dst → src, so at[a] precedes at[b] on the path
		// exactly when a > b.
		at = at[:0]
		for _, u := range seq {
			if k := idx[u]; k >= 0 {
				at = append(at, k)
			}
		}
		for a := 1; a < len(at); a++ {
			row := rates[int(at[a])*h:]
			for _, k := range at[:a] {
				row[k] += d.Rate
			}
		}
	}
	return rates, nil
}

// Restrict compacts the matrix onto a member subset: the result's ID
// space is the member index order (the convention of
// Partition.SubTopology and the sharded reconcile's host compaction), and
// its pair rates are the global rates between the members — transit
// demand between non-members is dropped. The result carries
// precomputed rates and cannot be formatted.
func (tm *TrafficMatrix) Restrict(t *Topology, members []SwitchID) (*TrafficMatrix, error) {
	rates, err := tm.PairRates(t)
	if err != nil {
		return nil, err
	}
	h := len(members)
	pre := make([]float64, h*h)
	for i, gi := range members {
		for j, gj := range members {
			if i != j {
				pre[i*h+j] = rates[int(gi)*tm.S+int(gj)]
			}
		}
	}
	return &TrafficMatrix{
		Topology: t.Name + "/restricted",
		Model:    "restricted",
		Seed:     tm.Seed,
		S:        h,
		pre:      pre,
	}, nil
}

// Format renders the matrix as text:
//
//	# hermes traffic v1
//	topology <name>
//	model <model>
//	seed <seed>
//	switches <S>
//	<src> <dst> <rate>
//	...
//
// ParseTraffic round-trips it (rates use the shortest exact float
// form). Restrict outputs carry only derived rates and cannot be
// formatted.
func (tm *TrafficMatrix) Format() (string, error) {
	if tm.pre != nil {
		return "", fmt.Errorf("network: restricted traffic matrix has no demand form")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# hermes traffic v1\n")
	fmt.Fprintf(&b, "topology %s\n", tm.Topology)
	fmt.Fprintf(&b, "model %s\n", tm.Model)
	fmt.Fprintf(&b, "seed %d\n", tm.Seed)
	fmt.Fprintf(&b, "switches %d\n", tm.S)
	for _, d := range tm.Demands {
		fmt.Fprintf(&b, "%d %d %s\n", d.Src, d.Dst, strconv.FormatFloat(d.Rate, 'g', -1, 64))
	}
	return b.String(), nil
}

// ParseTraffic reads the text form produced by Format back into a
// matrix validated against t. The switch count must match t; the
// topology name is advisory (a matrix may be replayed onto a
// same-shaped topology) but recorded.
func ParseTraffic(text string, t *Topology) (*TrafficMatrix, error) {
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	tm := &TrafficMatrix{Topology: t.Name, Model: "custom", S: -1}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case strings.HasPrefix(line, "topology "):
			tm.Topology = strings.TrimSpace(strings.TrimPrefix(line, "topology "))
		case strings.HasPrefix(line, "model "):
			tm.Model = strings.TrimSpace(strings.TrimPrefix(line, "model "))
		case strings.HasPrefix(line, "seed "):
			v, err := strconv.ParseInt(strings.TrimSpace(strings.TrimPrefix(line, "seed ")), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("network: bad traffic seed line %q: %v", line, err)
			}
			tm.Seed = v
		case strings.HasPrefix(line, "switches "):
			v, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "switches ")))
			if err != nil || v < 2 {
				return nil, fmt.Errorf("network: bad traffic switches line %q", line)
			}
			tm.S = v
		default:
			f := strings.Fields(line)
			if len(f) != 3 {
				return nil, fmt.Errorf("network: bad traffic demand line %q (want: src dst rate)", line)
			}
			src, err := strconv.Atoi(f[0])
			if err != nil {
				return nil, fmt.Errorf("network: bad traffic src %q: %v", f[0], err)
			}
			dst, err := strconv.Atoi(f[1])
			if err != nil {
				return nil, fmt.Errorf("network: bad traffic dst %q: %v", f[1], err)
			}
			rate, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("network: bad traffic rate %q: %v", f[2], err)
			}
			tm.Demands = append(tm.Demands, Demand{Src: SwitchID(src), Dst: SwitchID(dst), Rate: rate})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if tm.S < 0 {
		return nil, fmt.Errorf("network: traffic text is missing its switches line")
	}
	if len(tm.Demands) == 0 {
		return nil, fmt.Errorf("network: traffic text has no demand lines")
	}
	if err := tm.Validate(t); err != nil {
		return nil, err
	}
	tm.normalize()
	return tm, nil
}

// ParseTrafficSpec resolves the CLI spelling of a traffic model:
// "<model>" or "<model>:<seed>" (e.g. "gravity:7"). File loading
// (`@path`) is the caller's concern — pass the file contents to
// ParseTraffic instead.
func ParseTrafficSpec(spec string, t *Topology) (*TrafficMatrix, error) {
	model, seedStr, ok := strings.Cut(spec, ":")
	seed := int64(1)
	if ok {
		v, err := strconv.ParseInt(strings.TrimSpace(seedStr), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("network: bad traffic seed in spec %q: %v", spec, err)
		}
		seed = v
	}
	return GenerateTraffic(t, strings.TrimSpace(model), seed)
}
