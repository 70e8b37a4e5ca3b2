// Path oracle: a concurrency-safe memoization layer over the
// topology's shortest-path machinery. Every solver in placement,
// baseline, and experiments hammers the same handful of queries —
// ShortestPath between communicating pairs, KShortestPaths for route
// spreading, NearestProgrammable for Alg. 2's SELECT_SWITCHES — and
// recomputing Dijkstra/Yen from scratch at every call site dominates
// solve profiles. The oracle caches:
//
//   - one full single-source Dijkstra tree per source switch, serving
//     every ShortestPath(src, ·) query by O(path) reconstruction;
//   - Yen's k-shortest lists per (src, dst), served as prefixes for any
//     smaller k (Yen's output is prefix-stable in k);
//   - the latency-sorted programmable-candidate list per source,
//     filtered per query by maxLatency/limit.
//
// Cached answers are bit-for-bit identical to the uncached ones: the
// SSSP tree runs a heap-based Dijkstra whose (dist, id) pop order
// matches the uncached O(V²) scan's tie-break exactly (smallest
// distance, then smallest ID) with the same strict-improvement
// relaxation, so reconstructed paths match the early-exit per-pair
// variant bit for bit (see TestOracleMatchesUncached).
//
// The cache is guarded by an RWMutex, invalidated wholesale on
// AddSwitch/AddLink and on every fault-layer mutation (fault.go), and
// never shared across Clone — a clone starts cold. Returned paths are
// fresh copies; callers may keep or mutate them freely.
package network

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// CacheStats reports path-oracle effectiveness counters.
type CacheStats struct {
	// Hits and Misses count memoized-query lookups (SSSP trees, k-path
	// lists, and programmable-candidate lists combined).
	Hits, Misses uint64
	// Invalidations counts wholesale cache flushes caused by topology
	// mutation (AddSwitch / AddLink).
	Invalidations uint64
}

// ssspTree is one source's full Dijkstra tree: dist[v] is the t_p
// latency of the shortest src→v path (infDist when unreachable), and
// prev[v] its predecessor.
type ssspTree struct {
	dist []int64
	prev []SwitchID
}

// kspEntry caches Yen's algorithm output for one ordered pair.
// exhausted marks that no further loopless paths exist beyond paths,
// so the entry answers arbitrarily large k.
type kspEntry struct {
	paths     []Path
	exhausted bool
}

// progCand is one programmable switch at its shortest-path latency
// from a cached source.
type progCand struct {
	id  SwitchID
	lat time.Duration
}

// pathCache is the oracle's storage. All three maps are guarded by mu;
// the counters are atomic so read-path hits stay contention-free.
type pathCache struct {
	mu   sync.RWMutex
	sssp map[SwitchID]*ssspTree
	ksp  map[[2]SwitchID]*kspEntry
	near map[SwitchID][]progCand
	// lat is the dense S×S shortest-path latency matrix served by
	// LatencyTable; built once from the sssp trees and treated as
	// immutable until the next invalidation.
	lat []time.Duration

	hits, misses, invalidations atomic.Uint64
}

func newPathCache() *pathCache {
	return &pathCache{
		sssp: map[SwitchID]*ssspTree{},
		ksp:  map[[2]SwitchID]*kspEntry{},
		near: map[SwitchID][]progCand{},
	}
}

// invalidate drops every memoized result; called whenever the graph
// changes shape. The maps are cleared, not replaced: building a
// topology calls this once per AddSwitch/AddLink.
func (c *pathCache) invalidate() {
	if c == nil {
		return
	}
	c.mu.Lock()
	clear(c.sssp)
	clear(c.ksp)
	clear(c.near)
	c.lat = nil
	c.mu.Unlock()
	c.invalidations.Add(1)
}

// LatencyTable returns the dense shortest-path latency matrix: entry
// [src*S+dst] equals ShortestPath(src, dst).Latency (transit latencies
// of every switch on the path included), or -1 when dst is unreachable
// from src. The slice is cached until the topology mutates and must be
// treated as read-only; index-space consumers (the compiled placement
// kernels) use it to replace per-pair Dijkstra queries with one load.
func (t *Topology) LatencyTable() []time.Duration {
	n := len(t.switches)
	c := t.cache
	if c != nil {
		c.mu.RLock()
		lat := c.lat
		c.mu.RUnlock()
		if lat != nil {
			c.hits.Add(1)
			return lat
		}
		c.misses.Add(1)
	}
	lat := make([]time.Duration, n*n)
	for src := 0; src < n; src++ {
		tree := t.ssspFrom(SwitchID(src))
		row := lat[src*n : (src+1)*n]
		for dst := 0; dst < n; dst++ {
			if tree.dist[dst] == infDist {
				row[dst] = -1
			} else {
				row[dst] = time.Duration(tree.dist[dst])
			}
		}
	}
	if c != nil {
		c.mu.Lock()
		if c.lat != nil {
			lat = c.lat
		} else {
			c.lat = lat
		}
		c.mu.Unlock()
	}
	return lat
}

// PathCacheStats returns the oracle's hit/miss/invalidation counters.
func (t *Topology) PathCacheStats() CacheStats {
	if t.cache == nil {
		return CacheStats{}
	}
	return CacheStats{
		Hits:          t.cache.hits.Load(),
		Misses:        t.cache.misses.Load(),
		Invalidations: t.cache.invalidations.Load(),
	}
}

// ssspFrom returns the (possibly cached) full Dijkstra tree rooted at
// src. Concurrent callers may compute the tree redundantly on a cold
// cache; the first stored copy wins, and all copies are identical.
func (t *Topology) ssspFrom(src SwitchID) *ssspTree {
	c := t.cache
	if c == nil {
		return t.computeSSSP(src)
	}
	c.mu.RLock()
	tree, ok := c.sssp[src]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return tree
	}
	c.misses.Add(1)
	tree = t.computeSSSP(src)
	c.mu.Lock()
	if prior, exists := c.sssp[src]; exists {
		tree = prior
	} else {
		c.sssp[src] = tree
	}
	c.mu.Unlock()
	return tree
}

// computeSSSP runs a heap-based O((V+E) log V) Dijkstra. The heap is
// ordered by (dist, id), which reproduces the uncached O(V²) scan of
// shortestPathAvoiding exactly: the linear scan settles the smallest-ID
// vertex among equal distances (ascending scan, strict <), and so does
// the (dist, id) pop order; relaxation is the same strict improvement
// in the same adjacency order, so dist and prev — and therefore every
// reconstructed path — are identical. The heap form is what keeps
// 10k-switch topologies tractable (the region-sharded solver issues
// SSSP queries from every used switch when materializing routes; a
// quadratic scan per source is hours at that scale, the heap is
// seconds).
func (t *Topology) computeSSSP(src SwitchID) *ssspTree {
	n := len(t.switches)
	sc := ssspScratch{
		dist: make([]int64, n),
		prev: make([]SwitchID, n),
		done: make([]bool, n),
		heap: make(distHeap, 0, n),
	}
	sc.run(t, src)
	return &ssspTree{dist: sc.dist, prev: sc.prev}
}

// ssspScratch is one Dijkstra's working state. computeSSSP hands each
// run fresh arrays and keeps them as the tree; the traffic projection
// (traffic.go) reruns one scratch per source and keeps nothing.
type ssspScratch struct {
	dist []int64
	prev []SwitchID
	done []bool
	heap distHeap
}

// run overwrites dist and prev with the tree rooted at src.
func (sc *ssspScratch) run(t *Topology, src SwitchID) {
	dist, prev, done := sc.dist, sc.prev, sc.done
	for i := range dist {
		dist[i] = infDist
		prev[i] = -1
		done[i] = false
	}
	// A down source reaches nothing (and nothing reaches it via the
	// neighbor skip below): leave the all-unreachable tree.
	if t.downSw[src] {
		return
	}
	dist[src] = int64(t.switches[src].TransitLatency)
	h := sc.heap[:0]
	h.push(distHeapItem{dist: dist[src], id: src})
	for len(h) > 0 {
		it := h.pop()
		u := it.id
		if done[u] || it.dist > dist[u] {
			continue // stale entry superseded by a later relaxation
		}
		done[u] = true
		for _, e := range t.adj[u] {
			if done[e.to] || t.downSw[e.to] || t.downLink[e.link] {
				continue
			}
			alt := dist[u] + int64(t.links[e.link].Latency) + int64(t.switches[e.to].TransitLatency)
			if alt < dist[e.to] {
				dist[e.to] = alt
				prev[e.to] = u
				h.push(distHeapItem{dist: alt, id: e.to})
			}
		}
	}
	sc.heap = h
}

// distHeapItem is one labeled vertex in the Dijkstra frontier; stale
// duplicates are skipped on pop (lazy deletion).
type distHeapItem struct {
	dist int64
	id   SwitchID
}

// distHeap is a hand-rolled binary min-heap over (dist, id). The strict
// total order on (dist, id) is what pins the vertex-settling order to
// the legacy linear scan's tie-break; container/heap is avoided to keep
// the inner loop free of interface dispatch.
type distHeap []distHeapItem

func distHeapLess(a, b distHeapItem) bool {
	return a.dist < b.dist || (a.dist == b.dist && a.id < b.id)
}

func (h *distHeap) push(it distHeapItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !distHeapLess(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *distHeap) pop() distHeapItem {
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
		if l < n && distHeapLess(s[l], s[min]) {
			min = l
		}
		if r < n && distHeapLess(s[r], s[min]) {
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

// pathTo reconstructs the tree's src→dst path. The error messages match
// the uncached Dijkstra so callers observe identical behavior.
func (tr *ssspTree) pathTo(src, dst SwitchID) (Path, error) {
	seq, err := tr.walk(src, dst, nil)
	if err != nil {
		return Path{}, err
	}
	for i, j := 0, len(seq)-1; i < j; i, j = i+1, j-1 {
		seq[i], seq[j] = seq[j], seq[i]
	}
	return Path{Switches: seq, Latency: time.Duration(tr.dist[dst])}, nil
}

// walk appends the tree's src→dst path to buf in reverse, dst first.
func (tr *ssspTree) walk(src, dst SwitchID, buf []SwitchID) ([]SwitchID, error) {
	if tr.dist[dst] == infDist {
		return nil, fmt.Errorf("network: no path from %d to %d", src, dst)
	}
	seq := buf
	for at := dst; at != -1; at = tr.prev[at] {
		seq = append(seq, at)
		if at == src {
			break
		}
	}
	if seq[len(seq)-1] != src {
		return nil, fmt.Errorf("network: path reconstruction failed for %d->%d", src, dst)
	}
	return seq, nil
}

// programmableByLatency returns the cached latency-sorted list of
// programmable switches reachable from src (excluding src itself).
func (t *Topology) programmableByLatency(src SwitchID) []progCand {
	c := t.cache
	if c != nil {
		c.mu.RLock()
		cands, ok := c.near[src]
		c.mu.RUnlock()
		if ok {
			c.hits.Add(1)
			return cands
		}
		c.misses.Add(1)
	}
	tree := t.ssspFrom(src)
	var cands []progCand
	for _, s := range t.switches {
		if !s.Programmable || s.ID == src || t.downSw[s.ID] || tree.dist[s.ID] == infDist {
			continue
		}
		cands = append(cands, progCand{id: s.ID, lat: time.Duration(tree.dist[s.ID])})
	}
	sortProgCands(cands)
	if c != nil {
		c.mu.Lock()
		c.near[src] = cands
		c.mu.Unlock()
	}
	return cands
}

func sortProgCands(cands []progCand) {
	// Insertion-order-independent: sort by (latency, id), matching the
	// uncached NearestProgrammable tie-break.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0; j-- {
			a, b := cands[j-1], cands[j]
			if a.lat < b.lat || (a.lat == b.lat && a.id < b.id) {
				break
			}
			cands[j-1], cands[j] = b, a
		}
	}
}

// clonePath returns an independent copy of p.
func clonePath(p Path) Path {
	return Path{Switches: append([]SwitchID(nil), p.Switches...), Latency: p.Latency}
}

func clonePaths(ps []Path) []Path {
	out := make([]Path, len(ps))
	for i, p := range ps {
		out[i] = clonePath(p)
	}
	return out
}

// --- shared helpers for the hot call sites ---

// ChainLatency sums the shortest-path latency between consecutive
// entries of chain — the scoring loop shared by Alg. 2's candidate
// chains and the SPEED/MTP anchor selection. It fails when any
// consecutive pair is disconnected.
func (t *Topology) ChainLatency(chain []SwitchID) (time.Duration, error) {
	var total time.Duration
	for i := 0; i+1 < len(chain); i++ {
		p, err := t.ShortestPath(chain[i], chain[i+1])
		if err != nil {
			return 0, err
		}
		total += p.Latency
	}
	return total, nil
}

// ShortestPaths answers a batch of ordered-pair shortest-path queries
// (the per-pair route loop shared by plan construction and the ε1
// feasibility checks). The i-th result corresponds to pairs[i].
func (t *Topology) ShortestPaths(pairs [][2]SwitchID) ([]Path, error) {
	out := make([]Path, len(pairs))
	for i, pr := range pairs {
		p, err := t.ShortestPath(pr[0], pr[1])
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}
