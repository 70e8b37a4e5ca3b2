package network

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

func pathsEqual(a, b Path) bool {
	return a.Latency == b.Latency && reflect.DeepEqual(a.Switches, b.Switches)
}

func TestOracleHitMissAccounting(t *testing.T) {
	tp := diamond(t)
	if s := tp.PathCacheStats(); s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("fresh topology stats = %+v, want zero", s)
	}
	if _, err := tp.ShortestPath(0, 4); err != nil {
		t.Fatal(err)
	}
	s := tp.PathCacheStats()
	if s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("after first query stats = %+v, want 1 miss", s)
	}
	// Same source, different destination: served by the same SSSP tree.
	if _, err := tp.ShortestPath(0, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := tp.ShortestPath(0, 4); err != nil {
		t.Fatal(err)
	}
	s = tp.PathCacheStats()
	if s.Misses != 1 || s.Hits != 2 {
		t.Fatalf("after repeat queries stats = %+v, want 1 miss / 2 hits", s)
	}
}

func TestOracleInvalidation(t *testing.T) {
	tp := diamond(t)
	p1, err := tp.ShortestPath(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	// 0-1-3 costs 2ms in links; a direct 0-3 link at 100µs must win,
	// which only happens if AddLink drops the cached tree.
	if err := tp.AddLink(0, 3, 100*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if s := tp.PathCacheStats(); s.Invalidations == 0 {
		t.Fatal("AddLink did not invalidate the cache")
	}
	p2, err := tp.ShortestPath(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Switches) != 2 || p2.Latency >= p1.Latency {
		t.Fatalf("post-AddLink path = %v (was %v), want direct 0-3", p2, p1)
	}

	// AddSwitch likewise invalidates (the new switch is reachable only
	// if fresh trees are computed).
	before := tp.PathCacheStats().Invalidations
	id := tp.AddSwitch(Switch{Programmable: true, Stages: 12, StageCapacity: 1, TransitLatency: time.Microsecond})
	if tp.PathCacheStats().Invalidations == before {
		t.Fatal("AddSwitch did not invalidate the cache")
	}
	if err := tp.AddLink(4, id, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := tp.ShortestPath(0, id); err != nil {
		t.Fatalf("path to new switch: %v", err)
	}
}

func TestOracleCloneIndependence(t *testing.T) {
	tp := diamond(t)
	if _, err := tp.ShortestPath(0, 4); err != nil {
		t.Fatal(err)
	}
	cl := tp.Clone()
	if s := cl.PathCacheStats(); s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("clone inherited cache stats %+v, want fresh", s)
	}
	// Mutating the clone must not disturb the original's cache.
	if err := cl.AddLink(0, 3, time.Microsecond); err != nil {
		t.Fatal(err)
	}
	p, err := tp.ShortestPath(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := []SwitchID{0, 1, 3}; !reflect.DeepEqual(p.Switches, want) {
		t.Fatalf("original path changed to %v after clone mutation", p.Switches)
	}
	cp, err := cl.ShortestPath(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Switches) != 2 {
		t.Fatalf("clone path = %v, want direct shortcut", cp.Switches)
	}
}

// TestOracleMatchesUncached checks every cached answer against the
// uncached Dijkstra the oracle replaced.
func TestOracleMatchesUncached(t *testing.T) {
	tp, err := RandomWAN("wan", 30, 60, TofinoSpec(), 7)
	if err != nil {
		t.Fatal(err)
	}
	n := SwitchID(tp.NumSwitches())
	for src := SwitchID(0); src < n; src++ {
		for dst := SwitchID(0); dst < n; dst++ {
			if src == dst {
				continue
			}
			got, gerr := tp.ShortestPath(src, dst)
			want, werr := tp.shortestPathAvoiding(src, dst, nil, nil)
			if (gerr != nil) != (werr != nil) {
				t.Fatalf("%d->%d: cached err %v, uncached err %v", src, dst, gerr, werr)
			}
			if gerr == nil && got.Latency != want.Latency {
				t.Fatalf("%d->%d: cached latency %v, uncached %v", src, dst, got.Latency, want.Latency)
			}
		}
	}
}

func TestOracleKShortestPrefix(t *testing.T) {
	tp := diamond(t)
	p4, err := tp.KShortestPaths(0, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := tp.KShortestPaths(0, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p2) > len(p4) {
		t.Fatalf("k=2 returned %d paths, k=4 returned %d", len(p2), len(p4))
	}
	for i := range p2 {
		if !pathsEqual(p2[i], p4[i]) {
			t.Fatalf("path %d differs between k=2 and k=4: %v vs %v", i, p2[i], p4[i])
		}
	}
	// Returned slices are defensive copies: corrupting one must not leak
	// into later queries.
	p2[0].Switches[0] = 99
	again, err := tp.KShortestPaths(0, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if again[0].Switches[0] != 0 {
		t.Fatal("cache returned aliased path slice")
	}
}

func TestOracleNearestProgrammableCached(t *testing.T) {
	tp := diamond(t)
	first, err := tp.NearestProgrammable(0, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := tp.NearestProgrammable(0, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached NearestProgrammable differs: %v vs %v", first, second)
	}
	limited, err := tp.NearestProgrammable(0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(limited, first[:2]) {
		t.Fatalf("limit=2 = %v, want prefix of %v", limited, first)
	}
}

// TestOracleConcurrentReaders hammers one topology from many
// goroutines; run with -race this doubles as the data-race check for
// the read path.
func TestOracleConcurrentReaders(t *testing.T) {
	tp, err := RandomWAN("wan", 20, 40, TofinoSpec(), 3)
	if err != nil {
		t.Fatal(err)
	}
	n := SwitchID(tp.NumSwitches())
	ref, err := tp.ShortestPath(0, n-1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				src := SwitchID((w + i) % int(n))
				dst := SwitchID((w * 7) % int(n))
				if src != dst {
					if _, err := tp.ShortestPath(src, dst); err != nil {
						t.Errorf("ShortestPath(%d,%d): %v", src, dst, err)
						return
					}
				}
				if _, err := tp.KShortestPaths(0, n-1, 1+i%3); err != nil {
					t.Errorf("KShortestPaths: %v", err)
					return
				}
				if _, err := tp.NearestProgrammable(src, 4, 0); err != nil {
					t.Errorf("NearestProgrammable: %v", err)
					return
				}
				got, err := tp.ShortestPath(0, n-1)
				if err != nil || !pathsEqual(got, ref) {
					t.Errorf("concurrent ShortestPath(0,%d) = %v, %v; want %v", n-1, got, err, ref)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestChainLatency(t *testing.T) {
	tp := diamond(t)
	lat, err := tp.ChainLatency([]SwitchID{0, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	a, err := tp.ShortestPath(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tp.ShortestPath(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if want := a.Latency + b.Latency; lat != want {
		t.Fatalf("ChainLatency = %v, want %v", lat, want)
	}
	if _, err := tp.ChainLatency([]SwitchID{0}); err != nil {
		t.Fatalf("single-element chain: %v", err)
	}
}

// shortestPathAvoiding is an O(V²) linear-scan Dijkstra with an early
// exit at dst, the reference for the heap Dijkstra (ssspScratch.run):
// unbanned for the path oracle's trees, banned for Yen's spur search.
// banned switches are keyed by ID; banned links by index.
func (t *Topology) shortestPathAvoiding(src, dst SwitchID, bannedSw map[SwitchID]bool, bannedLink map[int]bool) (Path, error) {
	const inf = math.MaxInt64
	n := len(t.switches)
	dist := make([]int64, n)
	prev := make([]SwitchID, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = inf
		prev[i] = -1
	}
	if bannedSw[src] || bannedSw[dst] {
		return Path{}, fmt.Errorf("network: endpoints banned")
	}
	if t.downSw[src] || t.downSw[dst] {
		return Path{}, fmt.Errorf("network: endpoint switch down")
	}
	dist[src] = int64(t.switches[src].TransitLatency)
	// The ascending scan with a strict < settles the smallest ID among
	// equal distances: the tie-break the heap's (dist, id) order copies.
	for {
		u := SwitchID(-1)
		best := int64(inf)
		for i := 0; i < n; i++ {
			if !done[i] && dist[i] < best {
				best = dist[i]
				u = SwitchID(i)
			}
		}
		if u < 0 {
			break
		}
		if u == dst {
			break
		}
		done[u] = true
		for _, e := range t.adj[u] {
			if done[e.to] || bannedSw[e.to] || bannedLink[e.link] || t.downSw[e.to] || t.downLink[e.link] {
				continue
			}
			alt := dist[u] + int64(t.links[e.link].Latency) + int64(t.switches[e.to].TransitLatency)
			if alt < dist[e.to] {
				dist[e.to] = alt
				prev[e.to] = u
			}
		}
	}
	if dist[dst] == inf {
		return Path{}, fmt.Errorf("network: no path from %d to %d", src, dst)
	}
	var seq []SwitchID
	for at := dst; at != -1; at = prev[at] {
		seq = append(seq, at)
		if at == src {
			break
		}
	}
	// Reverse.
	for i, j := 0, len(seq)-1; i < j; i, j = i+1, j-1 {
		seq[i], seq[j] = seq[j], seq[i]
	}
	if seq[0] != src {
		return Path{}, fmt.Errorf("network: path reconstruction failed for %d->%d", src, dst)
	}
	return Path{Switches: seq, Latency: time.Duration(dist[dst])}, nil
}

// yenKShortestRef is Yen's loop with shortestPathAvoiding as the spur
// search, the reference for yenKShortest.
func (t *Topology) yenKShortestRef(src, dst SwitchID, k int) (_ []Path, exhausted bool, _ error) {
	first, err := t.ShortestPath(src, dst)
	if err != nil {
		return nil, false, err
	}
	paths := []Path{first}
	var candidates []Path

	for len(paths) < k {
		last := paths[len(paths)-1]
		// For each spur node in the previous shortest path.
		for i := 0; i < len(last.Switches)-1; i++ {
			spur := last.Switches[i]
			root := last.Switches[:i+1]

			bannedLink := make(map[int]bool)
			bannedSw := make(map[SwitchID]bool)
			for _, p := range paths {
				if sharesPrefix(p.Switches, root) && len(p.Switches) > i+1 {
					if li, ok := t.linkIndex(p.Switches[i], p.Switches[i+1]); ok {
						bannedLink[li] = true
					}
				}
			}
			for _, s := range root[:len(root)-1] {
				bannedSw[s] = true
			}

			spurPath, err := t.shortestPathAvoiding(spur, dst, bannedSw, bannedLink)
			if err != nil {
				continue
			}
			total := append(append([]SwitchID(nil), root[:len(root)-1]...), spurPath.Switches...)
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

// TestKShortestPathsMatchesReferenceYen holds Yen's heap spur search to
// the linear-scan reference: the same paths, latencies and exhausted
// flag on Table III 1–10 and composite:10, for seeded random pairs and
// k = 1..6, with and without a down switch and a down link on the
// pairs' shortest paths.
func TestKShortestPathsMatchesReferenceYen(t *testing.T) {
	type named struct {
		name  string
		topo  *Topology
		pairs int
	}
	var topos []named
	for i := 1; i <= 10; i++ {
		tp, err := TableIII(i, TofinoSpec())
		if err != nil {
			t.Fatal(err)
		}
		topos = append(topos, named{fmt.Sprintf("table3:%d", i), tp, 8})
	}
	comp, err := CompositeWAN(10, TofinoSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	topos = append(topos, named{"composite:10", comp, 3})

	exhausted, changed := 0, 0
	for ti, c := range topos {
		rng := rand.New(rand.NewSource(int64(100 + ti)))
		n := c.topo.NumSwitches()
		var pairs [][2]SwitchID
		for len(pairs) < c.pairs {
			src, dst := SwitchID(rng.Intn(n)), SwitchID(rng.Intn(n))
			if src != dst {
				pairs = append(pairs, [2]SwitchID{src, dst})
			}
		}
		// The faulted copy downs a transit switch of the first pair's
		// shortest path and the first link of the second pair's.
		faulted := c.topo.Clone()
		if p, err := c.topo.ShortestPath(pairs[0][0], pairs[0][1]); err == nil && len(p.Switches) > 2 {
			if err := faulted.SetSwitchDown(p.Switches[1]); err != nil {
				t.Fatal(err)
			}
		} else {
			t.Fatalf("%s: first pair %v has no transit switch", c.name, pairs[0])
		}
		if p, err := c.topo.ShortestPath(pairs[1][0], pairs[1][1]); err == nil && len(p.Switches) > 1 {
			if err := faulted.SetLinkDown(p.Switches[0], p.Switches[1]); err != nil {
				t.Fatal(err)
			}
		} else {
			t.Fatalf("%s: second pair %v has no link", c.name, pairs[1])
		}
		if len(faulted.DownSwitches()) != 1 || len(faulted.downLink) != 1 {
			t.Fatalf("%s: faulted copy has %v down switches, %d down links", c.name, faulted.DownSwitches(), len(faulted.downLink))
		}

		for _, tp := range []*Topology{c.topo, faulted} {
			for _, pr := range pairs {
				for k := 1; k <= 6; k++ {
					want, wantEx, werr := tp.yenKShortestRef(pr[0], pr[1], k)
					got, gotEx, gerr := tp.yenKShortest(pr[0], pr[1], k)
					served, serr := tp.KShortestPaths(pr[0], pr[1], k)
					where := fmt.Sprintf("%s faults=%v %d->%d k=%d", c.name, tp.HasFaults(), pr[0], pr[1], k)
					if (werr == nil) != (gerr == nil) || (werr == nil) != (serr == nil) {
						t.Fatalf("%s: errors: reference %v, spur search %v, KShortestPaths %v", where, werr, gerr, serr)
					}
					if !reflect.DeepEqual(got, want) || gotEx != wantEx {
						t.Fatalf("%s: spur search %v (exhausted %v), reference %v (exhausted %v)", where, got, gotEx, want, wantEx)
					}
					if werr == nil && !reflect.DeepEqual(served, want) {
						t.Fatalf("%s: KShortestPaths %v, reference %v", where, served, want)
					}
					if wantEx {
						exhausted++
					}
					if tp == faulted {
						if clean, _, _ := c.topo.yenKShortest(pr[0], pr[1], k); !reflect.DeepEqual(clean, want) {
							changed++
						}
					}
				}
			}
		}
	}
	// The sweep must reach exhausted lists and paths the faults reroute.
	if exhausted == 0 || changed == 0 {
		t.Fatalf("%d exhausted cases, %d cases changed by faults: want both > 0", exhausted, changed)
	}
	t.Logf("%d exhausted cases, %d cases changed by faults", exhausted, changed)
}
