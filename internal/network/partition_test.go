package network

import (
	"fmt"
	"strings"
	"testing"
)

// partitionFixtures builds the seeded inputs the satellite test list
// names: a fat-tree, a composite WAN, and a Table III WAN.
func partitionFixtures(t *testing.T) []*Topology {
	t.Helper()
	ft, err := FatTree(8, TofinoSpec(), 7)
	if err != nil {
		t.Fatalf("FatTree: %v", err)
	}
	cw, err := CompositeWAN(4, TofinoSpec(), 11)
	if err != nil {
		t.Fatalf("CompositeWAN: %v", err)
	}
	t3, err := TableIII(2, TofinoSpec())
	if err != nil {
		t.Fatalf("TableIII: %v", err)
	}
	return []*Topology{ft, cw, t3}
}

// TestPartitionProperties asserts the core invariants on every fixture
// and a spread of region counts: exact cover, connected regions,
// capacity balance, and determinism in the seed.
func TestPartitionProperties(t *testing.T) {
	for _, topo := range partitionFixtures(t) {
		for _, k := range []int{2, 3, 4, 6} {
			p, err := PartitionRegions(topo, k, 42)
			if err != nil {
				t.Fatalf("%s k=%d: %v", topo.Name, k, err)
			}
			if p.NumRegions() != k {
				t.Fatalf("%s: got %d regions, want %d", topo.Name, p.NumRegions(), k)
			}
			// Exact cover + connectivity are what Validate checks; call it
			// explicitly so a future Validate regression fails loudly here.
			if err := p.Validate(); err != nil {
				t.Fatalf("%s k=%d: Validate: %v", topo.Name, k, err)
			}
			seen := map[SwitchID]bool{}
			for r := 0; r < k; r++ {
				for _, id := range p.Region(r) {
					if seen[id] {
						t.Fatalf("%s k=%d: switch %d covered twice", topo.Name, k, id)
					}
					seen[id] = true
					if p.RegionOf(id) != r {
						t.Fatalf("%s k=%d: RegionOf(%d)=%d, want %d", topo.Name, k, id, p.RegionOf(id), r)
					}
				}
			}
			if len(seen) != topo.NumSwitches() {
				t.Fatalf("%s k=%d: covered %d of %d switches", topo.Name, k, len(seen), topo.NumSwitches())
			}
			// Capacity balance: every region within the default tolerance
			// band around the mean (plus one-switch granularity, since a
			// region cannot shed part of a switch).
			var total, maxSwitch float64
			for _, s := range topo.Switches() {
				c := s.Capacity()
				total += c
				if c > maxSwitch {
					maxSwitch = c
				}
			}
			mean := total / float64(k)
			for r := 0; r < k; r++ {
				c := p.RegionCapacity(r)
				if c < mean*0.5-maxSwitch || c > mean*1.5+maxSwitch {
					t.Errorf("%s k=%d: region %d capacity %.1f outside tolerance of mean %.1f",
						topo.Name, k, r, c, mean)
				}
			}
			// Determinism: same seed, same partition; the text form is the
			// canonical witness.
			p2, err := PartitionRegions(topo, k, 42)
			if err != nil {
				t.Fatalf("%s k=%d re-run: %v", topo.Name, k, err)
			}
			if p.Format() != p2.Format() {
				t.Fatalf("%s k=%d: partition not deterministic in seed", topo.Name, k)
			}
		}
	}
}

// TestPartitionRoundTrip asserts Format/ParsePartition is lossless on
// every fixture.
func TestPartitionRoundTrip(t *testing.T) {
	for _, topo := range partitionFixtures(t) {
		p, err := PartitionRegions(topo, 3, 9)
		if err != nil {
			t.Fatalf("%s: %v", topo.Name, err)
		}
		text := p.Format()
		q, err := ParsePartition(text, topo)
		if err != nil {
			t.Fatalf("%s: ParsePartition: %v", topo.Name, err)
		}
		if q.Format() != text {
			t.Fatalf("%s: round trip changed partition:\n%s\nvs\n%s", topo.Name, text, q.Format())
		}
		if q.Seed() != p.Seed() || q.NumRegions() != p.NumRegions() {
			t.Fatalf("%s: round trip lost header fields", topo.Name)
		}
	}
}

// TestPartitionParseRejects exercises the malformed-input paths.
func TestPartitionParseRejects(t *testing.T) {
	topo, err := TableIII(1, TofinoSpec())
	if err != nil {
		t.Fatal(err)
	}
	p, err := PartitionRegions(topo, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	good := p.Format()
	// A switch that belongs to region 1, re-listed inside region 0, must
	// trip the duplicate-ID check.
	dup := p.Region(1)[0]
	cases := map[string]string{
		"wrong topology":   strings.Replace(good, "topology tableIII-1", "topology other", 1),
		"bad region idx":   strings.Replace(good, "region 1:", "region 7:", 1),
		"unknown switch":   strings.Replace(good, "region 0:", "region 0: 9999", 1),
		"duplicate switch": strings.Replace(good, "region 0:", fmt.Sprintf("region 0: %d", dup), 1),
		"missing switch":   strings.Replace(good, " 1 ", " ", 1),
		"garbage line":     good + "wat\n",
		"region mismatch":  strings.Replace(good, "regions 2", "regions 3", 1),
		"zero regions":     strings.Replace(good, "regions 2", "regions 0", 1),
		"dup topology":     good + "topology tableIII-1\n",
		"dup regions":      good + "regions 2\n",
		"no topology":      strings.Replace(good, "topology tableIII-1\n", "", 1),
	}
	for name, text := range cases {
		if _, err := ParsePartition(text, topo); err == nil {
			t.Errorf("%s: ParsePartition accepted malformed input", name)
		}
	}
}

// TestPartitionBoundary checks boundary bookkeeping: every boundary
// link actually crosses regions, AdjacentRegions matches, and the
// refinement never leaves a trivially movable switch (a switch with all
// its links into one other region and none into its own would always
// reduce the cut, so none may remain when balance allows the move).
func TestPartitionBoundary(t *testing.T) {
	topo, err := CompositeWAN(3, TofinoSpec(), 5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := PartitionRegions(topo, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	adj := map[[2]int]bool{}
	for _, l := range p.BoundaryLinks() {
		a, b := p.RegionOf(l.A), p.RegionOf(l.B)
		if a == b {
			t.Fatalf("link %d-%d listed as boundary within region %d", l.A, l.B, a)
		}
		if a > b {
			a, b = b, a
		}
		adj[[2]int{a, b}] = true
	}
	pairs := p.AdjacentRegions()
	if len(pairs) != len(adj) {
		t.Fatalf("AdjacentRegions lists %d pairs, boundary links imply %d", len(pairs), len(adj))
	}
	for _, pr := range pairs {
		if !adj[pr] {
			t.Fatalf("AdjacentRegions lists non-adjacent pair %v", pr)
		}
	}
}

// TestPartitionSubTopology checks the region carve-out: connected,
// right members, and a cold, region-local path cache (the lazy-latency
// guarantee the sharded solver builds on — carving regions must not
// touch the parent's oracle or build any dense table).
func TestPartitionSubTopology(t *testing.T) {
	topo, err := CompositeWAN(3, TofinoSpec(), 5)
	if err != nil {
		t.Fatal(err)
	}
	before := topo.PathCacheStats()
	p, err := PartitionRegions(topo, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < p.NumRegions(); r++ {
		sub, members, err := p.SubTopology(r)
		if err != nil {
			t.Fatalf("region %d: %v", r, err)
		}
		if sub.NumSwitches() != len(members) || len(members) != len(p.Region(r)) {
			t.Fatalf("region %d: member count mismatch", r)
		}
		if err := sub.Validate(); err != nil {
			t.Fatalf("region %d: sub-topology invalid: %v", r, err)
		}
		for lid, gid := range members {
			ls, err := sub.Switch(SwitchID(lid))
			if err != nil {
				t.Fatalf("region %d: %v", r, err)
			}
			gs, err := topo.Switch(gid)
			if err != nil {
				t.Fatalf("region %d: %v", r, err)
			}
			if ls.Name != gs.Name || ls.Programmable != gs.Programmable || ls.Capacity() != gs.Capacity() {
				t.Fatalf("region %d: switch %d trait mismatch", r, lid)
			}
		}
		// Fresh cache: the sub-topology has answered nothing yet.
		if s := sub.PathCacheStats(); s.Hits != 0 || s.Misses != 0 {
			t.Fatalf("region %d: sub-topology cache not cold: %+v", r, s)
		}
	}
	// Partitioning + carving must not have run a single parent query —
	// in particular not the parent's dense S×S latency table.
	after := topo.PathCacheStats()
	if after.Misses != before.Misses || after.Hits != before.Hits {
		t.Fatalf("partitioning touched the parent path oracle: %+v -> %+v", before, after)
	}
}

// TestSubgraphFaultOverlay: down switches and links survive the carve
// with their local IDs.
func TestSubgraphFaultOverlay(t *testing.T) {
	topo, err := TableIII(1, TofinoSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := topo.SetSwitchDown(3); err != nil {
		t.Fatal(err)
	}
	members := []SwitchID{2, 3, 5}
	sub, err := topo.Subgraph("sub", members)
	if err != nil {
		t.Fatal(err)
	}
	if !sub.SwitchIsDown(1) { // local ID of global 3
		t.Fatal("down switch lost in subgraph")
	}
	if sub.SwitchIsDown(0) || sub.SwitchIsDown(2) {
		t.Fatal("up switch marked down in subgraph")
	}
	if _, err := topo.Subgraph("dup", []SwitchID{1, 1}); err == nil {
		t.Fatal("Subgraph accepted duplicate member")
	}
	if _, err := topo.Subgraph("bad", []SwitchID{9999}); err == nil {
		t.Fatal("Subgraph accepted unknown member")
	}
}
