package dataplane

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/racetest"
)

// apportionScanRef is apportion as it was before the sort: the largest
// remainder is found by a full rescan per leftover packet, the lowest
// index winning ties.
func apportionScanRef(tm *network.TrafficMatrix, packets int) []int {
	total := 0.0
	for _, d := range tm.Demands {
		total += d.Rate
	}
	counts := make([]int, len(tm.Demands))
	type rem struct {
		i int
		r float64
	}
	rems := make([]rem, len(tm.Demands))
	given := 0
	for i, d := range tm.Demands {
		exact := d.Rate / total * float64(packets)
		counts[i] = int(exact)
		given += counts[i]
		rems[i] = rem{i: i, r: exact - float64(counts[i])}
	}
	for given < packets {
		best := -1
		for j := range rems {
			if rems[j].r < 0 {
				continue
			}
			if best < 0 || rems[j].r > rems[best].r {
				best = j
			}
		}
		if best < 0 {
			break
		}
		counts[rems[best].i]++
		rems[best].r = -1
		given++
	}
	return counts
}

// TestApportionMatchesScan holds the one-sort apportion to the rescan
// on every traffic model over Table III 1 and composite:10 (65,536
// sampled demands), and on uniform rates, where every remainder ties
// and the index alone decides. The rescan costs leftover × demands,
// ~3·10⁹ steps per model at 50,000 packets on composite:10, so there
// it stops at 2,000 packets (500 under the race detector).
func TestApportionMatchesScan(t *testing.T) {
	composite, err := network.CompositeWAN(10, network.TofinoSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	all := []int{1, 7, 500, 2000, 5000, 50000, 70001}
	type tcase struct {
		tm      *network.TrafficMatrix
		packets []int
	}
	var cases []tcase
	for _, topo := range []*network.Topology{tableIII1(t, 1.0), composite} {
		for _, model := range network.TrafficModels() {
			tm, err := network.GenerateTraffic(topo, model, 3)
			if err != nil {
				t.Fatal(err)
			}
			packets := all
			if topo == composite {
				packets = all[:4]
				if racetest.Enabled() {
					packets = all[:3]
				}
			}
			cases = append(cases, tcase{tm, packets})
		}
	}
	flat := &network.TrafficMatrix{Topology: "flat", Model: "custom", S: 40}
	for i := 0; i < 1000; i++ {
		flat.Demands = append(flat.Demands, network.Demand{Src: network.SwitchID(i % 40), Dst: network.SwitchID((i + 1) % 40), Rate: 2.5})
	}
	cases = append(cases, tcase{flat, all})
	for _, c := range cases {
		for _, packets := range c.packets {
			if got, want := apportion(c.tm, packets), apportionScanRef(c.tm, packets); !slices.Equal(got, want) {
				t.Fatalf("%s/%s, %d packets: apportion differs from the scan", c.tm.Topology, c.tm.Model, packets)
			}
		}
	}
}

// TestReplayWeightedRateReproducible: identical replays of the wan30
// plan report bit-identical weighted metrics (the sum runs in RouteKey
// order, not map order), equal to the dense pair-rate table's sum over
// the same keys, and a replay asks the path oracle nothing.
func TestReplayWeightedRateReproducible(t *testing.T) {
	dep := wan30Deployment(t)
	topo := dep.Plan.Topo
	tm, err := network.GenerateTraffic(topo, network.TrafficGravity, 3)
	if err != nil {
		t.Fatal(err)
	}
	before := topo.PathCacheStats()
	first, err := ReplayTraffic(dep, tm, 500, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if after := topo.PathCacheStats(); after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("a cold replay queried the path oracle: %+v -> %+v", before, after)
	}
	for i := 1; i < 20; i++ {
		r, err := ReplayTraffic(dep, tm, 500, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(r.WeightedByteRate) != math.Float64bits(first.WeightedByteRate) ||
			math.Float64bits(r.HotPairByteRate) != math.Float64bits(first.HotPairByteRate) {
			t.Fatalf("replay %d: weighted %v / hot %v, first replay %v / %v", i,
				r.WeightedByteRate, r.HotPairByteRate, first.WeightedByteRate, first.HotPairByteRate)
		}
	}

	p, err := NewPipeline(dep, replayHeaderFields(), 0)
	if err != nil {
		t.Fatal(err)
	}
	hop := p.HopBytesPerPacket()
	keys := make([]placement.RouteKey, 0, len(hop))
	for k := range hop {
		keys = append(keys, k)
	}
	if len(keys) < 2 {
		t.Fatalf("the wan30 plan has %d coordination pairs", len(keys))
	}
	slices.SortFunc(keys, func(a, b placement.RouteKey) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	dense, err := tm.PairRates(topo)
	if err != nil {
		t.Fatal(err)
	}
	s, sum, hot := topo.NumSwitches(), 0.0, 0.0
	for _, k := range keys {
		br := dense[int(k.From)*s+int(k.To)] * float64(hop[k])
		sum += br
		hot = max(hot, br)
	}
	if math.Float64bits(sum) != math.Float64bits(first.WeightedByteRate) || hot != first.HotPairByteRate {
		t.Fatalf("replay weighted %v / hot %v, dense table %v / %v", first.WeightedByteRate, first.HotPairByteRate, sum, hot)
	}
}
