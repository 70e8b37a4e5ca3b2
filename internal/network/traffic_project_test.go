package network

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// pairRatesOracleRef is PairRates as it was before the streamed
// projection: every demand routed through the path oracle
// (ShortestPaths, one memoized SSSP tree per source) and folded into
// the dense S×S table in demand order.
func pairRatesOracleRef(tm *TrafficMatrix, t *Topology) ([]float64, error) {
	pairs := make([][2]SwitchID, len(tm.Demands))
	for i, d := range tm.Demands {
		pairs[i] = [2]SwitchID{d.Src, d.Dst}
	}
	paths, err := t.ShortestPaths(pairs)
	if err != nil {
		return nil, fmt.Errorf("network: routing traffic demands: %w", err)
	}
	s := tm.S
	rates := make([]float64, s*s)
	for di, d := range tm.Demands {
		seq := paths[di].Switches
		for i := 0; i < len(seq); i++ {
			for j := i + 1; j < len(seq); j++ {
				rates[int(seq[i])*s+int(seq[j])] += d.Rate
			}
		}
	}
	return rates, nil
}

// projectionTopos are the differential fixtures: Table III 1–10 and
// composite:10 (~700 switches, so GenerateTraffic samples its pairs).
func projectionTopos(t *testing.T) []*Topology {
	t.Helper()
	var out []*Topology
	for i := 1; i <= 10; i++ {
		tp, err := TableIII(i, TofinoSpec())
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tp)
	}
	tp, err := CompositeWAN(10, TofinoSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, tp)
}

func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestPairRatesMatchesOracleReference holds the streamed all-switches
// fold to the oracle-routed table bit for bit on every fixture and
// model, and checks it leaves the path oracle untouched.
func TestPairRatesMatchesOracleReference(t *testing.T) {
	for _, tp := range projectionTopos(t) {
		for _, model := range TrafficModels() {
			tm, err := GenerateTraffic(tp, model, 5)
			if err != nil {
				t.Fatal(err)
			}
			before := tp.PathCacheStats()
			got, err := tm.PairRates(tp)
			if err != nil {
				t.Fatalf("%s/%s: %v", tp.Name, model, err)
			}
			if after := tp.PathCacheStats(); after.Hits != before.Hits || after.Misses != before.Misses {
				t.Fatalf("%s/%s: PairRates queried the path oracle: %+v -> %+v", tp.Name, model, before, after)
			}
			want, err := pairRatesOracleRef(tm, tp)
			if err != nil {
				t.Fatal(err)
			}
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("%s/%s: cell %d = %v, oracle reference %v", tp.Name, model, i, got[i], want[i])
			}
		}
	}
}

// TestPairRatesDownSwitchError: a demand from or to a down switch fails
// the projection — dense and restricted — with the reference's error.
func TestPairRatesDownSwitchError(t *testing.T) {
	tp, err := TableIII(1, TofinoSpec())
	if err != nil {
		t.Fatal(err)
	}
	tm, err := GenerateTraffic(tp, TrafficGravity, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.SetSwitchDown(4); err != nil {
		t.Fatal(err)
	}
	_, want := pairRatesOracleRef(tm, tp)
	if want == nil {
		t.Fatal("reference routed a demand of a down switch")
	}
	_, got := tm.PairRates(tp)
	if got == nil || got.Error() != want.Error() {
		t.Fatalf("PairRates error %v, want %v", got, want)
	}
	_, got = tm.RatesAmong(tp, []SwitchID{0, 1})
	if got == nil || got.Error() != want.Error() {
		t.Fatalf("RatesAmong error %v, want %v", got, want)
	}
}

// TestRatesAmongMatchesDense holds every restricted table to the dense
// table's entries bit for bit: a seeded 40-host subset in arbitrary
// order, a single host and the empty set, on every fixture and model.
func TestRatesAmongMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tp := range projectionTopos(t) {
		s := tp.NumSwitches()
		for _, model := range TrafficModels() {
			tm, err := GenerateTraffic(tp, model, 9)
			if err != nil {
				t.Fatal(err)
			}
			dense, err := tm.PairRates(tp)
			if err != nil {
				t.Fatal(err)
			}
			sets := [][]SwitchID{nil, {SwitchID(rng.Intn(s))}}
			var hosts []SwitchID
			for _, u := range rng.Perm(s)[:min(40, s)] {
				hosts = append(hosts, SwitchID(u))
			}
			sets = append(sets, hosts)
			for _, hosts := range sets {
				before := tp.PathCacheStats()
				got, err := tm.RatesAmong(tp, hosts)
				if err != nil {
					t.Fatalf("%s/%s: %v", tp.Name, model, err)
				}
				if after := tp.PathCacheStats(); after.Hits != before.Hits || after.Misses != before.Misses {
					t.Fatalf("%s/%s: RatesAmong queried the path oracle", tp.Name, model)
				}
				h := len(hosts)
				if len(got) != h*h {
					t.Fatalf("%s/%s: %d cells for %d hosts", tp.Name, model, len(got), h)
				}
				for i, a := range hosts {
					for j, b := range hosts {
						if g, w := got[i*h+j], dense[int(a)*s+int(b)]; math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("%s/%s: rates among %v [%d->%d] = %v, dense %v", tp.Name, model, hosts, a, b, g, w)
						}
					}
				}
			}
		}
	}
}

// TestRatesAmongMemo: a repeat call returns the same table without
// allocating; another host list, or a fault epoch move, recomputes.
func TestRatesAmongMemo(t *testing.T) {
	tp := wanTopo(t)
	tm, err := GenerateTraffic(tp, TrafficGravity, 2)
	if err != nil {
		t.Fatal(err)
	}
	hosts := []SwitchID{3, 0, 17}
	a, err := tm.RatesAmong(tp, hosts)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := tm.RatesAmong(tp, []SwitchID{3, 0, 17}); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("RatesAmong memo hit allocates %.0f times", allocs)
	}
	b, _ := tm.RatesAmong(tp, hosts)
	if &a[0] != &b[0] {
		t.Fatal("repeated RatesAmong recomputed the table")
	}
	c, _ := tm.RatesAmong(tp, hosts[:2])
	if len(c) != 4 {
		t.Fatalf("RatesAmong answered %d cells for 2 hosts from the memo", len(c))
	}
	if a, err = tm.RatesAmong(tp, hosts); err != nil {
		t.Fatal(err)
	}
	if err := tp.SetSwitchDown(20); err != nil {
		t.Fatal(err)
	}
	if err := tp.SetSwitchUp(20); err != nil {
		t.Fatal(err)
	}
	d, err := tm.RatesAmong(tp, hosts)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] == &d[0] || sameBits(a, d) >= 0 {
		t.Fatal("RatesAmong after a fault epoch move: memo served, or the healed rates differ")
	}
	for _, bad := range [][]SwitchID{{1, 1}, {-1}, {SwitchID(tp.NumSwitches())}} {
		if _, err := tm.RatesAmong(tp, bad); err == nil {
			t.Errorf("RatesAmong accepted hosts %v", bad)
		}
	}
}

// TestRatesAmongRestricted: a Restrict output carries only derived
// rates, so there is nothing to project.
func TestRatesAmongRestricted(t *testing.T) {
	tp := trafficTopo(t, 5)
	tm, err := GenerateTraffic(tp, TrafficGravity, 4)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := tm.Restrict(tp, []SwitchID{4, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.RatesAmong(trafficTopo(t, 3), []SwitchID{2, 0}); err == nil {
		t.Fatal("RatesAmong projected a restricted matrix")
	}
}
