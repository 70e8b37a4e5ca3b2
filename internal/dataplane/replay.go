// Replay over the compiled pipeline (DESIGN.md §13.2): batches run
// one after another in the calling goroutine, and ReplayTraffic drives
// a traffic matrix's packet stream through them.
package dataplane

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
)

// ReplayStats aggregates one replay run.
type ReplayStats struct {
	// Packets and Batches processed.
	Packets int
	Batches int
	// Elapsed wall time and the resulting rate.
	Elapsed       time.Duration
	PacketsPerSec float64
	// CoordBytes is the total coordination header bytes carried
	// (packets × per-pair header bytes, summed over pairs).
	CoordBytes int64
	// PairBytes is CoordBytes broken down per communicating pair.
	PairBytes map[placement.RouteKey]int64
}

// Replay pushes every batch through the pipeline and recycles it.
// Batches must come from this pipeline's pool and are consumed
// (returned to the pool). workers is accepted and ignored; it stays
// until benchmark/ stops passing it (ROADMAP item 2(ii)).
func (p *Pipeline) Replay(batches []*Batch, workers int) (*ReplayStats, error) {
	stats := &ReplayStats{PairBytes: map[placement.RouteKey]int64{}}
	start := time.Now()
	var firstErr error
	for _, b := range batches {
		if firstErr == nil {
			firstErr = p.Run(b)
		}
		stats.Batches++
		if b.err == nil {
			stats.Packets += b.n
		}
		p.PutBatch(b)
	}
	stats.Elapsed = time.Since(start)
	for key, bytes := range p.HopBytesPerPacket() {
		pb := int64(bytes) * int64(stats.Packets)
		stats.PairBytes[key] = pb
		stats.CoordBytes += pb
	}
	if s := stats.Elapsed.Seconds(); s > 0 {
		stats.PacketsPerSec = float64(stats.Packets) / s
	}
	return stats, firstErr
}

// TrafficResult is ReplayTraffic's outcome: the raw replay throughput
// plus the traffic-weighted coordination metrics Exp#9 reports.
type TrafficResult struct {
	Stats ReplayStats
	// WeightedByteRate is Σ_{u≠v} w(u,v)·A(u,v): the matrix's pair
	// rates times the deployment's per-pair coordination bytes — the
	// network-wide coordination byte-rate (bytes per unit rate).
	WeightedByteRate float64
	// HotPairByteRate is max_{u≠v} w(u,v)·A(u,v): the hottest pair's
	// coordination byte-rate, the quantity the weighted solvers cut.
	HotPairByteRate float64
	// FCTProxy approximates mean flow completion time in seconds: the
	// time to drain an average flow at the measured goodput, inflated
	// by the coordination byte overhead against a nominal 100-byte
	// payload.
	FCTProxy float64
}

// replayPayloadBytes is the nominal packet payload the FCT proxy
// weighs coordination overhead against.
const replayPayloadBytes = 100

// ReplayTraffic synthesizes a packet stream from the traffic matrix
// (packet counts apportioned to demands by rate, largest remainder,
// no RNG), replays it through the batched pipeline, and reports
// throughput plus the weighted coordination metrics. workers as in
// Replay.
func ReplayTraffic(dep *deploy.Deployment, tm *network.TrafficMatrix, packets, batchSize, workers int) (*TrafficResult, error) {
	if packets <= 0 {
		return nil, fmt.Errorf("dataplane: non-positive packet count %d", packets)
	}
	if err := tm.Validate(dep.Plan.Topo); err != nil {
		return nil, err
	}
	p, err := NewPipeline(dep, replayHeaderFields(), batchSize)
	if err != nil {
		return nil, err
	}
	counts := apportion(tm, packets)

	var batches []*Batch
	var pkts []*Packet
	flush := func() error {
		if len(pkts) == 0 {
			return nil
		}
		b, err := p.Load(pkts)
		if err != nil {
			return err
		}
		batches = append(batches, b)
		pkts = pkts[:0]
		return nil
	}
	for di, d := range tm.Demands {
		for c := 0; c < counts[di]; c++ {
			pkts = append(pkts, demandPacket(d, di))
			if len(pkts) == p.BatchSize() {
				if err := flush(); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}

	stats, err := p.Replay(batches, workers)
	if err != nil {
		return nil, err
	}
	res := &TrafficResult{Stats: *stats}

	// Weighted coordination metrics: deployed per-pair bytes scaled by
	// the matrix's pair-rate projection onto the pairs' endpoints only,
	// summed in RouteKey order so the float sum is reproducible.
	hop := p.HopBytesPerPacket()
	keys := make([]placement.RouteKey, 0, len(hop))
	for key := range hop {
		keys = append(keys, key)
	}
	slices.SortFunc(keys, func(a, b placement.RouteKey) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	hosts := make([]network.SwitchID, 0, 2*len(keys))
	for _, key := range keys {
		hosts = append(hosts, key.From, key.To)
	}
	slices.Sort(hosts)
	hosts = slices.Compact(hosts)
	rates, err := tm.RatesAmong(dep.Plan.Topo, hosts)
	if err != nil {
		return nil, err
	}
	H := len(hosts)
	for _, key := range keys {
		i, _ := slices.BinarySearch(hosts, key.From)
		j, _ := slices.BinarySearch(hosts, key.To)
		br := rates[i*H+j] * float64(hop[key])
		res.WeightedByteRate += br
		if br > res.HotPairByteRate {
			res.HotPairByteRate = br
		}
	}
	if stats.PacketsPerSec > 0 && stats.Packets > 0 {
		perPkt := float64(stats.CoordBytes) / float64(stats.Packets)
		overhead := 1 + perPkt/replayPayloadBytes
		meanFlow := float64(stats.Packets) / float64(len(tm.Demands))
		res.FCTProxy = meanFlow * overhead / stats.PacketsPerSec
	}
	return res, nil
}

// replayHeaderFields names the synthetic 5-tuple header fields the
// demand packets carry — the pipeline's extraHeaders.
func replayHeaderFields() []string {
	return []string{
		fields.IPv4Src, fields.IPv4Dst,
		fields.TCPSrc, fields.TCPDst,
		fields.IPv4Proto, fields.IPv4TTL,
	}
}

// demandPacket builds one packet of demand di: the endpoints encode
// the demand's switch pair, ports the demand index, so distinct
// demands exercise distinct match/hash/counter paths.
func demandPacket(d network.Demand, di int) *Packet {
	return &Packet{Headers: map[string]uint64{
		fields.IPv4Src:   uint64(0x0A000000) + uint64(d.Src),
		fields.IPv4Dst:   uint64(0x0B000000) + uint64(d.Dst),
		fields.TCPSrc:    uint64(1024 + di%60000),
		fields.TCPDst:    uint64(di % 1024),
		fields.IPv4Proto: 6,
		fields.IPv4TTL:   64,
	}}
}

// apportion splits the packet budget across demands proportionally to
// rate (largest remainder; every demand gets at least its floor). The
// leftover packets go to the largest fractional parts, index breaking
// ties: one sort by (remainder descending, index).
func apportion(tm *network.TrafficMatrix, packets int) []int {
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
	if given >= packets {
		return counts
	}
	slices.SortFunc(rems, func(a, b rem) int {
		return cmp.Or(cmp.Compare(b.r, a.r), cmp.Compare(a.i, b.i))
	})
	for _, r := range rems[:min(packets-given, len(rems))] {
		counts[r.i]++
	}
	return counts
}
