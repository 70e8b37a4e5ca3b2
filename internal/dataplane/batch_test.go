package dataplane

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/tdg"
)

// pipelineRun replays the stream through a fresh pipeline in batches of
// batchSize with the write log on and hands every packet's log and
// final headers to each. It returns the run's digest and the counter
// registers the run left behind.
func pipelineRun(t *testing.T, dep *deploy.Deployment, packets []*Packet, batchSize int, each func(i int, writes, headers map[string]uint64)) (uint64, map[string][]uint64) {
	t.Helper()
	p, err := NewPipeline(dep, nil, batchSize)
	if err != nil {
		t.Fatal(err)
	}
	p.RecordWrites = true
	d := newRunDigest()
	for lo := 0; lo < len(packets); lo += p.BatchSize() {
		chunk := packets[lo:min(lo+p.BatchSize(), len(packets))]
		b, err := p.Load(chunk)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Run(b); err != nil {
			t.Fatal(err)
		}
		for i := range chunk {
			out := chunk[i].Clone()
			p.Unload(b, i, out)
			d.packet(b.Writes(i), out.Headers)
			if each != nil {
				each(lo+i, b.Writes(i), out.Headers)
			}
		}
		p.PutBatch(b)
	}
	regs := p.registers()
	d.counters(regs)
	return d.h.Sum64(), regs
}

// nonzero flattens register files to their nonzero slots.
func nonzero(regs map[string][]uint64) map[string]uint64 {
	out := map[string]uint64{}
	for name, slots := range regs {
		for slot, v := range slots {
			if v != 0 {
				out[fmt.Sprintf("%s[%d]", name, slot)] = v
			}
		}
	}
	return out
}

// TestBatchedMatchesInterpreter is the differential gate for the
// pipeline. On three fixtures the symbolic checker proves equivalent
// without a warning, the same stream through the compiled pipeline and
// the single-box ReferenceEngine must agree packet by packet — write
// logs (values and written-field sets), final headers, and at the end
// the stateful counter registers — at batch sizes 1, 64 and 300. Every
// run is also pinned by value: the digests are what the map-keyed
// per-packet interpreter this pipeline replaced produced for the same
// streams (captured at its last commit, 2b282e1), so "the pipeline is
// the interpreter" survives the interpreter's deletion.
func TestBatchedMatchesInterpreter(t *testing.T) {
	fixtures := []struct {
		name    string
		dep     *deploy.Deployment
		packets func(*tdg.Graph) []*Packet
		digest  uint64
		maxHdr  int
	}{
		{"testbed", deployOnTestbed(t), func(*tdg.Graph) []*Packet { return randomPackets(300, 3) }, 0xd447253edd64f1f0, 4},
		{"churn16", churn16Deployment(t), func(g *tdg.Graph) []*Packet { return graphPackets(g, 3, 300) }, 0x3d4f541053f887d8, 48},
		{"composite10", composite10Deployment(t), func(g *tdg.Graph) []*Packet { return graphPackets(g, 3, 300) }, 0xc05c8300f9417f54, 62},
	}
	for _, fx := range fixtures {
		packets := fx.packets(fx.dep.Plan.Graph)
		for _, batchSize := range []int{1, 64, 300} {
			ref, err := NewReferenceEngine(fx.dep.Plan.Graph)
			if err != nil {
				t.Fatal(err)
			}
			digest, regs := pipelineRun(t, fx.dep, packets, batchSize, func(i int, writes, headers map[string]uint64) {
				want, err := ref.Process(packets[i].Clone())
				if err != nil {
					t.Fatal(err)
				}
				if err := compareWrites(want.Writes, writes); err != nil {
					t.Fatalf("%s batch %d: packet %d write logs diverge: %v", fx.name, batchSize, i, err)
				}
				if !reflect.DeepEqual(want.Packet.Headers, headers) {
					t.Fatalf("%s batch %d: packet %d final headers %v, reference %v", fx.name, batchSize, i, headers, want.Packet.Headers)
				}
			})
			if got, want := nonzero(regs), nonzero(ref.registers()); !reflect.DeepEqual(got, want) {
				t.Errorf("%s batch %d: counter registers %v, reference %v", fx.name, batchSize, got, want)
			}
			if digest != fx.digest {
				t.Errorf("%s batch %d: run digest %#x, the per-packet interpreter's was %#x", fx.name, batchSize, digest, fx.digest)
			}
		}
		if maxHdr, err := EquivalentRuns(fx.dep, packets); err != nil || maxHdr != fx.maxHdr {
			t.Errorf("%s: EquivalentRuns = %d, %v; want %d, nil", fx.name, maxHdr, err, fx.maxHdr)
		}
	}
}

// TestEvaluationPointPinnedByValue holds both executions to the
// parent's on the paper's evaluation workload, where they may
// legitimately differ from each other (wan30Deployment): the pipeline
// at every batch size against the deleted interpreter's digest, the
// single box against its own digest from before its write tracking
// moved to where the writes happen, and EquivalentRuns still reporting
// the first packet as diverged.
func TestEvaluationPointPinnedByValue(t *testing.T) {
	dep := wan30Deployment(t)
	packets := graphPackets(dep.Plan.Graph, 3, 300)
	for _, batchSize := range []int{1, 64, 300} {
		if digest, _ := pipelineRun(t, dep, packets, batchSize, nil); digest != 0x6580e3b69d593e40 {
			t.Errorf("batch %d: pipeline run digest %#x, the per-packet interpreter's was 0x6580e3b69d593e40", batchSize, digest)
		}
	}
	ref, err := NewReferenceEngine(dep.Plan.Graph)
	if err != nil {
		t.Fatal(err)
	}
	d := newRunDigest()
	for _, p := range packets {
		res, err := ref.Process(p.Clone())
		if err != nil {
			t.Fatal(err)
		}
		d.packet(res.Writes, res.Packet.Headers)
	}
	d.counters(ref.registers())
	if got := d.h.Sum64(); got != 0x9c5ed3d7cc9fbe12 {
		t.Errorf("reference run digest %#x, the snapshotting reference's was 0x9c5ed3d7cc9fbe12", got)
	}
	if _, err := EquivalentRuns(dep, packets); err == nil || !strings.Contains(err.Error(), "packet 0 diverged") {
		t.Errorf("EquivalentRuns = %v; the parent reported packet 0 diverged", err)
	}
}

// TestBatchedCoordinationContract sabotages the coordination headers
// and expects the pipeline to raise the hard error, from Run and
// through Replay.
func TestBatchedCoordinationContract(t *testing.T) {
	dep := deployOnTestbed(t)
	for _, cfg := range dep.Configs {
		for to := range cfg.Exports {
			cfg.Exports[to] = deploy.CoordHeader{}
		}
		for from := range cfg.Imports {
			cfg.Imports[from] = deploy.CoordHeader{}
		}
	}
	p, err := NewPipeline(dep, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Load(randomPackets(8, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(b); err == nil {
		t.Fatal("Run: stripped coordination headers went undetected")
	}
	b2, err := p.Load(randomPackets(8, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Replay([]*Batch{b2}, 0); err == nil {
		t.Fatal("Replay: stripped coordination headers went undetected")
	}
}

// TestWritesNilWithoutWriteLog: a replay-mode batch has no write log,
// and asking for one is not a panic.
func TestWritesNilWithoutWriteLog(t *testing.T) {
	p, err := NewPipeline(deployOnTestbed(t), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Load(randomPackets(4, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(b); err != nil {
		t.Fatal(err)
	}
	if got := b.Writes(0); got != nil {
		t.Errorf("write log %v from a pipeline that records none", got)
	}
}

// TestReplayTraffic replays a generated traffic matrix through the
// deployment and checks the weighted coordination metrics line up with
// the analytic w·A aggregation.
func TestReplayTraffic(t *testing.T) {
	dep := deployOnTestbed(t)
	tm, err := network.GenerateTraffic(dep.Plan.Topo, network.TrafficGravity, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReplayTraffic(dep, tm, 1000, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Packets != 1000 {
		t.Fatalf("replayed %d packets, want 1000", res.Stats.Packets)
	}
	if res.Stats.PacketsPerSec <= 0 {
		t.Error("non-positive goodput")
	}
	if res.WeightedByteRate <= 0 || res.HotPairByteRate <= 0 {
		t.Errorf("weighted metrics not populated: sum %g, hot %g",
			res.WeightedByteRate, res.HotPairByteRate)
	}
	if res.HotPairByteRate > res.WeightedByteRate {
		t.Error("hot-pair byte-rate exceeds the network-wide sum")
	}
	if res.FCTProxy <= 0 {
		t.Error("non-positive FCT proxy")
	}
}

// TestApportionConserves checks the largest-remainder split is exact
// and deterministic.
func TestApportionConserves(t *testing.T) {
	tm := &network.TrafficMatrix{S: 4, Demands: []network.Demand{
		{Src: 0, Dst: 1, Rate: 1},
		{Src: 1, Dst: 2, Rate: 2.5},
		{Src: 2, Dst: 3, Rate: 0.25},
	}}
	counts := apportion(tm, 1000)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 1000 {
		t.Fatalf("apportioned %d packets, want 1000", total)
	}
	again := apportion(tm, 1000)
	for i := range counts {
		if counts[i] != again[i] {
			t.Fatal("apportion not deterministic")
		}
	}
	if counts[1] <= counts[0] || counts[0] <= counts[2] {
		t.Fatalf("apportion ignores rates: %v", counts)
	}
}
