package dataplane

import (
	"testing"
)

// benchPackets is the replay stream shared by the engine benchmarks.
func benchPackets(b *testing.B, n int) []*Packet {
	b.Helper()
	return randomPackets(n, 42)
}

// BenchmarkPerPacketEngine is Engine.Process: the pipeline over a batch
// of one with the write log on, a Result per packet. ns/op is per
// packet.
func BenchmarkPerPacketEngine(b *testing.B) {
	dep := deployOnTestbed(b)
	eng, err := NewEngine(dep)
	if err != nil {
		b.Fatal(err)
	}
	packets := benchPackets(b, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Process(packets[i%len(packets)].Clone()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchedEngine replays pooled batches through the compiled
// pipeline sequentially. ns/op is per packet; steady state must report
// 0 allocs/op — the pool and the preallocated scratch absorb
// everything.
func BenchmarkBatchedEngine(b *testing.B) {
	dep := deployOnTestbed(b)
	p, err := NewPipeline(dep, nil, 256)
	if err != nil {
		b.Fatal(err)
	}
	packets := benchPackets(b, 256)
	// Warm the pool and fault in the compiled tables.
	warm, err := p.Load(packets)
	if err != nil {
		b.Fatal(err)
	}
	if err := p.Run(warm); err != nil {
		b.Fatal(err)
	}
	p.PutBatch(warm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(packets) {
		batch, err := p.Load(packets)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Run(batch); err != nil {
			b.Fatal(err)
		}
		p.PutBatch(batch)
	}
}
