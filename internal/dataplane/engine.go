package dataplane

import (
	"errors"
	"fmt"

	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

// Result is the outcome of processing one packet.
type Result struct {
	// Packet is the packet after processing (header fields mutated in
	// place).
	Packet *Packet
	// Writes records the final value of every field written during
	// processing (headers and metadata), keyed by field name. Used to
	// compare distributed execution against the single-box reference.
	Writes map[string]uint64
	// MaxHeaderBytes is the largest coordination header attached to the
	// packet between any switch pair during this traversal.
	MaxHeaderBytes int
	// HopBytes maps each communicating pair to the header bytes carried.
	HopBytes map[placement.RouteKey]int
}

// Engine executes a compiled deployment packet by packet: a Pipeline
// run over a batch of one with the write log on. The pipeline lives as
// long as the engine, so stateful counters persist across packets.
type Engine struct {
	p      *Pipeline
	hop    map[placement.RouteKey]int
	maxHdr int
}

// NewEngine compiles the deployment; a deployed MAT missing from the
// TDG is an error here, not at the first packet. The engine executes
// the rules installed when it was built: after a runtime rule change,
// build a new one.
func NewEngine(dep *deploy.Deployment) (*Engine, error) { return newEngine(dep, 1) }

func newEngine(dep *deploy.Deployment, batchSize int) (*Engine, error) {
	p, err := NewPipeline(dep, nil, batchSize)
	if err != nil {
		return nil, err
	}
	p.RecordWrites = true
	e := &Engine{p: p, hop: p.HopBytesPerPacket()}
	for _, bytes := range e.hop {
		e.maxHdr = max(e.maxHdr, bytes)
	}
	return e, nil
}

// load fills a batch with the write log on. Unlike Pipeline.Load it
// accepts header fields no deployed MAT references — Process callers
// send whole 5-tuples — and leaves them on the packet: nothing in the
// pipeline can read them.
func (e *Engine) load(packets []*Packet) *Batch {
	p := e.p
	b := p.GetBatch()
	b.n = len(packets)
	b.writes = make([]map[string]uint64, b.n)
	for i, pkt := range packets {
		b.writes[i] = map[string]uint64{}
		//hermes:hot
		for name, v := range pkt.Headers {
			if fid, ok := p.hdrIdx[name]; ok {
				b.hdr[i*p.nHdr+int(fid)] = v
				b.hdrHas[i*p.hdrWords+int(fid)/64] |= 1 << (uint(fid) % 64)
			}
		}
	}
	return b
}

// Process runs one packet through the deployed network: each used
// switch in dependency order, MATs in stage order, with metadata
// crossing switches only inside the compiled coordination headers.
// Result.HopBytes is shared between results; treat it as read-only.
func (e *Engine) Process(pkt *Packet) (*Result, error) {
	b := e.load([]*Packet{pkt})
	defer e.p.PutBatch(b)
	if err := e.p.Run(b); err != nil {
		return nil, err
	}
	e.p.Unload(b, 0, pkt)
	return &Result{Packet: pkt, Writes: b.Writes(0), HopBytes: e.hop, MaxHeaderBytes: e.maxHdr}, nil
}

// ReferenceEngine executes the merged TDG on a single unconstrained
// "big switch": the ground truth for distributed-equals-centralized
// checks (and the Exp#6 ground truth for resource accounting). It is
// deliberately the pipeline's independent twin — name-keyed maps over
// program.MAT, none of the compiled form.
type ReferenceEngine struct {
	exec *matExecutor
	mats []*program.MAT // topological order
}

// NewReferenceEngine prepares a single-box engine for the TDG. It
// executes the rules each MAT holds the first time the MAT runs.
func NewReferenceEngine(g *tdg.Graph) (*ReferenceEngine, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("dataplane: %w", err)
	}
	e := &ReferenceEngine{exec: newMATExecutor(), mats: make([]*program.MAT, len(order))}
	for i, name := range order {
		node, _ := g.Node(name)
		e.mats[i] = node.MAT
	}
	return e, nil
}

// Process runs one packet through every MAT in topological order with
// all metadata visible. The write log follows the one contract the
// pipeline's recFid/recOld/recHad diff also implements: a field counts
// as written when a MAT left it changed or newly present, and metadata
// so written enters the written set.
func (e *ReferenceEngine) Process(pkt *Packet) (*Result, error) {
	res := &Result{Packet: pkt, Writes: map[string]uint64{}}
	ctx := newContext(pkt)
	written := map[string]bool{}
	//hermes:hot
	for _, m := range e.mats {
		if err := e.exec.execute(m, ctx, written); err != nil {
			return nil, err
		}
		for _, w := range ctx.rec {
			cur := ctx.values(w.f)[w.f.Name]
			if w.had && cur == w.old {
				continue
			}
			res.Writes[w.f.Name] = cur
			if w.f.IsMetadata() {
				written[w.f.Name] = true
			}
		}
		ctx.rec = ctx.rec[:0]
	}
	return res, nil
}

// ErrReference marks a Differential failure of the single-box
// reference itself — an unrunnable graph, not evidence against the
// deployment.
var ErrReference = errors.New("dataplane: reference run failed")

// Differential replays packets through a deployment's pipeline and
// through the single-box reference of a graph and compares the two
// write logs packet by packet: the one comparator behind
// EquivalentRuns and equiv's counterexample search.
type Differential struct {
	eng *Engine
	ref *ReferenceEngine
}

// NewDifferential builds both sides once; batchSize is how many
// packets Run hands the pipeline at a time.
func NewDifferential(ref *tdg.Graph, dep *deploy.Deployment, batchSize int) (*Differential, error) {
	r, err := NewReferenceEngine(ref)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrReference, err)
	}
	eng, err := newEngine(dep, batchSize)
	if err != nil {
		return nil, err
	}
	return &Differential{eng: eng, ref: r}, nil
}

// Reset returns both sides' stateful registers to their cold state.
func (d *Differential) Reset() {
	for _, slots := range d.eng.p.counters {
		clear(slots)
	}
	clear(d.ref.exec.counters)
}

// Run replays the stream from the registers' current state and returns
// the distributed run's max header bytes, or the first failure: an
// ErrReference, a distributed execution error (a coordination fault),
// or diverging write logs.
func (d *Differential) Run(packets []*Packet) (int, error) {
	size := d.eng.p.batchSize
	for lo := 0; lo < len(packets); lo += size {
		if err := d.runBatch(lo, packets[lo:min(lo+size, len(packets))]); err != nil {
			return 0, err
		}
	}
	if len(packets) == 0 {
		return 0, nil
	}
	return d.eng.maxHdr, nil
}

// runBatch runs one batch of the stream, packets[lo:], through both
// sides: the reference first, so its failure is never mistaken for the
// deployment's.
func (d *Differential) runBatch(lo int, chunk []*Packet) error {
	want := make([]map[string]uint64, len(chunk))
	for i, pkt := range chunk {
		res, err := d.ref.Process(pkt.Clone())
		if err != nil {
			return fmt.Errorf("%w, packet %d: %w", ErrReference, lo+i, err)
		}
		want[i] = res.Writes
	}
	b := d.eng.load(chunk)
	defer d.eng.p.PutBatch(b)
	if err := d.eng.p.Run(b); err != nil {
		return fmt.Errorf("dataplane: distributed run, packets %d-%d: %w", lo, lo+len(chunk)-1, err)
	}
	for i := range chunk {
		if err := compareWrites(want[i], b.Writes(i)); err != nil {
			return fmt.Errorf("dataplane: packet %d diverged: %w", lo+i, err)
		}
	}
	return nil
}

// EquivalentRuns processes the same packet stream through the deployed
// pipeline and the single-box reference and verifies identical write
// histories; it returns the distributed run's max header bytes.
func EquivalentRuns(dep *deploy.Deployment, packets []*Packet) (int, error) {
	if dep == nil || dep.Plan == nil {
		return 0, fmt.Errorf("dataplane: nil deployment")
	}
	d, err := NewDifferential(dep.Plan.Graph, dep, min(len(packets), DefaultBatchSize))
	if err != nil {
		return 0, err
	}
	return d.Run(packets)
}

func compareWrites(ref, dist map[string]uint64) error {
	for k, rv := range ref {
		dv, ok := dist[k]
		if !ok {
			return fmt.Errorf("field %q written in reference but not distributed", k)
		}
		if dv != rv {
			return fmt.Errorf("field %q = %d distributed vs %d reference", k, dv, rv)
		}
	}
	for k := range dist {
		if _, ok := ref[k]; !ok {
			return fmt.Errorf("field %q written only in distributed run", k)
		}
	}
	return nil
}
