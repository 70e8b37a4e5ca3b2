// Batched replay engine (DESIGN.md §13.2): the one interpreter of a
// distributed deployment. Engine runs it a packet at a time for
// callers that want a Result per packet; replay runs it a batch at a
// time. Pipeline compiles a deployment once into dense form:
//
//   - every header and metadata field referenced anywhere in the
//     deployment is interned to a dense index, so a packet is a row of
//     uint64 columns in a contiguous Batch, not a map;
//   - every MAT's rules are pre-sorted and its actions lowered to flat
//     op lists with field references and rule params resolved at
//     compile time;
//   - coordination headers become per-(pair, field) transport slots in
//     the batch, so exports/imports are plain column copies in which a
//     later-visited upstream's value overwrites an earlier one's;
//   - the coordination contract (reads of metadata that was written
//     upstream but not piggybacked are hard errors) is enforced through
//     a per-packet written-bits vector carried in the batch.
//
// Batches are pooled (sync.Pool) and all per-switch scratch is
// preallocated, so steady-state replay allocates nothing per packet.
package dataplane

import (
	"fmt"
	"sort"
	"sync"

	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
)

// DefaultBatchSize is the packets-per-batch sweet spot: large enough
// to amortize the per-batch column clears, small enough that the
// per-switch pipeline stays loaded.
const DefaultBatchSize = 256

// fieldRef is a compiled field reference: the interned column plus the
// width mask applied on writes.
type fieldRef struct {
	meta bool
	id   int32
	mask uint64
}

// cop is one lowered action operation. For OpSet the immediate already
// carries the rule's param override; for OpCount counter indexes the
// pipeline's per-MAT register file.
type cop struct {
	kind    program.OpKind
	dst     fieldRef
	srcs    []fieldRef
	imm     uint64
	counter int32
}

// ckey is one compiled match key; the original MatchKey is kept so the
// batched match phase reuses patternMatches verbatim.
type ckey struct {
	ref fieldRef
	key program.MatchKey
}

// crule is one compiled rule: the constrained keys with their patterns
// and the rule's lowered action (nil when the action has no ops).
type crule struct {
	keyIdx []int32
	pats   []program.Pattern
	ops    []cop
}

// cmat is one compiled MAT.
type cmat struct {
	name    string
	keys    []ckey
	rules   []crule // descending priority, stable
	missOps []cop   // default action; nil means no-op on miss
	hasMiss bool
	counter int32 // register-file index, -1 when the MAT never counts
}

// cimport copies one coordination slot into a metadata column; the
// per-switch list is ordered by upstream visit order so a later
// upstream's value overwrites an earlier one (it executed with more of
// the write history in view).
type cimport struct {
	slot int32
	fid  int32
}

// cexport serializes one metadata column into a coordination slot
// (absent metadata exports zero: the field may be produced only on
// some execution paths).
type cexport struct {
	slot int32
	fid  int32
}

// cswitch is one compiled switch stage plus its scratch. The scratch
// makes a Pipeline single-run: concurrent Run/Replay calls on one
// Pipeline race.
type cswitch struct {
	mats     []*cmat
	imports  []cimport
	exports  []cexport
	hopKeys  []placement.RouteKey
	hopBytes []int

	// Per-packet metadata context, reset through the touched list.
	metaVal []uint64
	metaHas []uint64
	touched []int32

	// Per-MAT write-diff scratch: seen holds the epoch of the last MAT
	// execution that recorded a field's pre-value, so the diff only
	// keeps the first write per MAT.
	seen    []uint64
	epoch   uint64
	recFid  []int32
	recMeta []bool
	recOld  []uint64
	recHad  []bool
}

// Batch is a contiguous block of packets in flight: row-major header
// columns, coordination transport slots, and the per-packet
// written-metadata bits that back the coordination contract.
type Batch struct {
	n       int
	hdr     []uint64 // n × nHdr
	hdrHas  []uint64 // n × hdrWords presence bits (write-diff semantics)
	coord   []uint64 // n × nSlots
	written []uint64 // n × metaWords

	// writes holds per-packet write logs when the pipeline records
	// them (differential tests); nil in replay mode.
	writes []map[string]uint64

	err error // first execution error; poisons the batch downstream
}

// Writes returns packet i's recorded write log (nil unless the
// pipeline ran with RecordWrites).
func (b *Batch) Writes(i int) map[string]uint64 {
	if b.writes == nil {
		return nil
	}
	return b.writes[i]
}

// Pipeline is a deployment compiled for batched replay.
type Pipeline struct {
	sws []*cswitch

	hdrNames  []string
	hdrIdx    map[string]int32
	metaNames []string
	metaIdx   map[string]int32

	nHdr, nMeta int
	nSlots      int
	hdrWords    int
	metaWords   int

	counters [][]uint64

	batchSize int
	pool      sync.Pool

	// RecordWrites, when set before running, makes every batch carry a
	// per-packet map of final written-field values (Result.Writes, what
	// the reference comparison reads). Replay mode leaves it off (it
	// allocates per packet).
	RecordWrites bool
}

// NewPipeline compiles the deployment. extraHeaders names header
// fields that appear in replayed packets without being referenced by
// any deployed MAT (the synthetic 5-tuple, typically); unknown header
// fields at load time are errors, not silent drops.
func NewPipeline(dep *deploy.Deployment, extraHeaders []string, batchSize int) (*Pipeline, error) {
	if dep == nil || dep.Plan == nil {
		return nil, fmt.Errorf("dataplane: nil deployment")
	}
	order, err := dep.Plan.SwitchOrder()
	if err != nil {
		return nil, fmt.Errorf("dataplane: %w", err)
	}
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	p := &Pipeline{batchSize: batchSize, hdrIdx: map[string]int32{}, metaIdx: map[string]int32{}}

	// Pass 1: intern every field the deployment can touch. Sorted MAT
	// walk keeps the interning deterministic.
	for _, u := range order {
		cfg := dep.Configs[u]
		if cfg == nil {
			continue
		}
		for _, name := range matsInStageOrder(cfg) {
			node, ok := dep.Plan.Graph.Node(name)
			if !ok {
				return nil, fmt.Errorf("dataplane: deployed MAT %q missing from TDG", name)
			}
			m := node.MAT
			for _, k := range m.Keys {
				p.intern(k.Field)
			}
			for _, act := range m.Actions {
				for _, op := range act.Ops {
					p.intern(op.Dst)
					for _, s := range op.Srcs {
						p.intern(s)
					}
				}
			}
		}
		for _, hdr := range cfg.Exports {
			for _, f := range hdr.Fields {
				p.intern(f)
			}
		}
	}
	for _, name := range extraHeaders {
		p.intern(fields.Header(name, 64))
	}
	p.nHdr, p.nMeta = len(p.hdrNames), len(p.metaNames)
	p.hdrWords = (p.nHdr + 63) / 64
	p.metaWords = (p.nMeta + 63) / 64

	// Pass 2: allocate coordination transport slots, one per exported
	// (pair, field), in switch-order × sorted-peer × header-field order.
	slots := map[placement.RouteKey]map[string]int32{}
	for _, u := range order {
		cfg := dep.Configs[u]
		if cfg == nil {
			continue
		}
		for _, to := range sortedPeers(cfg.Exports) {
			key := placement.RouteKey{From: u, To: to}
			m := map[string]int32{}
			for _, f := range cfg.Exports[to].Fields {
				m[f.Name] = int32(p.nSlots)
				p.nSlots++
			}
			slots[key] = m
		}
	}

	// Pass 3: compile each switch stage.
	for _, u := range order {
		cfg := dep.Configs[u]
		if cfg == nil {
			continue
		}
		cs := &cswitch{}
		for _, from := range order {
			if from == u {
				break
			}
			if _, ok := cfg.Imports[from]; !ok {
				continue
			}
			fromCfg := dep.Configs[from]
			if fromCfg == nil {
				continue
			}
			hdr, ok := fromCfg.Exports[u]
			if !ok {
				continue
			}
			key := placement.RouteKey{From: from, To: u}
			for _, f := range hdr.Fields {
				cs.imports = append(cs.imports, cimport{slot: slots[key][f.Name], fid: p.metaIdx[f.Name]})
			}
		}
		for _, name := range matsInStageOrder(cfg) {
			node, _ := dep.Plan.Graph.Node(name)
			cm, err := p.compileMAT(node.MAT)
			if err != nil {
				return nil, err
			}
			cs.mats = append(cs.mats, cm)
		}
		for _, to := range sortedPeers(cfg.Exports) {
			key := placement.RouteKey{From: u, To: to}
			hdr := cfg.Exports[to]
			for _, f := range hdr.Fields {
				cs.exports = append(cs.exports, cexport{slot: slots[key][f.Name], fid: p.metaIdx[f.Name]})
			}
			cs.hopKeys = append(cs.hopKeys, key)
			cs.hopBytes = append(cs.hopBytes, hdr.Bytes)
		}
		cs.metaVal = make([]uint64, p.nMeta)
		cs.metaHas = make([]uint64, p.metaWords)
		cs.touched = make([]int32, 0, p.nMeta)
		cs.seen = make([]uint64, p.nMeta+p.nHdr)
		p.sws = append(p.sws, cs)
	}

	p.pool.New = func() any {
		return &Batch{
			hdr:     make([]uint64, p.batchSize*p.nHdr),
			hdrHas:  make([]uint64, p.batchSize*p.hdrWords),
			coord:   make([]uint64, p.batchSize*p.nSlots),
			written: make([]uint64, p.batchSize*p.metaWords),
		}
	}
	return p, nil
}

// intern assigns the field a dense column if it is new.
func (p *Pipeline) intern(f fields.Field) fieldRef {
	if f.IsMetadata() {
		id, ok := p.metaIdx[f.Name]
		if !ok {
			id = int32(len(p.metaNames))
			p.metaIdx[f.Name] = id
			p.metaNames = append(p.metaNames, f.Name)
		}
		return fieldRef{meta: true, id: id, mask: widthMask(f.Bits)}
	}
	id, ok := p.hdrIdx[f.Name]
	if !ok {
		id = int32(len(p.hdrNames))
		p.hdrIdx[f.Name] = id
		p.hdrNames = append(p.hdrNames, f.Name)
	}
	return fieldRef{meta: false, id: id, mask: widthMask(f.Bits)}
}

// compileMAT lowers one MAT: rules pre-sorted, actions flattened, rule
// params folded into OpSet immediates.
func (p *Pipeline) compileMAT(m *program.MAT) (*cmat, error) {
	cm := &cmat{name: m.Name, counter: -1}
	for _, k := range m.Keys {
		cm.keys = append(cm.keys, ckey{ref: p.intern(k.Field), key: k})
	}
	needsCounter := false
	for _, act := range m.Actions {
		for _, op := range act.Ops {
			if op.Kind == program.OpCount {
				needsCounter = true
			}
		}
	}
	if needsCounter {
		cm.counter = int32(len(p.counters))
		p.counters = append(p.counters, make([]uint64, defaultCounterSlots))
	}
	for _, r := range sortedRules(m) {
		cr := crule{}
		for ki, k := range m.Keys {
			pat, constrained := r.Matches[k.Field.Name]
			if !constrained {
				continue
			}
			cr.keyIdx = append(cr.keyIdx, int32(ki))
			cr.pats = append(cr.pats, pat)
		}
		if r.Action != "" {
			act, ok := m.Action(r.Action)
			if !ok {
				return nil, fmt.Errorf("dataplane: MAT %q references unknown action %q", m.Name, r.Action)
			}
			cr.ops = p.compileAction(cm, act, r.Params)
		}
		cm.rules = append(cm.rules, cr)
	}
	if m.DefaultAction != "" {
		act, ok := m.Action(m.DefaultAction)
		if !ok {
			return nil, fmt.Errorf("dataplane: MAT %q references unknown action %q", m.Name, m.DefaultAction)
		}
		cm.missOps = p.compileAction(cm, act, nil)
		cm.hasMiss = true
	}
	return cm, nil
}

// compileAction lowers one action under a rule's params.
func (p *Pipeline) compileAction(cm *cmat, act program.Action, params map[string]uint64) []cop {
	ops := make([]cop, 0, len(act.Ops))
	for _, op := range act.Ops {
		c := cop{kind: op.Kind, dst: p.intern(op.Dst), imm: op.Imm, counter: cm.counter}
		if op.Kind == program.OpSet {
			if pv, ok := params[op.Dst.Name]; ok {
				c.imm = pv
			}
		}
		for _, s := range op.Srcs {
			c.srcs = append(c.srcs, p.intern(s))
		}
		ops = append(ops, c)
	}
	return ops
}

// matsInStageOrder lists a switch's MATs by first stage, deduplicated.
func matsInStageOrder(cfg *deploy.SwitchConfig) []string {
	type entry struct {
		name  string
		stage int
	}
	first := map[string]int{}
	for s, st := range cfg.Stages {
		for _, e := range st {
			if _, ok := first[e.MAT]; !ok {
				first[e.MAT] = s
			}
		}
	}
	out := make([]entry, 0, len(first))
	for n, s := range first {
		out = append(out, entry{name: n, stage: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].stage != out[j].stage {
			return out[i].stage < out[j].stage
		}
		return out[i].name < out[j].name
	})
	names := make([]string, len(out))
	for i, e := range out {
		names[i] = e.name
	}
	return names
}

// sortedPeers returns the export map's keys ascending.
func sortedPeers(m map[network.SwitchID]deploy.CoordHeader) []network.SwitchID {
	out := make([]network.SwitchID, 0, len(m))
	for u := range m {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HopBytesPerPacket returns the coordination header bytes every packet
// carries per communicating pair — the deployment's byte cost scaled
// by traffic in replay metrics.
func (p *Pipeline) HopBytesPerPacket() map[placement.RouteKey]int {
	out := map[placement.RouteKey]int{}
	for _, cs := range p.sws {
		for i, key := range cs.hopKeys {
			out[key] = cs.hopBytes[i]
		}
	}
	return out
}

// BatchSize returns the compiled packets-per-batch capacity.
func (p *Pipeline) BatchSize() int { return p.batchSize }

// GetBatch takes a cleared batch from the pool.
func (p *Pipeline) GetBatch() *Batch {
	b := p.pool.Get().(*Batch)
	clear(b.hdr)
	clear(b.hdrHas)
	clear(b.coord)
	clear(b.written)
	b.n = 0
	b.err = nil
	b.writes = nil
	return b
}

// PutBatch recycles a batch.
func (p *Pipeline) PutBatch(b *Batch) { p.pool.Put(b) }

// Load fills a pooled batch from map-keyed packets. Header
// fields outside the compiled universe are errors: the caller names
// them via NewPipeline's extraHeaders.
func (p *Pipeline) Load(packets []*Packet) (*Batch, error) {
	if len(packets) > p.batchSize {
		return nil, fmt.Errorf("dataplane: %d packets exceed batch size %d", len(packets), p.batchSize)
	}
	b := p.GetBatch()
	b.n = len(packets)
	if p.RecordWrites {
		b.writes = make([]map[string]uint64, b.n)
		for i := range b.writes {
			b.writes[i] = map[string]uint64{}
		}
	}
	for i, pkt := range packets {
		row := i * p.nHdr
		has := i * p.hdrWords
		for name, v := range pkt.Headers {
			fid, ok := p.hdrIdx[name]
			if !ok {
				p.PutBatch(b)
				return nil, fmt.Errorf("dataplane: packet header %q not compiled into the pipeline", name)
			}
			b.hdr[row+int(fid)] = v
			b.hdrHas[has+int(fid)/64] |= 1 << (uint(fid) % 64)
		}
	}
	return b, nil
}

// Unload writes batch row i's header columns back onto a packet.
func (p *Pipeline) Unload(b *Batch, i int, pkt *Packet) {
	row := i * p.nHdr
	has := i * p.hdrWords
	for fid := 0; fid < p.nHdr; fid++ {
		if b.hdrHas[has+fid/64]&(1<<(uint(fid)%64)) != 0 {
			pkt.Headers[p.hdrNames[fid]] = b.hdr[row+fid]
		}
	}
}

// Run processes the batch through every switch stage in order. The
// batch is mutated in place; an execution error is returned and also
// recorded on the batch.
func (p *Pipeline) Run(b *Batch) error {
	for _, cs := range p.sws {
		if err := p.runSwitch(cs, b); err != nil {
			b.err = err
			return err
		}
	}
	return nil
}

// runSwitch executes one switch stage over every packet of the batch.
//
//hermes:hot
func (p *Pipeline) runSwitch(cs *cswitch, b *Batch) error {
	for i := 0; i < b.n; i++ {
		// Import coordination headers: later-visited upstreams win by
		// list order.
		coord := b.coord[i*p.nSlots:]
		for _, im := range cs.imports {
			cs.metaVal[im.fid] = coord[im.slot]
			if cs.metaHas[im.fid/64]&(1<<(uint(im.fid)%64)) == 0 {
				cs.metaHas[im.fid/64] |= 1 << (uint(im.fid) % 64)
				cs.touched = append(cs.touched, im.fid)
			}
		}
		for _, cm := range cs.mats {
			if err := p.execMAT(cs, cm, b, i); err != nil {
				cs.resetContext()
				return err
			}
		}
		// Export coordination headers (absent metadata serializes 0).
		for _, ex := range cs.exports {
			v := uint64(0)
			if cs.metaHas[ex.fid/64]&(1<<(uint(ex.fid)%64)) != 0 {
				v = cs.metaVal[ex.fid]
			}
			coord[ex.slot] = v
		}
		cs.resetContext()
	}
	return nil
}

// resetContext clears the per-packet metadata context via the touched
// list.
func (cs *cswitch) resetContext() {
	for _, fid := range cs.touched {
		cs.metaHas[fid/64] &^= 1 << (uint(fid) % 64)
	}
	cs.touched = cs.touched[:0]
}

// readField reads a field for packet i, enforcing the coordination
// contract on metadata: present → value, absent-but-written-upstream →
// hard error, never written → zero.
//
//hermes:hot
func (p *Pipeline) readField(cs *cswitch, b *Batch, i int, ref fieldRef, mat string) (uint64, error) {
	if !ref.meta {
		return b.hdr[i*p.nHdr+int(ref.id)], nil
	}
	if cs.metaHas[ref.id/64]&(1<<(uint(ref.id)%64)) != 0 {
		return cs.metaVal[ref.id], nil
	}
	if b.written[i*p.metaWords+int(ref.id)/64]&(1<<(uint(ref.id)%64)) != 0 {
		return 0, &coordinationError{mat: mat, field: p.metaNames[ref.id]}
	}
	return 0, nil
}

// writeField writes a field for packet i, recording the pre-write
// value the first time this MAT execution touches the field (epoch
// check) for the post-MAT diff.
//
//hermes:hot
func (p *Pipeline) writeField(cs *cswitch, b *Batch, i int, ref fieldRef, v uint64) {
	v &= ref.mask
	enc := int(ref.id)
	if !ref.meta {
		enc += p.nMeta
	}
	if cs.seen[enc] != cs.epoch {
		cs.seen[enc] = cs.epoch
		var old uint64
		var had bool
		if ref.meta {
			had = cs.metaHas[ref.id/64]&(1<<(uint(ref.id)%64)) != 0
			old = cs.metaVal[ref.id]
		} else {
			had = b.hdrHas[i*p.hdrWords+int(ref.id)/64]&(1<<(uint(ref.id)%64)) != 0
			old = b.hdr[i*p.nHdr+int(ref.id)]
		}
		cs.recFid = append(cs.recFid, ref.id)
		cs.recMeta = append(cs.recMeta, ref.meta)
		cs.recOld = append(cs.recOld, old)
		cs.recHad = append(cs.recHad, had)
	}
	if ref.meta {
		if cs.metaHas[ref.id/64]&(1<<(uint(ref.id)%64)) == 0 {
			cs.metaHas[ref.id/64] |= 1 << (uint(ref.id) % 64)
			cs.touched = append(cs.touched, ref.id)
		}
		cs.metaVal[ref.id] = v
		return
	}
	b.hdrHas[i*p.hdrWords+int(ref.id)/64] |= 1 << (uint(ref.id) % 64)
	b.hdr[i*p.nHdr+int(ref.id)] = v
}

// execMAT runs one compiled MAT for packet i: match phase, action, and
// the write diff that feeds the written-bits vector (and the optional
// write log).
//
//hermes:hot
func (p *Pipeline) execMAT(cs *cswitch, cm *cmat, b *Batch, i int) error {
	cs.epoch++
	cs.recFid = cs.recFid[:0]
	cs.recMeta = cs.recMeta[:0]
	cs.recOld = cs.recOld[:0]
	cs.recHad = cs.recHad[:0]

	var ops []cop
	hit := false
	for ri := range cm.rules {
		r := &cm.rules[ri]
		match := true
		for pi, ki := range r.keyIdx {
			k := &cm.keys[ki]
			v, err := p.readField(cs, b, i, k.ref, cm.name)
			if err != nil {
				return err
			}
			if !patternMatches(k.key, r.pats[pi], v) {
				match = false
				break
			}
		}
		if match {
			ops = r.ops
			hit = true
			break
		}
	}
	if !hit {
		// A miss still read the match keys; enforce delivery.
		for ki := range cm.keys {
			if _, err := p.readField(cs, b, i, cm.keys[ki].ref, cm.name); err != nil {
				return err
			}
		}
		if !cm.hasMiss {
			return nil
		}
		ops = cm.missOps
	}

	for oi := range ops {
		op := &ops[oi]
		switch op.kind {
		case program.OpSet:
			p.writeField(cs, b, i, op.dst, op.imm)
		case program.OpCopy:
			v, err := p.readField(cs, b, i, op.srcs[0], cm.name)
			if err != nil {
				return err
			}
			p.writeField(cs, b, i, op.dst, v)
		case program.OpAdd:
			cur, err := p.readField(cs, b, i, op.dst, cm.name)
			if err != nil {
				return err
			}
			var src uint64
			if len(op.srcs) > 0 {
				src, err = p.readField(cs, b, i, op.srcs[0], cm.name)
				if err != nil {
					return err
				}
			}
			p.writeField(cs, b, i, op.dst, cur+src+op.imm)
		case program.OpHash:
			h := uint64(14695981039346656037) // FNV-64a offset basis
			for _, s := range op.srcs {
				v, err := p.readField(cs, b, i, s, cm.name)
				if err != nil {
					return err
				}
				for by := 0; by < 8; by++ {
					h ^= uint64(byte(v >> (8 * uint(by))))
					h *= 1099511628211 // FNV-64 prime
				}
			}
			p.writeField(cs, b, i, op.dst, h)
		case program.OpCount:
			idx, err := p.readField(cs, b, i, op.srcs[0], cm.name)
			if err != nil {
				return err
			}
			slots := p.counters[op.counter]
			slot := idx % uint64(len(slots))
			slots[slot]++
			p.writeField(cs, b, i, op.dst, slots[slot])
		case program.OpDecrement:
			cur, err := p.readField(cs, b, i, op.dst, cm.name)
			if err != nil {
				return err
			}
			dec := op.imm
			if dec == 0 {
				dec = 1
			}
			if cur < dec {
				cur = dec
			}
			p.writeField(cs, b, i, op.dst, cur-dec)
		default:
			return fmt.Errorf("dataplane: MAT %q: unsupported op %v", cm.name, op.kind)
		}
	}

	// Post-MAT diff (the write-log contract, DESIGN.md §13.2): a field
	// counts as written only when this MAT left it changed or newly
	// present.
	for ri, fid := range cs.recFid {
		var cur uint64
		if cs.recMeta[ri] {
			cur = cs.metaVal[fid]
		} else {
			cur = b.hdr[i*p.nHdr+int(fid)]
		}
		if cs.recHad[ri] && cur == cs.recOld[ri] {
			continue
		}
		if cs.recMeta[ri] {
			b.written[i*p.metaWords+int(fid)/64] |= 1 << (uint(fid) % 64)
			if b.writes != nil {
				b.writes[i][p.metaNames[fid]] = cur
			}
		} else if b.writes != nil {
			b.writes[i][p.hdrNames[fid]] = cur
		}
	}
	return nil
}
