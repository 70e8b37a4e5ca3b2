// Package dataplane is a packet-level pipeline simulator: the
// substitute for the paper's Tofino testbed. It executes deployed MATs
// against packets — matching rules, running actions, maintaining
// stateful counters — and enforces the coordination contract: a MAT
// may only read metadata that was produced on its own switch or
// delivered by an upstream coordination header. Reading metadata that
// an upstream switch produced but did not piggyback is a hard error,
// which is exactly the failure mode Hermes' inter-switch coordination
// must prevent.
package dataplane

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"

	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/program"
)

// Packet carries header field values. Metadata never enters a Packet
// directly; it lives in per-switch contexts and coordination headers.
type Packet struct {
	// Headers maps header field name to value.
	Headers map[string]uint64
}

// Clone returns an independent copy.
func (p *Packet) Clone() *Packet {
	out := &Packet{Headers: make(map[string]uint64, len(p.Headers))}
	for k, v := range p.Headers {
		out.Headers[k] = v
	}
	return out
}

// context is the single box's field view: the packet's headers plus
// every metadata field written so far.
type context struct {
	pkt  *Packet
	meta map[string]uint64
	// rec holds, for each field the running MAT has written, the value
	// it had before the MAT's first write — what the post-MAT write diff
	// compares against. The caller drains it between MATs.
	rec []preWrite
}

// preWrite is one field's state before a MAT first wrote it.
type preWrite struct {
	f   fields.Field
	old uint64
	had bool
}

func newContext(pkt *Packet) *context {
	return &context{pkt: pkt, meta: map[string]uint64{}}
}

// values returns the map holding f: metadata or the packet's headers.
func (c *context) values(f fields.Field) map[string]uint64 {
	if f.IsMetadata() {
		return c.meta
	}
	return c.pkt.Headers
}

// get reads a field value. ok reports whether the metadata field is
// available in this context (header fields are always available).
func (c *context) get(f fields.Field) (uint64, bool) {
	v, ok := c.values(f)[f.Name]
	return v, ok || !f.IsMetadata()
}

// set writes a field value, recording its pre-value on the running
// MAT's first write to it.
func (c *context) set(f fields.Field, v uint64) {
	vals := c.values(f)
	recorded := func(w preWrite) bool { return w.f.Name == f.Name && w.f.IsMetadata() == f.IsMetadata() }
	if !slices.ContainsFunc(c.rec, recorded) {
		old, had := vals[f.Name]
		c.rec = append(c.rec, preWrite{f: f, old: old, had: had})
	}
	vals[f.Name] = v & widthMask(f.Bits)
}

func widthMask(bits int) uint64 {
	if bits >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(bits)) - 1
}

const defaultCounterSlots = 1 << 12

// matExecutor runs MATs with shared stateful registers.
type matExecutor struct {
	// counters holds each counting MAT's register array, by MAT name.
	counters map[string][]uint64
	// rules caches each MAT's rules in match order, sorted on first use.
	rules map[*program.MAT][]program.Rule
}

func newMATExecutor() *matExecutor {
	return &matExecutor{counters: map[string][]uint64{}, rules: map[*program.MAT][]program.Rule{}}
}

// coordinationError marks a read of metadata that should have been
// delivered by inter-switch coordination but was not.
type coordinationError struct {
	mat, field string
}

func (e *coordinationError) Error() string {
	return fmt.Sprintf("dataplane: MAT %q reads metadata %q that was not delivered to its switch", e.mat, e.field)
}

// execute runs one MAT against the context. written is the set of
// metadata fields produced anywhere upstream (global knowledge used to
// distinguish "never written, default zero" from "written but not
// delivered").
func (x *matExecutor) execute(m *program.MAT, c *context, written map[string]bool) error {
	read := func(f fields.Field) (uint64, error) {
		v, ok := c.get(f)
		if !ok && f.IsMetadata() && written[f.Name] {
			return 0, &coordinationError{mat: m.Name, field: f.Name}
		}
		return v, nil
	}

	// Match phase.
	var chosen *program.Rule
	rules, ok := x.rules[m]
	if !ok {
		rules = sortedRules(m)
		x.rules[m] = rules
	}
	for i := range rules {
		r := &rules[i]
		hit := true
		for _, k := range m.Keys {
			pat, constrained := r.Matches[k.Field.Name]
			if !constrained {
				continue
			}
			v, err := read(k.Field)
			if err != nil {
				return err
			}
			if !patternMatches(k, pat, v) {
				hit = false
				break
			}
		}
		if hit {
			chosen = r
			break
		}
	}
	// Even on a miss, the match keys were read; enforce delivery for
	// metadata keys regardless of rule presence.
	if chosen == nil {
		for _, k := range m.Keys {
			if _, err := read(k.Field); err != nil {
				return err
			}
		}
	}

	actionName := m.DefaultAction
	var params map[string]uint64
	if chosen != nil {
		actionName = chosen.Action
		params = chosen.Params
	}
	if actionName == "" {
		return nil // miss with no default: no-op
	}
	act, ok := m.Action(actionName)
	if !ok {
		return fmt.Errorf("dataplane: MAT %q references unknown action %q", m.Name, actionName)
	}
	return x.runAction(m, act, params, c, read)
}

func (x *matExecutor) runAction(m *program.MAT, act program.Action, params map[string]uint64, c *context, read func(fields.Field) (uint64, error)) error {
	for _, op := range act.Ops {
		switch op.Kind {
		case program.OpSet:
			v := op.Imm
			if pv, ok := params[op.Dst.Name]; ok {
				v = pv
			}
			c.set(op.Dst, v)
		case program.OpCopy:
			v, err := read(op.Srcs[0])
			if err != nil {
				return err
			}
			c.set(op.Dst, v)
		case program.OpAdd:
			cur, err := read(op.Dst)
			if err != nil {
				return err
			}
			var src uint64
			if len(op.Srcs) > 0 {
				src, err = read(op.Srcs[0])
				if err != nil {
					return err
				}
			}
			c.set(op.Dst, cur+src+op.Imm)
		case program.OpHash:
			h := fnv.New64a()
			for _, s := range op.Srcs {
				v, err := read(s)
				if err != nil {
					return err
				}
				var buf [8]byte
				for i := 0; i < 8; i++ {
					buf[i] = byte(v >> (8 * uint(i)))
				}
				if _, err := h.Write(buf[:]); err != nil {
					return fmt.Errorf("dataplane: hashing: %w", err)
				}
			}
			c.set(op.Dst, h.Sum64())
		case program.OpCount:
			idx, err := read(op.Srcs[0])
			if err != nil {
				return err
			}
			slots := x.counters[m.Name]
			if slots == nil {
				slots = make([]uint64, defaultCounterSlots)
				x.counters[m.Name] = slots
			}
			slot := idx % uint64(len(slots))
			slots[slot]++
			c.set(op.Dst, slots[slot])
		case program.OpDecrement:
			cur, err := read(op.Dst)
			if err != nil {
				return err
			}
			dec := op.Imm
			if dec == 0 {
				dec = 1
			}
			if cur < dec {
				cur = dec
			}
			c.set(op.Dst, cur-dec)
		default:
			return fmt.Errorf("dataplane: MAT %q action %q: unsupported op %v", m.Name, act.Name, op.Kind)
		}
	}
	return nil
}

// sortedRules returns the rules ordered by descending priority, stable
// in installation order.
func sortedRules(m *program.MAT) []program.Rule {
	out := append([]program.Rule(nil), m.Rules...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Priority > out[j].Priority })
	return out
}

// patternMatches evaluates one match pattern against a value.
func patternMatches(k program.MatchKey, pat program.Pattern, v uint64) bool {
	switch k.Type {
	case program.MatchExact:
		return v == pat.Value
	case program.MatchLPM:
		bits := k.Field.Bits
		if bits > 64 {
			bits = 64
		}
		if pat.PrefixLen <= 0 {
			return true // zero-length prefix matches everything
		}
		shift := uint(bits - pat.PrefixLen)
		return (v >> shift) == (pat.Value >> shift)
	case program.MatchTernary:
		// A zero mask is a full wildcard (standard ternary semantics).
		return v&pat.Mask == pat.Value&pat.Mask
	case program.MatchRange:
		return v >= pat.Lo && v <= pat.Hi
	default:
		return false
	}
}
