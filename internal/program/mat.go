// Package program models data plane programs as collections of
// match-action tables (MATs), mirroring §IV of the Hermes paper.
//
// Each MAT a carries the five properties the paper lists: the set F_a^m
// of matching fields, the set A_a of actions, the set F_a^a of fields
// modified by those actions, the rule set R_a, and the rule capacity
// C_a. A Program is an ordered collection of MATs together with
// explicitly declared control-flow (successor) edges; the remaining
// dependency kinds are inferred from field read/write sets by the tdg
// package.
package program

import (
	"fmt"

	"github.com/hermes-net/hermes/internal/fields"
)

// MatchType describes how a MAT matches a field.
type MatchType int

const (
	// MatchExact matches the full field value.
	MatchExact MatchType = iota + 1
	// MatchLPM performs longest-prefix matching.
	MatchLPM
	// MatchTernary matches under a mask with rule priorities.
	MatchTernary
	// MatchRange matches a value range.
	MatchRange
)

// String returns the P4-style name of the match type.
func (m MatchType) String() string {
	switch m {
	case MatchExact:
		return "exact"
	case MatchLPM:
		return "lpm"
	case MatchTernary:
		return "ternary"
	case MatchRange:
		return "range"
	default:
		return fmt.Sprintf("MatchType(%d)", int(m))
	}
}

// Valid reports whether m is a defined match type.
func (m MatchType) Valid() bool {
	return m >= MatchExact && m <= MatchRange
}

// MatchKey is a single (field, match type) pair in a MAT's match key.
type MatchKey struct {
	Field fields.Field `json:"field"`
	Type  MatchType    `json:"type"`
}

// Validate checks the match key.
func (k MatchKey) Validate() error {
	if err := k.Field.Validate(); err != nil {
		return fmt.Errorf("match key: %w", err)
	}
	if !k.Type.Valid() {
		return fmt.Errorf("match key on %q: invalid match type %d", k.Field.Name, int(k.Type))
	}
	return nil
}

// OpKind is the kind of primitive operation an action performs.
type OpKind int

const (
	// OpSet writes a constant or action parameter into the destination.
	OpSet OpKind = iota + 1
	// OpCopy copies the source field into the destination field.
	OpCopy
	// OpAdd adds the source field (or the immediate) to the destination.
	OpAdd
	// OpHash writes a hash of the source fields into the destination.
	OpHash
	// OpCount increments a counter indexed by the source field; the
	// destination receives the resulting count.
	OpCount
	// OpDecrement decrements the destination (e.g. TTL).
	OpDecrement
)

// String names the op kind.
func (o OpKind) String() string {
	switch o {
	case OpSet:
		return "set"
	case OpCopy:
		return "copy"
	case OpAdd:
		return "add"
	case OpHash:
		return "hash"
	case OpCount:
		return "count"
	case OpDecrement:
		return "dec"
	default:
		return fmt.Sprintf("OpKind(%d)", int(o))
	}
}

// Valid reports whether o is a defined op kind.
func (o OpKind) Valid() bool { return o >= OpSet && o <= OpDecrement }

// readsDst reports whether the op reads its destination before writing
// it (read-modify-write).
func (o OpKind) readsDst() bool { return o == OpAdd || o == OpDecrement || o == OpCount }

// Op is one primitive operation inside an action.
type Op struct {
	Kind OpKind `json:"kind"`
	// Dst is the field written by the operation.
	Dst fields.Field `json:"dst"`
	// Srcs are the fields read by the operation (empty for OpSet with an
	// immediate and for OpDecrement).
	Srcs []fields.Field `json:"srcs,omitempty"`
	// Imm is an immediate operand for OpSet/OpAdd.
	Imm uint64 `json:"imm,omitempty"`
}

// Validate checks the operation.
func (op Op) Validate() error {
	if !op.Kind.Valid() {
		return fmt.Errorf("op: invalid kind %d", int(op.Kind))
	}
	if err := op.Dst.Validate(); err != nil {
		return fmt.Errorf("op %s dst: %w", op.Kind, err)
	}
	for _, s := range op.Srcs {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("op %s src: %w", op.Kind, err)
		}
	}
	switch op.Kind {
	case OpCopy, OpHash, OpCount:
		if len(op.Srcs) == 0 {
			return fmt.Errorf("op %s on %q: needs at least one source", op.Kind, op.Dst.Name)
		}
	}
	return nil
}

// Action is a named sequence of primitive operations.
type Action struct {
	Name string `json:"name"`
	Ops  []Op   `json:"ops"`
}

// Validate checks the action.
func (a Action) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("action has empty name")
	}
	for i, op := range a.Ops {
		if err := op.Validate(); err != nil {
			return fmt.Errorf("action %q op %d: %w", a.Name, i, err)
		}
	}
	return nil
}

// Rule is one user-installed entry of a MAT.
type Rule struct {
	// Priority orders ternary rules; higher wins.
	Priority int `json:"priority"`
	// Matches maps field name to the match pattern for that field. A
	// field absent from the map is wildcarded.
	Matches map[string]Pattern `json:"matches"`
	// Action names the action to run on a hit.
	Action string `json:"action"`
	// Params are bound to OpSet immediates at execution time, keyed by
	// destination field name.
	Params map[string]uint64 `json:"params,omitempty"`
}

// Pattern matches a field value.
type Pattern struct {
	// Value is the match value.
	Value uint64 `json:"value"`
	// Mask selects which bits of Value are significant in ternary
	// patterns; a zero mask is a full wildcard.
	Mask uint64 `json:"mask,omitempty"`
	// PrefixLen is used by LPM patterns.
	PrefixLen int `json:"prefix_len,omitempty"`
	// Lo and Hi bound range patterns inclusively.
	Lo uint64 `json:"lo,omitempty"`
	Hi uint64 `json:"hi,omitempty"`
}

// MAT is a match-action table.
type MAT struct {
	// Name uniquely identifies the MAT within a merged TDG. Program
	// builders prefix it with the program name.
	Name string `json:"name"`
	// Keys is the match key (F_a^m with match types).
	Keys []MatchKey `json:"keys"`
	// Actions is the action set A_a.
	Actions []Action `json:"actions"`
	// Rules is the installed rule set R_a.
	Rules []Rule `json:"rules,omitempty"`
	// Capacity is C_a, the maximum number of rules.
	Capacity int `json:"capacity"`
	// DefaultAction names the action performed on a miss; empty means
	// no-op on miss.
	DefaultAction string `json:"default_action,omitempty"`
	// FixedRequirement, when positive, overrides the computed resource
	// requirement R(a) with a fixed normalized value. The synthetic
	// workload generator uses it to reproduce the paper's setting of
	// uniform 10-50% per-stage consumption per MAT.
	FixedRequirement float64 `json:"fixed_requirement,omitempty"`
}

// Footprint is what a MAT reads and writes, as Algorithm 1 consumes it:
// two sorted field lists (fields.Canonical: name order, one entry per
// name) and the metadata bytes of the writes. A side whose fields fail
// validation or give one name two definitions is nil and carries its
// error instead, so a caller fails only on the side it consults — A(a,b)
// reads only a's writes, plus b's writes on an action dependency;
// dependency inference reads both sides of both.
type Footprint struct {
	// Reads holds the match keys, every op source, and the destination
	// of each read-modify-write op (add, dec, count).
	Reads []fields.Field
	// Writes holds every op destination: F_a^a.
	Writes []fields.Field
	// WriteMetaBytes is Σ size(f) over the metadata fields of Writes.
	WriteMetaBytes int
	// ReadErr and WriteErr are the derivation errors of each side.
	ReadErr, WriteErr error
}

// Footprint derives the MAT's footprint from its keys and ops, into one
// allocation shared by both lists.
func (m *MAT) Footprint() Footprint {
	nr, nw := len(m.Keys), 0
	for _, a := range m.Actions {
		for _, op := range a.Ops {
			nr += len(op.Srcs)
			if op.Kind.readsDst() {
				nr++
			}
		}
		nw += len(a.Ops)
	}
	buf := make([]fields.Field, 0, nr+nw)
	for _, k := range m.Keys {
		buf = append(buf, k.Field)
	}
	for _, a := range m.Actions {
		for _, op := range a.Ops {
			buf = append(buf, op.Srcs...)
			if op.Kind.readsDst() {
				buf = append(buf, op.Dst)
			}
		}
	}
	for _, a := range m.Actions {
		for _, op := range a.Ops {
			buf = append(buf, op.Dst)
		}
	}
	var fp Footprint
	if fp.Reads, fp.ReadErr = fields.Canonical(buf[:nr:nr]); fp.ReadErr != nil {
		fp.ReadErr = fmt.Errorf("MAT %q: %w", m.Name, fp.ReadErr)
	}
	if fp.Writes, fp.WriteErr = fields.Canonical(buf[nr:]); fp.WriteErr != nil {
		fp.WriteErr = fmt.Errorf("MAT %q: %w", m.Name, fp.WriteErr)
	}
	for _, f := range fp.Writes {
		if f.IsMetadata() {
			fp.WriteMetaBytes += f.Bytes()
		}
	}
	return fp
}

// Action returns the named action.
func (m *MAT) Action(name string) (Action, bool) {
	for _, a := range m.Actions {
		if a.Name == name {
			return a, true
		}
	}
	return Action{}, false
}

// Validate checks the MAT for structural problems. A table has a
// handful of keys and actions, so names are looked up by linear scan.
func (m *MAT) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("MAT has empty name")
	}
	if m.Capacity <= 0 {
		return fmt.Errorf("MAT %q: non-positive capacity %d", m.Name, m.Capacity)
	}
	for i, k := range m.Keys {
		if err := k.Validate(); err != nil {
			return fmt.Errorf("MAT %q: %w", m.Name, err)
		}
		if hasKey(m.Keys[:i], k.Field.Name) {
			return fmt.Errorf("MAT %q: duplicate match key %q", m.Name, k.Field.Name)
		}
	}
	if len(m.Actions) == 0 {
		return fmt.Errorf("MAT %q: no actions", m.Name)
	}
	for i, a := range m.Actions {
		if err := a.Validate(); err != nil {
			return fmt.Errorf("MAT %q: %w", m.Name, err)
		}
		if hasAction(m.Actions[:i], a.Name) {
			return fmt.Errorf("MAT %q: duplicate action %q", m.Name, a.Name)
		}
	}
	if m.DefaultAction != "" && !hasAction(m.Actions, m.DefaultAction) {
		return fmt.Errorf("MAT %q: unknown default action %q", m.Name, m.DefaultAction)
	}
	if len(m.Rules) > m.Capacity {
		return fmt.Errorf("MAT %q: %d rules exceed capacity %d", m.Name, len(m.Rules), m.Capacity)
	}
	for i, r := range m.Rules {
		if !hasAction(m.Actions, r.Action) {
			return fmt.Errorf("MAT %q rule %d: unknown action %q", m.Name, i, r.Action)
		}
		for fname := range r.Matches {
			if !hasKey(m.Keys, fname) {
				return fmt.Errorf("MAT %q rule %d: match on non-key field %q", m.Name, i, fname)
			}
		}
	}
	return nil
}

func hasKey(keys []MatchKey, name string) bool {
	for _, k := range keys {
		if k.Field.Name == name {
			return true
		}
	}
	return false
}

func hasAction(actions []Action, name string) bool {
	for _, a := range actions {
		if a.Name == name {
			return true
		}
	}
	return false
}

// ValidateRule checks one rule against the MAT's definition without
// installing it: the action must exist, every matched field must be a
// key, and set parameters must target fields the action writes.
func (m *MAT) ValidateRule(r Rule) error {
	act, ok := m.Action(r.Action)
	if !ok {
		return fmt.Errorf("MAT %q: rule references unknown action %q", m.Name, r.Action)
	}
	keys := make(map[string]bool, len(m.Keys))
	for _, k := range m.Keys {
		keys[k.Field.Name] = true
	}
	for fname := range r.Matches {
		if !keys[fname] {
			return fmt.Errorf("MAT %q: rule matches non-key field %q", m.Name, fname)
		}
	}
	writes := make(map[string]bool, len(act.Ops))
	for _, op := range act.Ops {
		writes[op.Dst.Name] = true
	}
	for fname := range r.Params {
		if !writes[fname] {
			return fmt.Errorf("MAT %q: rule parameter for field %q that action %q never writes",
				m.Name, fname, act.Name)
		}
	}
	return nil
}

// Equivalent reports whether two MATs have identical properties apart
// from their names: the same match keys, actions, capacity and rules.
// SPEED's merger treats equivalent MATs as redundant (paper §IV). Keys
// and actions compare as multisets, so their declaration order does
// not matter; rules compare positionally. It does not allocate: the
// merger calls it on every candidate of an equivalence bucket.
func (m *MAT) Equivalent(o *MAT) bool {
	if m.Capacity != o.Capacity || len(m.Keys) != len(o.Keys) ||
		len(m.Actions) != len(o.Actions) || len(m.Rules) != len(o.Rules) ||
		m.DefaultAction != o.DefaultAction ||
		m.FixedRequirement != o.FixedRequirement {
		return false
	}
	if !sameMultiset(m.Keys, o.Keys, func(a, b MatchKey) bool { return a == b }) ||
		!sameMultiset(m.Actions, o.Actions, actionsEqual) {
		return false
	}
	// Rules are compared positionally: installed rule order matters for
	// ternary priorities.
	for i := range m.Rules {
		if !rulesEqual(m.Rules[i], o.Rules[i]) {
			return false
		}
	}
	return true
}

// sameMultiset reports whether a and b, of equal length, hold the same
// elements as often each. The common prefix is skipped (clones list
// them in one order); past it, each element's count in a must equal
// its count in b, which with equal lengths leaves b no extra element.
// Key and action lists are a handful long, so the quadratic count beats
// sorting copies.
func sameMultiset[T any](a, b []T, eq func(x, y T) bool) bool {
	i := 0
	for i < len(a) && eq(a[i], b[i]) {
		i++
	}
	a, b = a[i:], b[i:]
	for _, x := range a {
		na, nb := 0, 0
		for k := range a {
			if eq(a[k], x) {
				na++
			}
			if eq(b[k], x) {
				nb++
			}
		}
		if na != nb {
			return false
		}
	}
	return true
}

func actionsEqual(a, b Action) bool {
	if a.Name != b.Name || len(a.Ops) != len(b.Ops) {
		return false
	}
	for i := range a.Ops {
		if !opsEqual(a.Ops[i], b.Ops[i]) {
			return false
		}
	}
	return true
}

func opsEqual(a, b Op) bool {
	if a.Kind != b.Kind || a.Dst != b.Dst || a.Imm != b.Imm || len(a.Srcs) != len(b.Srcs) {
		return false
	}
	for i := range a.Srcs {
		if a.Srcs[i] != b.Srcs[i] {
			return false
		}
	}
	return true
}

func rulesEqual(a, b Rule) bool {
	if a.Priority != b.Priority || a.Action != b.Action ||
		len(a.Matches) != len(b.Matches) || len(a.Params) != len(b.Params) {
		return false
	}
	for k, v := range a.Matches {
		if b.Matches[k] != v {
			return false
		}
	}
	for k, v := range a.Params {
		if b.Params[k] != v {
			return false
		}
	}
	return true
}
