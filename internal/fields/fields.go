// Package fields defines the packet header and metadata fields that
// match-action tables (MATs) read and write.
//
// Fields come in two kinds. Header fields (e.g. the IPv4 source address)
// already travel inside every packet, so passing them between switches is
// free. Metadata fields (e.g. a counter index computed by a hash stage)
// exist only inside a switch pipeline; when a downstream MAT on another
// switch needs them they must be piggybacked on the packet, which is
// exactly the per-packet byte overhead Hermes minimizes (paper §II-B).
//
// The package also ships the standard catalog from Table I of the paper:
// switch identifiers (4 B), queue lengths (6 B), timestamps (12 B), and
// counter indexes (4 B).
package fields

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Kind classifies a field as a packet header field or pipeline metadata.
type Kind int

const (
	// KindHeader is a field that is part of the packet on the wire.
	KindHeader Kind = iota + 1
	// KindMetadata is a field that exists only inside a switch pipeline
	// and must be piggybacked to cross a switch boundary.
	KindMetadata
)

// String returns a human-readable kind name.
func (k Kind) String() string {
	switch k {
	case KindHeader:
		return "header"
	case KindMetadata:
		return "metadata"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Valid reports whether k is a defined kind.
func (k Kind) Valid() bool {
	return k == KindHeader || k == KindMetadata
}

// Field describes a single named field.
type Field struct {
	// Name uniquely identifies the field, e.g. "ipv4.srcAddr" or
	// "meta.cm_index0".
	Name string `json:"name"`
	// Kind says whether the field is a header field or metadata.
	Kind Kind `json:"kind"`
	// Bits is the field width in bits.
	Bits int `json:"bits"`
}

// Bytes returns the field size in whole bytes, rounding the bit width up.
// Alg. 1 of the paper accumulates size(f) in bytes; switch pipelines
// serialize piggybacked metadata on byte boundaries.
func (f Field) Bytes() int {
	return (f.Bits + 7) / 8
}

// IsMetadata reports whether the field is pipeline metadata.
func (f Field) IsMetadata() bool {
	return f.Kind == KindMetadata
}

// Validate checks the field for structural problems.
func (f Field) Validate() error {
	if f.Name == "" {
		return fmt.Errorf("field has empty name")
	}
	if !f.Kind.Valid() {
		return fmt.Errorf("field %q: invalid kind %d", f.Name, int(f.Kind))
	}
	if f.Bits <= 0 {
		return fmt.Errorf("field %q: non-positive width %d bits", f.Name, f.Bits)
	}
	return nil
}

// String renders the field as name:kind:bits.
func (f Field) String() string {
	return fmt.Sprintf("%s:%s:%db", f.Name, f.Kind, f.Bits)
}

// Header constructs a header field with the given name and bit width.
func Header(name string, bits int) Field {
	return Field{Name: name, Kind: KindHeader, Bits: bits}
}

// Metadata constructs a metadata field with the given name and bit width.
func Metadata(name string, bits int) Field {
	return Field{Name: name, Kind: KindMetadata, Bits: bits}
}

// Set is an immutable-by-convention collection of fields keyed by name.
// The zero value is an empty, usable set.
type Set struct {
	byName map[string]Field
}

// NewSet builds a set from the given fields. Duplicate names must carry
// identical definitions; otherwise NewSet returns an error.
func NewSet(fs ...Field) (Set, error) {
	s := Set{byName: make(map[string]Field, len(fs))}
	for _, f := range fs {
		if err := f.Validate(); err != nil {
			return Set{}, err
		}
		if prev, ok := s.byName[f.Name]; ok && prev != f {
			return Set{}, Conflict(prev, f)
		}
		s.byName[f.Name] = f
	}
	return s, nil
}

// Conflict is the error for one field name given two definitions.
func Conflict(prev, f Field) error {
	return fmt.Errorf("conflicting definitions for field %q: %v vs %v", f.Name, prev, f)
}

// Canonical turns fs, in place, into a sorted field list: name order,
// one entry per name. It returns the shortened slice, or an error for an
// invalid field or a name given two definitions — the same checks as
// NewSet, without the map. Sorted lists are what MAT footprints and
// coordination headers are made of; Overlap tests two of them by merge.
func Canonical(fs []Field) ([]Field, error) {
	for _, f := range fs {
		if err := f.Validate(); err != nil {
			return nil, err
		}
	}
	slices.SortFunc(fs, func(a, b Field) int { return strings.Compare(a.Name, b.Name) })
	n := 0
	for _, f := range fs {
		if n > 0 && fs[n-1].Name == f.Name {
			if fs[n-1] != f {
				return nil, Conflict(fs[n-1], f)
			}
			continue
		}
		fs[n] = f
		n++
	}
	return fs[:n], nil
}

// Overlap reports whether two sorted field lists share a name.
func Overlap(a, b []Field) bool {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch c := strings.Compare(a[i].Name, b[j].Name); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			return true
		}
	}
	return false
}

// Signature sets one of 64 bits per field of list, picked by a hash of
// the name's length and last eight bytes: two lists can share a name
// only if their signatures meet.
func Signature(list []Field) uint64 {
	var sig uint64
	for _, f := range list {
		h := uint64(len(f.Name))
		for _, c := range []byte(f.Name[max(0, len(f.Name)-8):]) {
			h = h<<8 | uint64(c)
		}
		sig |= 1 << (h * 0x9e3779b97f4a7c15 >> 58)
	}
	return sig
}

// MustSet is NewSet but panics on error; intended for static catalogs.
func MustSet(fs ...Field) Set {
	s, err := NewSet(fs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Get returns the field with the given name.
func (s Set) Get(name string) (Field, bool) {
	f, ok := s.byName[name]
	return f, ok
}

// Fields returns the fields sorted by name. The returned slice is fresh.
func (s Set) Fields() []Field {
	out := make([]Field, 0, len(s.byName))
	for _, f := range s.byName {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the sorted field names.
func (s Set) Names() []string {
	out := make([]string, 0, len(s.byName))
	for name := range s.byName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Union returns a new set holding every field from s and t. Conflicting
// definitions of the same name cause an error.
func (s Set) Union(t Set) (Set, error) {
	fs := s.Fields()
	fs = append(fs, t.Fields()...)
	return NewSet(fs...)
}

// Overlaps reports whether the two sets share at least one field name.
func (s Set) Overlaps(t Set) bool {
	// Iterate over the smaller map.
	small, big := s.byName, t.byName
	if len(big) < len(small) {
		small, big = big, small
	}
	for name := range small {
		if _, ok := big[name]; ok {
			return true
		}
	}
	return false
}

// TotalBytes sums the byte sizes of all fields in the set.
func (s Set) TotalBytes() int {
	total := 0
	for _, f := range s.byName {
		total += f.Bytes()
	}
	return total
}

// String renders the sorted field names, e.g. "{a, b, c}".
func (s Set) String() string {
	return "{" + strings.Join(s.Names(), ", ") + "}"
}
