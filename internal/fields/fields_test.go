package fields

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestFieldBytes(t *testing.T) {
	tests := []struct {
		name string
		bits int
		want int
	}{
		{"one bit rounds up", 1, 1},
		{"seven bits", 7, 1},
		{"exact byte", 8, 1},
		{"nine bits", 9, 2},
		{"ipv4 addr", 32, 4},
		{"timestamp", 96, 12},
		{"queue len", 48, 6},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			f := Metadata("m", tt.bits)
			if got := f.Bytes(); got != tt.want {
				t.Errorf("Bytes() = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestFieldValidate(t *testing.T) {
	tests := []struct {
		name    string
		field   Field
		wantErr bool
	}{
		{"valid header", Header("h", 8), false},
		{"valid metadata", Metadata("m", 8), false},
		{"empty name", Field{Kind: KindHeader, Bits: 8}, true},
		{"zero bits", Field{Name: "x", Kind: KindHeader}, true},
		{"negative bits", Field{Name: "x", Kind: KindHeader, Bits: -1}, true},
		{"invalid kind", Field{Name: "x", Bits: 8}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.field.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestKindString(t *testing.T) {
	if KindHeader.String() != "header" || KindMetadata.String() != "metadata" {
		t.Errorf("unexpected kind strings: %v %v", KindHeader, KindMetadata)
	}
	if Kind(0).Valid() || Kind(3).Valid() {
		t.Error("out-of-range kinds reported valid")
	}
}

func TestNewSetRejectsConflicts(t *testing.T) {
	if _, err := NewSet(Header("a", 8), Metadata("a", 8)); err == nil {
		t.Fatal("NewSet accepted conflicting duplicate definitions")
	}
	s, err := NewSet(Header("a", 8), Header("a", 8))
	if err != nil {
		t.Fatalf("NewSet rejected identical duplicates: %v", err)
	}
	if n := len(s.Names()); n != 1 {
		t.Errorf("len(Names()) = %d, want 1", n)
	}
}

func TestNewSetRejectsInvalidField(t *testing.T) {
	if _, err := NewSet(Field{Name: "", Kind: KindHeader, Bits: 4}); err == nil {
		t.Fatal("NewSet accepted invalid field")
	}
}

func TestSetOperations(t *testing.T) {
	a := MustSet(Header("h1", 8), Metadata("m1", 32), Metadata("m2", 16))
	b := MustSet(Metadata("m1", 32), Metadata("m3", 8))

	t.Run("union", func(t *testing.T) {
		u, err := a.Union(b)
		if err != nil {
			t.Fatalf("Union: %v", err)
		}
		want := []string{"h1", "m1", "m2", "m3"}
		got := u.Names()
		if len(got) != len(want) {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("Names()[%d] = %q, want %q", i, got[i], want[i])
			}
		}
	})

	t.Run("union conflict", func(t *testing.T) {
		c := MustSet(Header("m1", 32)) // same name, different kind
		if _, err := a.Union(c); err == nil {
			t.Fatal("Union accepted conflicting field definitions")
		}
	})

	t.Run("overlaps", func(t *testing.T) {
		if !a.Overlaps(b) {
			t.Error("Overlaps = false, want true")
		}
		c := MustSet(Header("z", 8))
		if a.Overlaps(c) {
			t.Error("Overlaps with disjoint set = true, want false")
		}
		var empty Set
		if a.Overlaps(empty) || empty.Overlaps(a) {
			t.Error("Overlaps with empty set = true")
		}
	})

	t.Run("total bytes", func(t *testing.T) {
		// h1 is 1 byte, m1 is 4 bytes, m2 is 2 bytes.
		if got := a.TotalBytes(); got != 7 {
			t.Errorf("TotalBytes() = %d, want 7", got)
		}
	})

	t.Run("get", func(t *testing.T) {
		if f, ok := a.Get("m1"); !ok || f != Metadata("m1", 32) {
			t.Errorf("Get(m1) = %v, %v; want %v, true", f, ok, Metadata("m1", 32))
		}
		if f, ok := a.Get("m3"); ok {
			t.Errorf("Get(m3) = %v, true; want absent", f)
		}
		var empty Set
		if _, ok := empty.Get("m1"); ok {
			t.Error("Get on empty set found a field")
		}
	})
}

func TestZeroValueSetUsable(t *testing.T) {
	var s Set
	if _, ok := s.Get("x"); ok || len(s.Names()) != 0 || s.TotalBytes() != 0 {
		t.Error("zero-value Set misbehaves")
	}
	if got := s.String(); got != "{}" {
		t.Errorf("String() = %q, want {}", got)
	}
}

func TestTableIMetadataSizes(t *testing.T) {
	// The exact sizes from Table I of the paper.
	tests := []struct {
		name  string
		bytes int
	}{
		{MetaSwitchID, 4},
		{MetaQueueLen, 6},
		{MetaTimestamp, 12},
		{MetaCounterIndex, 4},
	}
	cat := Catalog()
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			f, ok := cat.Get(tt.name)
			if !ok {
				t.Fatalf("catalog missing %q", tt.name)
			}
			if !f.IsMetadata() {
				t.Errorf("%q is not metadata", tt.name)
			}
			if f.Bytes() != tt.bytes {
				t.Errorf("%q = %d bytes, want %d", tt.name, f.Bytes(), tt.bytes)
			}
		})
	}
}

func TestCatalogFieldPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CatalogField did not panic on unknown field")
		}
	}()
	CatalogField("no.such.field")
}

func TestCatalogHeadersAreHeaders(t *testing.T) {
	cat := Catalog()
	for _, name := range []string{EthDst, IPv4Src, TCPDst, UDPSrc} {
		f, ok := cat.Get(name)
		if !ok {
			t.Fatalf("catalog missing %q", name)
		}
		if f.IsMetadata() {
			t.Errorf("%q unexpectedly metadata", name)
		}
	}
}

// Property: union is commutative and idempotent on valid sets.
func TestSetUnionProperties(t *testing.T) {
	mk := func(names []uint8) Set {
		fs := make([]Field, 0, len(names))
		for _, n := range names {
			fs = append(fs, Metadata(string(rune('a'+n%16)), int(n%31)+1))
		}
		// Duplicate names with different widths may conflict; dedupe by name.
		seen := map[string]bool{}
		out := fs[:0]
		for _, f := range fs {
			if !seen[f.Name] {
				seen[f.Name] = true
				out = append(out, f)
			}
		}
		return MustSet(out...)
	}
	prop := func(xs, ys []uint8) bool {
		a, b := mk(xs), mk(ys)
		ab, err1 := a.Union(b)
		ba, err2 := b.Union(a)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true // conflicting widths on the same name: both fail
		}
		aa, err := a.Union(a)
		if err != nil || !slices.Equal(aa.Fields(), a.Fields()) {
			return false
		}
		return slices.Equal(ab.Fields(), ba.Fields())
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: the metadata bytes of a union (every field here is
// metadata, so its TotalBytes) never exceed the sum of the parts and
// never fall below the max of the parts.
func TestMetadataBytesUnionBounds(t *testing.T) {
	prop := func(xs, ys []uint8) bool {
		mk := func(names []uint8, prefix string) Set {
			seen := map[string]bool{}
			var fs []Field
			for _, n := range names {
				name := prefix + string(rune('a'+n%8))
				if seen[name] {
					continue
				}
				seen[name] = true
				fs = append(fs, Metadata(name, int(n%31)+1))
			}
			return MustSet(fs...)
		}
		a, b := mk(xs, "x."), mk(ys, "y.") // disjoint prefixes: union always valid
		u, err := a.Union(b)
		if err != nil {
			return false
		}
		sum := a.TotalBytes() + b.TotalBytes()
		lo := max(a.TotalBytes(), b.TotalBytes())
		got := u.TotalBytes()
		return got <= sum && got >= lo
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestCanonicalSortsDedupesAndRejectsConflicts(t *testing.T) {
	a, b, c := Metadata("a", 8), Header("b", 16), Metadata("c", 32)
	got, err := Canonical([]Field{c, a, b, a, c})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != a || got[1] != b || got[2] != c {
		t.Errorf("Canonical = %v, want [a b c]", got)
	}
	if _, err := Canonical([]Field{a, Metadata("a", 16)}); err == nil {
		t.Error("Canonical accepted two definitions of one name")
	}
	if _, err := Canonical([]Field{a, {Name: "z", Kind: KindHeader}}); err == nil {
		t.Error("Canonical accepted an invalid field")
	}
	if got, err := Canonical(nil); err != nil || len(got) != 0 {
		t.Errorf("Canonical(nil) = %v, %v", got, err)
	}
}

func TestOverlapMatchesSetOverlaps(t *testing.T) {
	f := func(x, y []uint8) bool {
		mk := func(ids []uint8) ([]Field, Set) {
			var fs []Field
			for _, id := range ids {
				fs = append(fs, Metadata(string(rune('a'+id%16)), 8))
			}
			s := MustSet(fs...)
			sorted, _ := Canonical(fs)
			return sorted, s
		}
		xs, xset := mk(x)
		ys, yset := mk(y)
		return Overlap(xs, ys) == xset.Overlaps(yset)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
