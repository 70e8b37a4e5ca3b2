package program

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/hermes-net/hermes/internal/fields"
)

func testProgram(t *testing.T) *Program {
	t.Helper()
	hashIdx := fields.Metadata("meta.idx", 32)
	count := fields.Metadata("meta.count", 32)
	src := fields.Header("ipv4.srcAddr", 32)
	dst := fields.Header("ipv4.dstAddr", 32)

	p, err := NewBuilder("test").
		Table("hash", 1).
		ActionDef("compute", HashOp(hashIdx, src, dst)).
		Default("compute").
		Table("count", 4096).
		Key(hashIdx, MatchExact).
		ActionDef("bump", CountOp(count, hashIdx)).
		Default("bump").
		Table("report", 16).
		Key(count, MatchRange).
		ActionDef("mark", SetOp(fields.Metadata("meta.heavy", 8), 1)).
		Build()
	if err != nil {
		t.Fatalf("building test program: %v", err)
	}
	return p
}

func TestBuilderBuildsValidProgram(t *testing.T) {
	p := testProgram(t)
	if len(p.MATs) != 3 {
		t.Fatalf("got %d MATs, want 3", len(p.MATs))
	}
	if p.MATs[0].Name != "test/hash" {
		t.Errorf("MAT name = %q, want test/hash", p.MATs[0].Name)
	}
	if _, ok := p.MAT("test/count"); !ok {
		t.Error("MAT lookup failed")
	}
	if p.Index("test/report") != 2 {
		t.Errorf("Index(test/report) = %d, want 2", p.Index("test/report"))
	}
	if p.Index("nope") != -1 {
		t.Error("Index of unknown MAT should be -1")
	}
}

func TestBuilderErrors(t *testing.T) {
	tests := []struct {
		name  string
		build func() (*Program, error)
	}{
		{"key before table", func() (*Program, error) {
			return NewBuilder("p").Key(fields.Header("h", 8), MatchExact).Build()
		}},
		{"action before table", func() (*Program, error) {
			return NewBuilder("p").ActionDef("a").Build()
		}},
		{"default before table", func() (*Program, error) {
			return NewBuilder("p").Default("a").Build()
		}},
		{"rule before table", func() (*Program, error) {
			return NewBuilder("p").Rule(Rule{Action: "a"}).Build()
		}},
		{"no MATs", func() (*Program, error) {
			return NewBuilder("p").Build()
		}},
		{"no actions", func() (*Program, error) {
			return NewBuilder("p").Table("t", 1).Build()
		}},
		{"zero capacity", func() (*Program, error) {
			return NewBuilder("p").Table("t", 0).
				ActionDef("a", SetOp(fields.Metadata("m", 8), 0)).Build()
		}},
		{"unknown default", func() (*Program, error) {
			return NewBuilder("p").Table("t", 1).
				ActionDef("a", SetOp(fields.Metadata("m", 8), 0)).
				Default("nope").Build()
		}},
		{"gate unknown MAT", func() (*Program, error) {
			return NewBuilder("p").Table("t", 1).
				ActionDef("a", SetOp(fields.Metadata("m", 8), 0)).
				Gate("t", "missing").Build()
		}},
		{"duplicate key", func() (*Program, error) {
			f := fields.Header("h", 8)
			return NewBuilder("p").Table("t", 1).
				Key(f, MatchExact).Key(f, MatchExact).
				ActionDef("a", SetOp(fields.Metadata("m", 8), 0)).Build()
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tt.build(); err == nil {
				t.Error("Build() succeeded, want error")
			}
		})
	}
}

// fieldNames joins the names of a footprint side.
func fieldNames(fs []fields.Field) string {
	names := make([]string, len(fs))
	for i, f := range fs {
		names[i] = f.Name
	}
	return strings.Join(names, ",")
}

func TestMATFootprint(t *testing.T) {
	p := testProgram(t)
	cnt, _ := p.MAT("test/count")
	fp := cnt.Footprint()
	if fp.ReadErr != nil || fp.WriteErr != nil {
		t.Fatalf("footprint errors: %v, %v", fp.ReadErr, fp.WriteErr)
	}
	// count matches on the index, reads it again as the counter index,
	// and reads the counter destination (read-modify-write).
	if got := fieldNames(fp.Reads); got != "meta.count,meta.idx" {
		t.Errorf("Reads = %s, want meta.count,meta.idx", got)
	}
	if got := fieldNames(fp.Writes); got != "meta.count" || fp.WriteMetaBytes != 4 {
		t.Errorf("Writes = %s (%dB), want meta.count (4B)", got, fp.WriteMetaBytes)
	}

	hash, _ := p.MAT("test/hash")
	if got := fieldNames(hash.Footprint().Writes); got != "meta.idx" {
		t.Errorf("hash Writes = %s, want meta.idx", got)
	}
}

// TestFootprintKeepsSideErrorsApart: a conflict among the reads must
// not fail the writes, and the other way round, because A(a,b) never
// consults b's reads and consults b's writes only on an A edge.
func TestFootprintKeepsSideErrorsApart(t *testing.T) {
	x8, x16 := fields.Metadata("meta.x", 8), fields.Metadata("meta.x", 16)
	y := fields.Metadata("meta.y", 8)
	reads := &MAT{Name: "r", Capacity: 1, Keys: []MatchKey{{Field: x8, Type: MatchExact}},
		Actions: []Action{{Name: "c", Ops: []Op{CopyOp(y, x16), SetOp(y, 1)}}}}
	fp := reads.Footprint()
	if fp.ReadErr == nil || !strings.Contains(fp.ReadErr.Error(), `"meta.x"`) || !strings.Contains(fp.ReadErr.Error(), `"r"`) {
		t.Errorf("ReadErr = %v, want the meta.x conflict naming MAT r", fp.ReadErr)
	}
	if fp.WriteErr != nil || len(fp.Writes) != 1 || fp.WriteMetaBytes != 1 {
		t.Errorf("writes = %v (%dB, err %v), want [meta.y] at 1B", fp.Writes, fp.WriteMetaBytes, fp.WriteErr)
	}
	writes := &MAT{Name: "w", Capacity: 1, Actions: []Action{
		{Name: "a", Ops: []Op{SetOp(x8, 1)}}, {Name: "b", Ops: []Op{AddOp(x16, y, 1)}}}}
	fp = writes.Footprint()
	if fp.WriteErr == nil || fp.Writes != nil {
		t.Errorf("writes = %v, err %v: want the meta.x conflict", fp.Writes, fp.WriteErr)
	}
	// Only the add reads meta.x (read-modify-write), so the reads hold.
	if fp.ReadErr != nil || len(fp.Reads) != 2 || fp.Reads[0] != x16 || fp.Reads[1] != y {
		t.Errorf("reads = %v (err %v), want [meta.x/16 meta.y]", fp.Reads, fp.ReadErr)
	}
}

func TestMATEquivalent(t *testing.T) {
	p1 := testProgram(t)
	p2 := testProgram(t)
	a, _ := p1.MAT("test/count")
	b, _ := p2.MAT("test/count")
	if !a.Equivalent(b) {
		t.Error("identical MATs not Equivalent")
	}
	b.Capacity++
	if a.Equivalent(b) {
		t.Error("MATs with different capacity reported Equivalent")
	}
	b.Capacity--
	b.FixedRequirement = 0.3
	if a.Equivalent(b) {
		t.Error("MATs with different FixedRequirement reported Equivalent")
	}
	c, _ := p2.MAT("test/hash")
	if a.Equivalent(c) {
		t.Error("different MATs reported Equivalent")
	}
}

func TestProgramCloneIsDeep(t *testing.T) {
	p := testProgram(t)
	p.MATs[1].Rules = append(p.MATs[1].Rules, Rule{
		Action:  "bump",
		Matches: map[string]Pattern{"meta.idx": {Value: 7}},
		Params:  map[string]uint64{"meta.count": 1},
	})
	c := p.Clone()
	if c.Name != p.Name || len(c.MATs) != len(p.MATs) {
		t.Fatal("clone shape mismatch")
	}
	// Mutating the clone must not affect the original.
	c.MATs[1].Rules[0].Matches["meta.idx"] = Pattern{Value: 99}
	c.MATs[1].Capacity = 1
	c.MATs[0].Actions[0].Ops[0].Imm = 42
	if p.MATs[1].Rules[0].Matches["meta.idx"].Value != 7 {
		t.Error("clone shares rule match maps with original")
	}
	if p.MATs[1].Capacity == 1 {
		t.Error("clone shares MAT struct with original")
	}
	if p.MATs[0].Actions[0].Ops[0].Imm == 42 {
		t.Error("clone shares ops with original")
	}
}

func TestProgramJSONRoundTrip(t *testing.T) {
	p := testProgram(t)
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var q Program
	if err := json.Unmarshal(data, &q); err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(); err != nil {
		t.Fatalf("decoded program invalid: %v", err)
	}
	if q.Name != p.Name || len(q.MATs) != len(p.MATs) {
		t.Fatal("round trip changed shape")
	}
	for i := range p.MATs {
		if !p.MATs[i].Equivalent(q.MATs[i]) {
			t.Errorf("MAT %d not equivalent after round trip", i)
		}
	}
}

func TestControlEdgeValidation(t *testing.T) {
	p := testProgram(t)
	p.Control = append(p.Control, ControlEdge{From: "test/report", To: "test/hash"})
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted control edge against declaration order")
	}
}

func TestResourceModelRequirement(t *testing.T) {
	rm := DefaultResourceModel
	p := testProgram(t)

	hash, _ := p.MAT("test/hash")
	cnt, _ := p.MAT("test/count")
	rep, _ := p.MAT("test/report")

	rh, rc, rr := rm.Requirement(hash), rm.Requirement(cnt), rm.Requirement(rep)
	for name, r := range map[string]float64{"hash": rh, "count": rc, "report": rr} {
		if r <= 0 || r > 20 {
			t.Errorf("Requirement(%s) = %g out of sane range", name, r)
		}
	}
	if rc <= rh {
		t.Errorf("4096-entry table (%g) should cost more than 1-entry hash (%g)", rc, rh)
	}
	// Range match should pay the TCAM factor: same capacity exact table
	// must be cheaper (capacity large enough to clear the MinCost floor).
	ternary := cloneMAT(cnt)
	ternary.Keys[0].Type = MatchTernary
	if rm.Requirement(ternary) <= rc {
		t.Errorf("ternary variant (%g) should be costlier than exact (%g)", rm.Requirement(ternary), rc)
	}

	// FixedRequirement wins.
	fr := cloneMAT(rep)
	fr.FixedRequirement = 0.37
	if got := rm.Requirement(fr); got != 0.37 {
		t.Errorf("Requirement with FixedRequirement = %g, want 0.37", got)
	}

	// Minimum floor.
	tiny := cloneMAT(hash)
	tiny.Actions = []Action{{Name: "n", Ops: nil}}
	if got := rm.Requirement(tiny); got != rm.MinCost {
		t.Errorf("tiny MAT = %g, want floor %g", got, rm.MinCost)
	}
}

func TestMatchTypeAndOpKindStrings(t *testing.T) {
	if MatchLPM.String() != "lpm" || MatchTernary.String() != "ternary" {
		t.Error("unexpected MatchType strings")
	}
	if OpHash.String() != "hash" || OpCount.String() != "count" {
		t.Error("unexpected OpKind strings")
	}
	if MatchType(0).Valid() || OpKind(99).Valid() {
		t.Error("invalid enum values reported valid")
	}
}

func TestOpValidate(t *testing.T) {
	m := fields.Metadata("m", 8)
	tests := []struct {
		name    string
		op      Op
		wantErr bool
	}{
		{"valid set", SetOp(m, 1), false},
		{"copy without src", Op{Kind: OpCopy, Dst: m}, true},
		{"hash without src", Op{Kind: OpHash, Dst: m}, true},
		{"count without src", Op{Kind: OpCount, Dst: m}, true},
		{"bad kind", Op{Dst: m}, true},
		{"bad dst", Op{Kind: OpSet, Dst: fields.Field{}}, true},
		{"bad src", Op{Kind: OpCopy, Dst: m, Srcs: []fields.Field{{}}}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.op.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestRuleValidationInMAT(t *testing.T) {
	f := fields.Header("h", 8)
	m := &MAT{
		Name:     "t",
		Capacity: 1,
		Keys:     []MatchKey{{Field: f, Type: MatchExact}},
		Actions:  []Action{{Name: "a", Ops: []Op{SetOp(fields.Metadata("m", 8), 1)}}},
	}
	m.Rules = []Rule{{Action: "nope"}}
	if err := m.Validate(); err == nil {
		t.Error("Validate accepted rule with unknown action")
	}
	m.Rules = []Rule{{Action: "a", Matches: map[string]Pattern{"zz": {}}}}
	if err := m.Validate(); err == nil {
		t.Error("Validate accepted rule matching non-key field")
	}
	m.Rules = []Rule{{Action: "a"}, {Action: "a"}}
	if err := m.Validate(); err == nil {
		t.Error("Validate accepted rules beyond capacity")
	}
}

func TestBundleRoundTrip(t *testing.T) {
	p1 := testProgram(t)
	p2 := testProgram(t)
	p2.Name = "other"
	for _, m := range p2.MATs {
		m.Name = "other" + m.Name[len("test"):]
	}
	data, err := EncodeBundle([]*Program{p1, p2})
	if err != nil {
		t.Fatal(err)
	}
	progs, err := DecodeBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 2 || progs[0].Name != "test" || progs[1].Name != "other" {
		t.Fatalf("round trip shape wrong: %d programs", len(progs))
	}
}

func TestBundleValidation(t *testing.T) {
	if _, err := EncodeBundle([]*Program{nil}); err == nil {
		t.Error("nil program encoded")
	}
	if _, err := EncodeBundle([]*Program{{Name: "x"}}); err == nil {
		t.Error("invalid program encoded")
	}
	if _, err := DecodeBundle([]byte("{")); err == nil {
		t.Error("malformed JSON decoded")
	}
	if _, err := DecodeBundle([]byte(`{"version":1,"programs":[]}`)); err == nil {
		t.Error("empty bundle decoded")
	}
	if _, err := DecodeBundle([]byte(`{"version":9,"programs":[]}`)); err == nil {
		t.Error("future version decoded")
	}
	p := testProgram(t)
	data, err := EncodeBundle([]*Program{p, p})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBundle(data); err == nil {
		t.Error("duplicate program names decoded")
	}
}

// DecodeBundle validates every program it decodes: a well-formed bundle
// that carries an invalid program is rejected, naming the entry.
func TestDecodeBundleRejectsInvalidProgram(t *testing.T) {
	_, err := DecodeBundle([]byte(`{"version":1,"programs":[{"name":"x","mats":[]}]}`))
	if err == nil {
		t.Fatal("bundle holding a program with no MATs decoded")
	}
	if !strings.Contains(err.Error(), "bundle entry 0") {
		t.Errorf("error %q does not name the entry", err)
	}
	if _, err := DecodeBundle([]byte(`{"version":1,"programs":[null]}`)); err == nil {
		t.Error("bundle holding a null program decoded")
	}
}

// MAT returns the named MAT.
func (p *Program) MAT(name string) (*MAT, bool) {
	if i := p.Index(name); i >= 0 {
		return p.MATs[i], true
	}
	return nil, false
}

// Clone returns a deep copy of the program.
func (p *Program) Clone() *Program {
	out := &Program{Name: p.Name}
	out.MATs = make([]*MAT, len(p.MATs))
	for i, m := range p.MATs {
		out.MATs[i] = cloneMAT(m)
	}
	out.Control = append([]ControlEdge(nil), p.Control...)
	return out
}

func cloneMAT(m *MAT) *MAT {
	c := &MAT{
		Name:             m.Name,
		Capacity:         m.Capacity,
		DefaultAction:    m.DefaultAction,
		FixedRequirement: m.FixedRequirement,
		Keys:             append([]MatchKey(nil), m.Keys...),
	}
	c.Actions = make([]Action, len(m.Actions))
	for i, a := range m.Actions {
		c.Actions[i] = Action{Name: a.Name, Ops: make([]Op, len(a.Ops))}
		for j, op := range a.Ops {
			c.Actions[i].Ops[j] = Op{
				Kind: op.Kind, Dst: op.Dst, Imm: op.Imm,
				Srcs: append([]fields.Field(nil), op.Srcs...),
			}
		}
	}
	c.Rules = make([]Rule, len(m.Rules))
	for i, r := range m.Rules {
		nr := Rule{Priority: r.Priority, Action: r.Action}
		if r.Matches != nil {
			nr.Matches = make(map[string]Pattern, len(r.Matches))
			for k, v := range r.Matches {
				nr.Matches[k] = v
			}
		}
		if r.Params != nil {
			nr.Params = make(map[string]uint64, len(r.Params))
			for k, v := range r.Params {
				nr.Params[k] = v
			}
		}
		c.Rules[i] = nr
	}
	return c
}
