package p4lite

import (
	"errors"
	"strings"
	"testing"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
)

const heavyHitterSrc = `
// Heavy-hitter detection: hash, count, flag.
program hh;

metadata idx : 32;
metadata cnt : 32;
metadata heavy : 8;

table hash_tbl {
  capacity 1;
  action mix { hash idx <- ipv4.srcAddr, ipv4.dstAddr; }
  default mix;
}

table count_tbl {
  key idx : exact;
  capacity 4096;
  action bump { count cnt <- idx; }
  default bump;
}

table flag_tbl {
  key cnt : range;
  capacity 8;
  action mark  { set heavy <- 1; }
  action clear { set heavy <- 0; }
  default clear;
}
`

func TestParseHeavyHitter(t *testing.T) {
	prog, err := Parse(heavyHitterSrc)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name != "hh" {
		t.Errorf("name = %q", prog.Name)
	}
	if len(prog.MATs) != 3 {
		t.Fatalf("MATs = %d, want 3", len(prog.MATs))
	}
	cnt, ok := prog.MAT("hh/count_tbl")
	if !ok {
		t.Fatal("count_tbl missing")
	}
	if cnt.Capacity != 4096 {
		t.Errorf("capacity = %d", cnt.Capacity)
	}
	if len(cnt.Keys) != 1 || cnt.Keys[0].Field.Name != "idx" || cnt.Keys[0].Type != program.MatchExact {
		t.Errorf("keys = %+v", cnt.Keys)
	}
	flag, _ := prog.MAT("hh/flag_tbl")
	if len(flag.Actions) != 2 || flag.DefaultAction != "clear" {
		t.Errorf("flag actions = %+v default %q", flag.Actions, flag.DefaultAction)
	}

	// The parsed program analyzes into the expected TDG.
	g, err := analyzer.Analyze([]*program.Program{prog}, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, ok := g.Edge("hh/hash_tbl", "hh/count_tbl")
	if !ok || e.Type != tdg.DepMatch {
		t.Fatalf("hash->count edge = %+v ok=%v", e, ok)
	}
	if e.MetadataBytes != 4 {
		t.Errorf("A(hash,count) = %d, want 4", e.MetadataBytes)
	}
}

func TestParseControlEdges(t *testing.T) {
	src := `
program p;
metadata a : 8;
metadata b : 8;
table t1 { action w { set a <- 1; } default w; }
table t2 { action w { set b <- 1; } default w; }
control { t1 -> t2; }
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Control) != 1 {
		t.Fatalf("control edges = %d", len(prog.Control))
	}
	g, err := analyzer.Analyze([]*program.Program{prog}, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, ok := g.Edge("p/t1", "p/t2")
	if !ok || e.Type != tdg.DepSuccessor {
		t.Errorf("gate edge = %+v ok=%v", e, ok)
	}
}

func TestParseAllOps(t *testing.T) {
	src := `
program ops;
metadata m1 : 32;
metadata m2 : 32;
table t {
  capacity 4;
  action a {
    set m1 <- 0x2A;
    copy m2 <- m1;
    add m2 <- m1 + 3;
    hash m1 <- ipv4.srcAddr, tcp.srcPort;
    count m2 <- m1;
    dec ipv4.ttl by 1;
    dec m1;
  }
  default a;
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := prog.MAT("ops/t")
	if len(m.Actions[0].Ops) != 7 {
		t.Fatalf("ops = %d, want 7", len(m.Actions[0].Ops))
	}
	kinds := []program.OpKind{
		program.OpSet, program.OpCopy, program.OpAdd,
		program.OpHash, program.OpCount, program.OpDecrement, program.OpDecrement,
	}
	for i, k := range kinds {
		if m.Actions[0].Ops[i].Kind != k {
			t.Errorf("op %d kind = %v, want %v", i, m.Actions[0].Ops[i].Kind, k)
		}
	}
	if m.Actions[0].Ops[0].Imm != 0x2A {
		t.Errorf("hex literal parsed to %d", m.Actions[0].Ops[0].Imm)
	}
}

func TestParseErrorsCarryPositions(t *testing.T) {
	tests := []struct {
		name    string
		src     string
		wantSub string
	}{
		{"missing program", `table t {}`, `expected "program"`},
		{"unknown field", "program p;\ntable t { action a { set nosuch <- 1; } }", "unknown field"},
		{"bad match type", "program p;\nmetadata m : 8;\ntable t { key m : fuzzy; action a { set m <- 1; } }", "unknown match type"},
		{"bad op", "program p;\nmetadata m : 8;\ntable t { action a { frobnicate m; } }", "unknown operation"},
		{"zero capacity", "program p;\nmetadata m : 8;\ntable t { capacity 0; action a { set m <- 1; } }", "capacity must be positive"},
		{"control unknown table", "program p;\nmetadata m : 8;\ntable t { action a { set m <- 1; } }\ncontrol { t -> ghost; }", "unknown table"},
		{"redeclared table", "program p;\nmetadata m : 8;\ntable t { action a { set m <- 1; } }\ntable t { action a { set m <- 1; } }", "redeclared"},
		{"field width", "program p;\nmetadata m : 0;", "out of range"},
		{"field conflict", "program p;\nmetadata ipv4.ttl : 16;", "redeclared with a different shape"},
		{"stray char", "program p; @", "unexpected character"},
		{"bad arrow", "program p;\nmetadata m : 8;\ntable t { action a { set m < 1; } }", "expected '<-'"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Parse(tt.src)
			if err == nil {
				t.Fatal("parse succeeded")
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("error %q does not mention %q", err, tt.wantSub)
			}
			var perr *Error
			if errors.As(err, &perr) {
				if perr.Line < 1 || perr.Col < 1 {
					t.Errorf("error lacks position: %+v", perr)
				}
			}
		})
	}
}

func TestParseErrorLineNumbers(t *testing.T) {
	src := "program p;\nmetadata m : 8;\ntable t {\n  action a {\n    set ghost <- 1;\n  }\n}"
	_, err := Parse(src)
	if err == nil {
		t.Fatal("parse succeeded")
	}
	var perr *Error
	if !errors.As(err, &perr) {
		t.Fatalf("error type %T", err)
	}
	if perr.Line != 5 {
		t.Errorf("error line = %d, want 5", perr.Line)
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := `
// leading comment
program p; // trailing comment

	metadata   m : 8; // indented with tabs

table t { // table comment
  action a { set m <- 1; } default a;
}
`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultCapacityApplied(t *testing.T) {
	src := "program p;\nmetadata m : 8;\ntable t { action a { set m <- 1; } }"
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if prog.MATs[0].Capacity != 1024 {
		t.Errorf("default capacity = %d, want 1024", prog.MATs[0].Capacity)
	}
}

func TestCatalogFieldsAvailable(t *testing.T) {
	src := `
program p;
table route {
  key ipv4.dstAddr : lpm;
  capacity 1000;
  action fwd { set meta.egress_port <- 1; dec ipv4.ttl; }
  default fwd;
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := prog.MATs[0]
	if m.Keys[0].Type != program.MatchLPM {
		t.Errorf("match type = %v", m.Keys[0].Type)
	}
	fp := m.Footprint()
	if fp.WriteErr != nil {
		t.Fatal(fp.WriteErr)
	}
	if len(fp.Writes) != 2 || fp.Writes[0].Name != "ipv4.ttl" || fp.Writes[1].Name != "meta.egress_port" {
		t.Errorf("writes = %v, want ipv4.ttl and meta.egress_port", fp.Writes)
	}
}
