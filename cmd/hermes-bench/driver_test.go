package main

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// synthPoint feeds a synthetic experiment: no solver runs, so the
// driver's rules are tested in milliseconds.
type synthPoint struct {
	name      string
	count     int
	ns, ratio float64
	allocs    int
	ok        bool
}

// synth declares one column of every kind; run replays the queued
// sweeps, one per call.
func synth(sweeps ...[]synthPoint) *experiment {
	return &experiment{
		name: "synth", title: "synthetic", baseline: true, envelope: 3,
		tables: []table{{name: "rows",
			cols: []column{
				col(key, "name", "name", "", func(p synthPoint) any { return p.name }),
				col(det, "count", "count", "", func(p synthPoint) any { return p.count }).within(0.10),
				col(det, "ok", "", "", func(p synthPoint) any { return p.ok }),
				col(timing, "ns", "ns/op", "%.0fns", func(p synthPoint) any { return p.ns }).dual("ratio", 1.10, 1.25),
				col(timing, "ratio", "ratio", "%.1fx", func(p synthPoint) any { return p.ratio }).up(),
				col(alloc, "allocs", "allocs", "", func(p synthPoint) any { return p.allocs }),
			},
			checks: []check{{col: "ratio", want: ">= 2x", ok: func(r row) bool { return r.num("ratio") >= 2 }}},
		}},
		run: func(*runCtx) (result, error) {
			pts := sweeps[0]
			if len(sweeps) > 1 {
				sweeps = sweeps[1:]
			}
			return oneTable(map[string]any{"size": 1}, pts), nil
		},
	}
}

func measured(t *testing.T, e *experiment) *document {
	t.Helper()
	doc, err := e.measure(&runCtx{})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestCompareByColumnKind(t *testing.T) {
	base := synthPoint{name: "a", count: 100, ns: 100, ratio: 10, allocs: 0, ok: true}
	with := func(edit func(*synthPoint)) synthPoint { p := base; edit(&p); return p }
	cases := []struct {
		name string
		cur  synthPoint
		want string // substring of the one failure; "" = passes
	}{
		{"identical", base, ""},
		// The dual condition: raw ns AND the in-run ratio must both regress.
		{"raw regression only", with(func(p *synthPoint) { p.ns = 150 }), ""},
		{"ratio regression only", with(func(p *synthPoint) { p.ratio = 5 }), ""},
		{"ratio inside its wider slack", with(func(p *synthPoint) { p.ns = 150; p.ratio = 8.5 }), ""},
		{"both regress", with(func(p *synthPoint) { p.ns = 150; p.ratio = 5 }), "synth rows[a] ns 100 -> 150 (+50.0%), ratio 10 -> 5 (-50.0%): both regressed past their 10% / 25% slack"},
		{"det inside tolerance", with(func(p *synthPoint) { p.count = 109 }), ""},
		{"det outside tolerance", with(func(p *synthPoint) { p.count = 112 }), "synth rows[a] count = 112: baseline 100"},
		{"det exact", with(func(p *synthPoint) { p.ok = false }), "synth rows[a] ok = false: baseline true"},
		{"alloc 0 -> 1", with(func(p *synthPoint) { p.allocs = 1 }), "synth rows[a] allocs = 1: the baseline was allocation-free"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := synth([]synthPoint{base}, []synthPoint{tc.cur})
			baseDoc, curDoc := measured(t, e), measured(t, e)
			got := e.compare(baseDoc, curDoc, "BENCH_synth.json")
			switch {
			case tc.want == "" && len(got) != 0:
				t.Errorf("want pass, got %q", got)
			case tc.want != "" && (len(got) != 1 || !strings.Contains(got[0], tc.want)):
				t.Errorf("want one failure containing %q, got %q", tc.want, got)
			}
		})
	}
}

func TestCompareAllocNoiseAndAbsentRow(t *testing.T) {
	e := synth(
		[]synthPoint{{name: "a", count: 1, ns: 1, ratio: 10, allocs: 178}},
		[]synthPoint{{name: "a", count: 1, ns: 1, ratio: 10, allocs: 180}, {name: "new", count: 7, ns: 900, ratio: 3}},
	)
	base, cur := measured(t, e), measured(t, e)
	if got := e.compare(base, cur, "BENCH_synth.json"); len(got) != 0 {
		t.Errorf("178 -> 180 allocs and a row absent from the baseline must not fail: %q", got)
	}
	// A column the baseline lacks altogether is a stranded baseline.
	base.Tables["rows"][0].Metrics = base.Tables["rows"][0].Metrics[:3]
	got := e.compare(base, cur, "BENCH_synth.json")
	if len(got) != 3 || !strings.Contains(got[0], "synth rows[a] ns: column missing from baseline") {
		t.Errorf("want the three missing columns reported, got %q", got)
	}
	// null: the baseline predates the column, which is then not compared.
	base.Tables["rows"][0].Metrics = append(base.Tables["rows"][0].Metrics,
		metric{"ns", nil}, metric{"ratio", nil}, metric{"allocs", nil})
	if got := e.compare(base, cur, "BENCH_synth.json"); len(got) != 0 {
		t.Errorf("null baseline cells must be skipped: %q", got)
	}
}

func TestChecksNameExperimentRowAndColumn(t *testing.T) {
	e := synth([]synthPoint{{name: "a", ratio: 10}, {name: "b", ratio: 1.5}})
	got := e.failedChecks(measured(t, e))
	if len(got) != 1 || got[0] != "synth rows[b] ratio = 1.5: want >= 2x" {
		t.Errorf("got %q", got)
	}
	e.tables[0].checks = []check{{col: "count", want: "> 0", some: true, ok: func(r row) bool { return r.num("count") > 0 }}}
	if got := e.failedChecks(measured(t, e)); len(got) != 1 || !strings.Contains(got[0], "synth rows count: want > 0 on at least one row") {
		t.Errorf("got %q", got)
	}
	if got := synth(nil).failedChecks(measured(t, synth(nil))); len(got) != 1 || !strings.Contains(got[0], "no rows") {
		t.Errorf("an empty sweep must fail its checks, got %q", got)
	}
}

func TestEnvelopeBaselineKeepsWorstOfN(t *testing.T) {
	e := synth(
		[]synthPoint{{name: "a", count: 1, ns: 100, ratio: 10}},
		[]synthPoint{{name: "a", count: 1, ns: 140, ratio: 12}},
		[]synthPoint{{name: "a", count: 1, ns: 120, ratio: 7}},
	)
	path := filepath.Join(t.TempDir(), "BENCH_synth.json")
	if err := e.execute(&runCtx{}, options{mode: "json", path: path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := parseBaseline(data)
	if err != nil {
		t.Fatal(err)
	}
	r := doc.Tables["rows"][0]
	if r.num("ns") != 140 || r.num("ratio") != 7 || r.num("count") != 1 {
		t.Errorf("want the slowest ns (140) and the lowest ratio (7), got %v", r.Metrics)
	}
	// A sweep that changes shape between runs is an error, not a merge.
	e = synth([]synthPoint{{name: "a"}}, []synthPoint{{name: "b"}})
	if err := e.execute(&runCtx{}, options{mode: "json", path: path}); err == nil {
		t.Error("row a -> b between baseline runs accepted")
	}
}

func TestTableCSVAndBaselineCarryTheSameColumns(t *testing.T) {
	e := synth([]synthPoint{{name: "a", count: 3, ns: 1234.5678, ratio: 2.5, ok: true}})
	doc := measured(t, e)
	tab := &e.tables[0]
	want := []string{"name", "count", "ok", "ns", "ratio", "allocs"}

	path := filepath.Join(t.TempDir(), "out", "synth.csv")
	if err := writeCSV(path, tab, doc.Tables["rows"]); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	records, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(records[0], ",") != strings.Join(want, ",") {
		t.Errorf("CSV header %v, want %v", records[0], want)
	}
	if strings.Join(records[1], ",") != "a,3,true,1234.568,2.5,0" {
		t.Errorf("CSV row %v", records[1])
	}

	data, err := marshalBaseline(doc)
	if err != nil {
		t.Fatal(err)
	}
	at := -1
	for _, name := range want {
		next := bytes.Index(data, []byte(`"`+name+`":`))
		if next <= at {
			t.Errorf("baseline lists %s out of declaration order:\n%s", name, data)
		}
		at = next
	}

	// The text table shows the columns that declare a header, same order.
	var out bytes.Buffer
	printTable(&out, tab, doc.Tables["rows"])
	lines := strings.Split(out.String(), "\n")
	if got := strings.Fields(lines[0]); strings.Join(got, ",") != "name,count,ns/op,ratio,allocs" {
		t.Errorf("table header %v", got)
	}
	if got := strings.Fields(lines[1]); strings.Join(got, ",") != "a,3,1235ns,2.5x,0" {
		t.Errorf("table row %v", got)
	}
}

func TestBaselineRoundTripsByteStable(t *testing.T) {
	e := synth([]synthPoint{{name: "a", count: 183589746, ns: 0.015, ratio: 331.25, ok: true}, {name: "b"}})
	doc := measured(t, e)
	doc.Tables["rows"][1].Metrics[2].value = nil
	first, err := marshalBaseline(doc)
	if err != nil {
		t.Fatal(err)
	}
	back, err := parseBaseline(first)
	if err != nil {
		t.Fatal(err)
	}
	second, err := marshalBaseline(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("write -> read -> write changed the bytes:\n%s\n---\n%s", first, second)
	}
	if got := e.compare(back, doc, "x"); len(got) != 0 {
		t.Errorf("a document must compare clean against its own round trip: %q", got)
	}
	for _, bad := range []string{`{"tables":{"rows":[{"key":"a","metrics":[1,2]}]}}`, `{"tables":{"rows":[{"key":"a","metrics":null}]}}`} {
		if _, err := parseBaseline([]byte(bad)); err == nil {
			t.Errorf("malformed metrics accepted: %s", bad)
		}
	}
}
