// The one driver. An experiment is a value: named tables of typed
// columns over the measured point types, a run function, and the gates
// it declares. Everything the modes do — print the table, write the
// CSV, write and read BENCH_<name>.json, apply -smoke and -compare,
// widen a baseline to its noise envelope — happens here, once.
package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"text/tabwriter"

	"github.com/hermes-net/hermes/internal/experiments"
)

// kind says how -compare and the envelope baseline treat a column.
type kind int

const (
	key    kind = iota // identifies the row; the key columns joined with "/" are the baseline's row key
	det                // a pure function of the seed: -compare requires the baseline value, within tol
	timing             // machine-dependent: gated only through a declared dual condition; enveloped
	alloc              // an allocation count: 0 must stay 0 (178 → 180 is runtime noise, 0 → 1 a lost fast path)
)

// column is one typed column. The text table, the CSV and the baseline
// carry columns in declaration order; head == "" keeps one out of the
// (narrower) text table only.
type column struct {
	name string // CSV header and baseline metric name
	head string // text-table header
	verb string // text-table format ("" = plain value; ending in "%%" = a fraction shown as a percentage)
	kind kind
	get  func(point any) any
	tol  float64 // det: relative tolerance (0 = exact)
	// calib, slack and calibSlack declare a timing column's dual
	// condition: it fails -compare only when it exceeds baseline×slack
	// AND the in-run ratio column calib — both sides measured seconds
	// apart on the same host, so machine speed cancels — fell below
	// baseline÷calibSlack. A row whose baseline has no calibrator
	// (ratio 0) is not gated.
	calib             string
	slack, calibSlack float64
	// higher marks a timing column where larger is better (ratios,
	// speedups): its envelope is the minimum.
	higher bool
}

// col declares a column reading point type T.
func col[T any](k kind, name, head, verb string, get func(T) any) column {
	return column{name: name, head: head, verb: verb, kind: k,
		get: func(p any) any { return get(p.(T)) }}
}

func (c column) within(tol float64) column { c.tol = tol; return c }
func (c column) up() column                { c.higher = true; return c }
func (c column) dual(calib string, slack, calibSlack float64) column {
	c.calib, c.slack, c.calibSlack = calib, slack, calibSlack
	return c
}

// check is one machine-independent predicate over a table's rows —
// both sides of any ratio it reads come from the same run — enforced
// under -smoke and -compare.
type check struct {
	col  string // the column a failure names
	want string // what must hold, for the failure message
	ok   func(r row) bool
	some bool // must hold on at least one row, not on every row
}

var ops = map[string]func(v, limit float64) bool{
	">=": func(v, limit float64) bool { return v >= limit },
	"<=": func(v, limit float64) bool { return v <= limit },
	">":  func(v, limit float64) bool { return v > limit },
	"<":  func(v, limit float64) bool { return v < limit },
	"==": func(v, limit float64) bool { return v == limit },
}

// bound is the check "col op limit" on every row.
func bound(col, op string, limit float64) check {
	return check{col: col, want: op + " " + plain(limit), ok: func(r row) bool { return ops[op](r.num(col), limit) }}
}

// is is the check that a bool column holds want on every row.
func is(col string, want bool) check {
	return check{col: col, want: fmt.Sprint(want), ok: func(r row) bool { return r.flag(col) == want }}
}

// when narrows a check to the rows cond selects.
func (c check) when(which string, cond func(r row) bool) check {
	ok := c.ok
	c.want += " " + which
	c.ok = func(r row) bool { return !cond(r) || ok(r) }
	return c
}

type table struct {
	name   string
	cols   []column
	checks []check
}

// experiment is one registered -exp value.
type experiment struct {
	name, title string
	all         bool // part of -exp all (the paper's figures plus Exp#7/#8)
	baseline    bool // a BENCH_<name>.json is committed: -json and -compare apply
	// envelope > 1: -json repeats the sweep that many times and keeps
	// every timing column's worst value. One run's min-of-reps is an
	// extreme-value sample; pinned as the baseline it makes -compare a
	// coin flip at millisecond scale.
	envelope int
	tables   []table
	run      func(c *runCtx) (result, error)
}

// runCtx is what a run function may read.
type runCtx struct {
	cfg         experiments.Config
	programs    int
	smoke, full bool
	// topoRows caches Exp#2's sweep, which Exp#3 and Exp#4 re-read.
	topoRows []experiments.TopoRow
}

// result is one sweep's outcome: per table name a slice of that table's
// point type, and the parameters that sized the sweep.
type result struct {
	params map[string]any
	points map[string]any
}

// oneTable is the result of a single-table experiment.
func oneTable(params map[string]any, pts any) result {
	return result{params: params, points: map[string]any{"rows": pts}}
}

// document is the one baseline schema: every BENCH_<name>.json, and
// the in-memory form every mode works on.
type document struct {
	Experiment string           `json:"experiment"`
	Seed       int64            `json:"seed"`
	Params     map[string]any   `json:"params"`
	Tables     map[string][]row `json:"tables"`
}

type row struct {
	Key     string  `json:"key"`
	Metrics metrics `json:"metrics"`
}

// metrics is a JSON object that keeps its member order, so a baseline
// lists columns as the experiment declares them and read → write is
// byte-stable. Values are float64, bool, string, or nil (a column the
// baseline predates).
type metrics []metric

type metric struct {
	name  string
	value any
}

func (m metrics) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, kv := range m {
		if i > 0 {
			b.WriteByte(',')
		}
		name, _ := json.Marshal(kv.name) // a string always marshals
		v, err := json.Marshal(kv.value)
		if err != nil {
			return nil, err
		}
		b.Write(name)
		b.WriteByte(':')
		b.Write(v)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

func (m *metrics) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if t, err := dec.Token(); err != nil || t != json.Delim('{') {
		return fmt.Errorf("metrics: want a JSON object, got %v (%v)", t, err)
	}
	for dec.More() {
		t, err := dec.Token()
		if err != nil {
			return err
		}
		var v any
		if err := dec.Decode(&v); err != nil {
			return err
		}
		*m = append(*m, metric{t.(string), v}) // object keys are strings
	}
	return nil
}

func (m metrics) lookup(name string) (any, bool) {
	for _, kv := range m {
		if kv.name == name {
			return kv.value, true
		}
	}
	return nil, false
}

// num, flag and str read a freshly measured row inside a check. A
// missing column or a wrong type is a typo in the declaration.
func (r row) num(name string) float64 { return r.cell(name).(float64) }
func (r row) flag(name string) bool   { return r.cell(name).(bool) }
func (r row) str(name string) string  { return r.cell(name).(string) }

func (r row) cell(name string) any {
	v, ok := r.Metrics.lookup(name)
	if !ok {
		panic("hermes-bench: check reads undeclared column " + name)
	}
	return v
}

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// extract reads the columns off the typed points. Numbers become
// float64 rounded to three decimals, as a baseline reads them back.
func (t *table) extract(points any) []row {
	pts := reflect.ValueOf(points) // invalid when this mode skipped the table
	out := make([]row, 0)
	for i := 0; pts.IsValid() && i < pts.Len(); i++ {
		p, m := pts.Index(i).Interface(), make(metrics, len(t.cols))
		var keys []string
		for j, c := range t.cols {
			var v any
			switch x := c.get(p).(type) {
			case int:
				v = float64(x)
			case int64:
				v = float64(x)
			case float64:
				v = round3(x)
			case bool, string:
				v = x
			default:
				panic(fmt.Sprintf("hermes-bench: column %s yields a %T", c.name, x))
			}
			m[j] = metric{c.name, v}
			if c.kind == key {
				keys = append(keys, plain(v))
			}
		}
		out = append(out, row{Key: strings.Join(keys, "/"), Metrics: m})
	}
	return out
}

func plain(v any) string {
	if f, ok := v.(float64); ok {
		return strconv.FormatFloat(f, 'f', -1, 64)
	}
	return fmt.Sprint(v)
}

// cell renders a value for the text table. A zero timing was not
// measured in this row (the whole-graph side of a sharded-only point).
func (c column) cell(v any) string {
	f, isNum := v.(float64)
	switch {
	case isNum && c.kind == timing && f == 0:
		return "-"
	case c.verb == "":
		return plain(v)
	case !isNum:
		return fmt.Sprintf(c.verb, v)
	case strings.HasSuffix(c.verb, "%%"):
		f *= 100
	}
	return fmt.Sprintf(c.verb, f)
}

func printTable(w io.Writer, t *table, rows []row) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	line := func(cell func(j int, c column) string) {
		var cells []string
		for j, c := range t.cols {
			if c.head != "" {
				cells = append(cells, cell(j, c))
			}
		}
		fmt.Fprintf(tw, "  %s\n", strings.Join(cells, "\t"))
	}
	line(func(_ int, c column) string { return c.head })
	for _, r := range rows {
		line(func(j int, c column) string { return c.cell(r.Metrics[j].value) })
	}
	tw.Flush()
	fmt.Fprintln(w)
}

func writeCSV(path string, t *table, rows []row) error {
	records := make([][]string, 0, len(rows)+1)
	header := make([]string, len(t.cols))
	for j, c := range t.cols {
		header[j] = c.name
	}
	records = append(records, header)
	for _, r := range rows {
		rec := make([]string, len(r.Metrics))
		for j, kv := range r.Metrics {
			rec[j] = plain(kv.value)
		}
		records = append(records, rec)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var b bytes.Buffer
	if err := csv.NewWriter(&b).WriteAll(records); err != nil {
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

func marshalBaseline(doc *document) ([]byte, error) {
	data, err := json.MarshalIndent(doc, "", "  ")
	return append(data, '\n'), err
}

func parseBaseline(data []byte) (*document, error) {
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// measure runs the sweep once and extracts every table.
func (e *experiment) measure(c *runCtx) (*document, error) {
	res, err := e.run(c)
	if err != nil {
		return nil, err
	}
	doc := &document{Experiment: e.name, Seed: c.cfg.Seed, Params: res.params, Tables: map[string][]row{}}
	if doc.Params == nil {
		doc.Params = map[string]any{}
	}
	for i := range e.tables {
		t := &e.tables[i]
		doc.Tables[t.name] = t.extract(res.points[t.name])
	}
	return doc, nil
}

// widen folds another run of the same sweep into doc, keeping the
// worse value of every timing column.
func (e *experiment) widen(doc, more *document) error {
	for _, t := range e.tables {
		a, b := doc.Tables[t.name], more.Tables[t.name]
		if len(a) != len(b) {
			return fmt.Errorf("%s %s: sweep shape changed between baseline runs", e.name, t.name)
		}
		for i := range a {
			if a[i].Key != b[i].Key {
				return fmt.Errorf("%s %s: row %s became %s between baseline runs", e.name, t.name, a[i].Key, b[i].Key)
			}
			for j, c := range t.cols {
				if c.kind != timing {
					continue
				}
				x, y := a[i].Metrics[j].value.(float64), b[i].Metrics[j].value.(float64)
				if worse := y > x; worse != c.higher && x != y {
					a[i].Metrics[j].value = y
				}
			}
		}
	}
	return nil
}

// failedChecks applies every declared predicate to the measured rows.
func (e *experiment) failedChecks(doc *document) []string {
	var failures []string
	for _, t := range e.tables {
		rows := doc.Tables[t.name]
		if len(t.checks) > 0 && len(rows) == 0 {
			failures = append(failures, fmt.Sprintf("%s %s: the sweep produced no rows", e.name, t.name))
		}
		for _, c := range t.checks {
			held := 0
			for _, r := range rows {
				if c.ok(r) {
					held++
				} else if !c.some {
					failures = append(failures, fmt.Sprintf("%s %s[%s] %s = %s: want %s",
						e.name, t.name, r.Key, c.col, plain(r.cell(c.col)), c.want))
				}
			}
			if c.some && held == 0 && len(rows) > 0 {
				failures = append(failures, fmt.Sprintf("%s %s %s: want %s on at least one row", e.name, t.name, c.col, c.want))
			}
		}
	}
	return failures
}

// agree reports whether a det cell matches its baseline.
func agree(base, cur any, tol float64) bool {
	b, ok1 := base.(float64)
	c, ok2 := cur.(float64)
	if !ok1 || !ok2 || tol == 0 || b == 0 {
		return base == cur
	}
	return math.Abs(c/b-1) <= tol
}

// compare diffs the measured rows against a baseline by column kind. A
// measured row the baseline lacks is reported, not failed; baseline rows
// not measured (a -full baseline, the default sweep) are ignored.
func (e *experiment) compare(base, cur *document, path string) []string {
	var failures []string
	for _, t := range e.tables {
		baseRows := make(map[string]row, len(base.Tables[t.name]))
		for _, r := range base.Tables[t.name] {
			baseRows[r.Key] = r
		}
		for _, r := range cur.Tables[t.name] {
			where := fmt.Sprintf("%s %s[%s]", e.name, t.name, r.Key)
			b, ok := baseRows[r.Key]
			if !ok {
				fmt.Printf("  %s: not in baseline %s\n", where, path)
				continue
			}
			for j, c := range t.cols {
				cv := r.Metrics[j].value
				bv, ok := b.Metrics.lookup(c.name)
				if !ok {
					failures = append(failures, fmt.Sprintf("%s %s: column missing from baseline %s", where, c.name, path))
					continue
				}
				if bv == nil {
					continue // the baseline predates the column
				}
				switch {
				case c.kind == det && !agree(bv, cv, c.tol):
					failures = append(failures, fmt.Sprintf("%s %s = %s: baseline %s (tolerance %.0f%%)",
						where, c.name, plain(cv), plain(bv), c.tol*100))
				case c.kind == alloc && bv == 0.0 && cv != 0.0:
					failures = append(failures, fmt.Sprintf("%s %s = %s: the baseline was allocation-free", where, c.name, plain(cv)))
				case c.kind == timing && c.calib != "":
					bf, _ := bv.(float64)
					bcv, _ := b.Metrics.lookup(c.calib)
					bc, _ := bcv.(float64)
					if bf <= 0 || bc <= 0 {
						continue // no in-run calibrator for this row
					}
					cf, cc := cv.(float64), r.num(c.calib)
					line := fmt.Sprintf("%s %s %s -> %s (%+.1f%%), %s %s -> %s (%+.1f%%)", where,
						c.name, plain(bf), plain(cf), (cf/bf-1)*100, c.calib, plain(bc), plain(cc), (cc/bc-1)*100)
					fmt.Println(" ", line)
					if cf > bf*c.slack && cc < bc/c.calibSlack {
						failures = append(failures, fmt.Sprintf("%s: both regressed past their %.0f%% / %.0f%% slack",
							line, (c.slack-1)*100, (c.calibSlack-1)*100))
					}
				}
			}
		}
	}
	return failures
}

// report prints a gate's outcome; it is the only place a failure is
// turned into an exit status.
func report(e *experiment, gate string, failures []string) error {
	if len(failures) == 0 {
		fmt.Printf("  %s %s gate passed\n\n", e.name, gate)
		return nil
	}
	for _, f := range failures {
		fmt.Println("  FAIL:", f)
	}
	return fmt.Errorf("%s %s gate failed (%d check(s))", e.name, gate, len(failures))
}

// modes lists what the experiment declares, for usage and rejections.
func (e *experiment) modes() []string {
	m := []string{"csv"}
	if e.baseline {
		m = append(m, "json", "compare")
	}
	for _, t := range e.tables {
		if len(t.checks) > 0 {
			return append(m, "smoke")
		}
	}
	return m
}

// options select what execute does with the measured document: mode is
// "" (tables only), "smoke", "json" or "compare"; path is the baseline
// the last two write or read.
type options struct {
	mode, path, csvDir string
}

// execute runs one experiment in the selected mode.
func (e *experiment) execute(c *runCtx, o options) error {
	mode := ""
	if o.mode != "" {
		mode = " (" + o.mode + ")"
	}
	fmt.Printf("## %s%s\n", e.title, mode)
	doc, err := e.measure(c)
	if err != nil {
		return err
	}
	if o.mode == "json" {
		for run := 1; run < e.envelope; run++ {
			more, err := e.measure(c)
			if err != nil {
				return err
			}
			if err := e.widen(doc, more); err != nil {
				return err
			}
		}
	}

	if len(doc.Params) > 0 {
		params, _ := json.Marshal(doc.Params) // numbers, bools and strings
		fmt.Printf("  params: %s\n", params)
	}
	for i := range e.tables {
		t := &e.tables[i]
		rows := doc.Tables[t.name]
		if len(rows) == 0 {
			continue
		}
		if len(e.tables) > 1 {
			fmt.Printf("  %s:\n", t.name)
		}
		printTable(os.Stdout, t, rows)
		if o.csvDir != "" {
			file := e.name + ".csv"
			if t.name != "rows" {
				file = e.name + "_" + t.name + ".csv"
			}
			if err := writeCSV(filepath.Join(o.csvDir, file), t, rows); err != nil {
				return err
			}
		}
	}

	switch o.mode {
	case "smoke":
		failures := e.failedChecks(doc)
		if e.baseline {
			// The document must survive the one writer and reader.
			data, err := marshalBaseline(doc)
			if err != nil {
				return err
			}
			back, err := parseBaseline(data)
			if err != nil {
				return fmt.Errorf("%s: re-reading its own baseline: %w", e.name, err)
			}
			if again, _ := marshalBaseline(back); !bytes.Equal(data, again) {
				failures = append(failures, e.name+": baseline does not round-trip through write → read → write")
			}
		}
		return report(e, o.mode, failures)
	case "compare":
		data, err := os.ReadFile(o.path)
		if err != nil {
			return fmt.Errorf("reading %s baseline: %w", e.name, err)
		}
		base, err := parseBaseline(data)
		if err != nil {
			return fmt.Errorf("parsing %s baseline %s: %w", e.name, o.path, err)
		}
		if base.Experiment != e.name {
			return fmt.Errorf("%s is a baseline of experiment %q, not %s", o.path, base.Experiment, e.name)
		}
		return report(e, o.mode, append(e.failedChecks(doc), e.compare(base, doc, o.path)...))
	case "json":
		data, err := marshalBaseline(doc)
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.path, data, 0o644); err != nil {
			return fmt.Errorf("writing %s baseline: %w", e.name, err)
		}
		fmt.Printf("  %s baseline written to %s (worst of %d run(s))\n\n", e.name, o.path, max(e.envelope, 1))
	}
	return nil
}
