package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesTables holds BENCHMARK.json to the driver's
// limits and to the metric and workload tables the program reports
// from.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	if n := len(m.Workloads); n < 2 || n > 8 || n != len(specs) {
		t.Fatalf("%d workloads declared, %d in specs; want 2–8 and equal", n, len(specs))
	}
	for i, w := range m.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: manifest %q differs from spec %q", i, w.Name, specs[i].name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", m.RunSeconds, defaultSeconds)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics; want 1–16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics; want 1–128", n)
	}
	seen := map[string]bool{}
	compare := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, %d in the table", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: manifest %+v differs from table %+v", kind, i, g, w)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) || seen[g.Name] {
				t.Errorf("%s %q: bad or repeated name, or bad unit %q", kind, g.Name, g.Unit)
			}
			seen[g.Name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound || *g.Bound > 0.25):
				t.Errorf("%s %q: bound %v, table %v, limit 0.25", kind, g.Name, g.Bound, w.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %q: per-layer metrics carry no bound", kind, g.Name)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEnd, true)
	compare("per_layer", m.PerLayer, perLayer, false)
	if m.EndToEnd[0].Name != "setup_s" || m.EndToEnd[0].Unit != "s" || m.EndToEnd[0].Better != "lower" {
		t.Errorf("the driver requires setup_s [s, lower]; got %+v", m.EndToEnd[0])
	}
}

// TestSmoke runs every workload's two passes at 2–3 ops per phase and
// checks that each declared metric is printed exactly once per
// workload with its declared unit and that no operation failed.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-seed", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("smoke run exited %d\n%s\n%s", code, stderr.String(), stdout.String())
	}
	// Split the output into one section per workload, each ending with
	// its report line.
	sections := strings.Split(stdout.String(), "== ")[1:]
	if len(sections) != len(m.Workloads) {
		t.Fatalf("%d workload sections printed, want %d", len(sections), len(m.Workloads))
	}
	declared := append(append([]manifestMetric(nil), m.EndToEnd...), m.PerLayer...)
	for i, sec := range sections {
		name := m.Workloads[i].Name
		if !strings.HasPrefix(sec, name+" ") {
			t.Fatalf("section %d is not %s: %.40q", i, name, sec)
		}
		printed := map[string]int{}
		var rep *report
		for _, line := range strings.Split(sec, "\n") {
			if strings.HasPrefix(line, "{") && rep == nil {
				rep = &report{}
				if err := json.Unmarshal([]byte(line), rep); err != nil {
					t.Fatalf("%s: report line: %v", name, err)
				}
			} else if f := strings.Fields(line); len(f) >= 3 && strings.HasPrefix(line, "  ") && !strings.HasPrefix(line, "   ") {
				printed[f[0]+" "+f[2]]++
			}
		}
		if rep == nil {
			t.Fatalf("%s: no report line", name)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", name, rep.Correct, rep.Attempted, rep.Failed, stderr.String())
		}
		if len(rep.Metrics) != len(declared) {
			t.Errorf("%s: %d metrics reported, %d declared", name, len(rep.Metrics), len(declared))
		}
		for _, d := range declared {
			if got, ok := rep.Metrics[d.Name]; !ok || got.Unit != d.Unit {
				t.Errorf("%s: metric %s reported as %+v, declared unit %q", name, d.Name, got, d.Unit)
			}
			if n := printed[d.Name+" "+d.Unit]; n != 1 {
				t.Errorf("%s: metric %s [%s] printed %d times, want once", name, d.Name, d.Unit, n)
			}
		}
		for _, e := range m.EndToEnd {
			if rep.Metrics[e.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; they must never be 0", name, e.Name, rep.Metrics[e.Name].Value)
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	seq := func(n int) []float64 { // n, n-1, …, 1: unsorted on purpose
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i)
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		in      []float64
		p, want float64
		refused bool
	}{
		{"p50 of 1..100", seq(100), 0.5, 50, false},
		{"p90 of 1..100", seq(100), 0.9, 90, false},
		{"p90 of 1..11", seq(11), 0.9, 10, false},
		{"p50 of 1..3", seq(3), 0.5, 2, false},
		{"p90 of 10 samples", seq(10), 0.9, 0, true},
		{"p90 of 3 samples", seq(3), 0.9, 0, true},
		{"p50 of nothing", nil, 0.5, 0, true},
		{"p100", seq(100), 1, 0, true},
	} {
		got, err := percentile(tc.in, tc.p)
		if tc.refused != (err != nil) || got != tc.want {
			t.Errorf("%s: got %v, %v; want %v, refused=%v", tc.name, got, err, tc.want, tc.refused)
		}
	}
	if got := median([]float64{9, 1}); got != 1 {
		t.Errorf("median of two = %v, want the lower, 1", got)
	}
	if v, ok := percentileOrMax([]float64{3, 7, 5}, 0.9); ok || v != 7 {
		t.Errorf("percentileOrMax fallback = %v, %v; want 7, false", v, ok)
	}
	if s := relSpread([]float64{90, 100, 110}); s < 0.199 || s > 0.201 {
		t.Errorf("relSpread = %v, want 0.2", s)
	}
}
