package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFig2(t *testing.T) {
	if err := run([]string{"-exp", "fig2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunExp6WithCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-exp", "exp6", "-ilp=false", "-csv", dir}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "exp6.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("empty CSV")
	}
}

func TestRunExp1Heuristics(t *testing.T) {
	if testing.Short() {
		t.Skip("seconds-scale experiment")
	}
	if err := run([]string{"-exp", "exp1", "-ilp=false", "-deadline", "500ms"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	for _, name := range []string{"exp99", "exp7", "exp8", "exp10"} { // one name each: replan, survive, shard
		err := run([]string{"-exp", name})
		if err == nil || !strings.Contains(err.Error(), "replan (csv, json, compare, smoke)") {
			t.Errorf("-exp %s: want the registered names with their modes, got %v", name, err)
		}
	}
}

// Flags an experiment does not declare are rejected, not ignored.
func TestRunRejectsUndeclaredModes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "exp6", "-smoke"}, "exp6 has no smoke gate; modes: csv"},
		{[]string{"-exp", "exp6", "-json", "x.json"}, "exp6 has no baseline; modes: csv"},
		{[]string{"-exp", "replan", "-smoke", "-compare", "BENCH_replan.json"}, "-smoke, -json and -compare are separate modes"},
		{[]string{"-exp", "replan", "-smoke", "-json", "x.json"}, "-smoke, -json and -compare are separate modes"},
		{[]string{"-exp", "core,equiv", "-json", "x.json"}, "-json takes one experiment, -exp selects 2"},
		{[]string{"-exp", "core,equiv", "-compare", "x.json"}, "-compare takes one experiment"},
		{[]string{"-exp", "fig2,replan", "-smoke"}, "fig2 has no smoke gate"},
	} {
		if err := run(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: want %q, got %v", tc.args, tc.want, err)
		}
	}
	if err := run([]string{"-exp", "survive", "-compare", filepath.Join("..", "..", "BENCH_rollout.json")}); err == nil ||
		!strings.Contains(err.Error(), `baseline of experiment "rollout"`) {
		t.Errorf("comparing against another experiment's baseline: %v", err)
	}
}

func TestRunCommaSeparatedList(t *testing.T) {
	if err := run([]string{"-exp", "fig2,exp6", "-ilp=false"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunExp7JSONBaseline(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "BENCH_replan.json")
	if err := run([]string{"-exp", "replan", "-programs", "4", "-csv", dir, "-json", jsonPath}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := parseBaseline(data)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Experiment != "replan" || doc.Seed != 1 || doc.Params["topology"] != 1.0 {
		t.Errorf("header %+v", doc)
	}
	if len(doc.Tables["rows"]) == 0 {
		t.Fatalf("no rows:\n%s", data)
	}
	for _, r := range doc.Tables["rows"] {
		for _, c := range replanExp.tables[0].cols {
			if _, ok := r.Metrics.lookup(c.name); !ok {
				t.Errorf("row %s lacks %s", r.Key, c.name)
			}
		}
	}
	if _, err := os.ReadFile(filepath.Join(dir, "replan.csv")); err != nil {
		t.Errorf("replan CSV not written: %v", err)
	}
	// What the run just wrote is what -compare reads.
	if err := run([]string{"-exp", "replan", "-programs", "4", "-compare", jsonPath}); err != nil {
		t.Errorf("fresh baseline does not compare clean: %v", err)
	}
}

// The seeded, seconds-scale smoke gates run end to end through the CLI.
func TestRunSmokeGates(t *testing.T) {
	if err := run([]string{"-exp", "replan,survive,rollout", "-smoke"}); err != nil {
		t.Fatal(err)
	}
}
