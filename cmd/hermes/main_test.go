package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseWorkload(t *testing.T) {
	tests := []struct {
		spec    string
		count   int
		wantErr bool
	}{
		{"real:3", 3, false},
		{"real:10", 10, false},
		{"real:11", 0, true},
		{"synthetic:5", 5, false},
		{"sketches:4", 4, false},
		{"mixed:12", 12, false},
		{"real", 0, true},
		{"real:x", 0, true},
		{"real:0", 0, true},
		{"bogus:3", 0, true},
		{"file:/does/not/exist.json", 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.spec, func(t *testing.T) {
			progs, err := parseWorkload(tt.spec, 1)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr = %v", err, tt.wantErr)
			}
			if err == nil && len(progs) != tt.count {
				t.Errorf("count = %d, want %d", len(progs), tt.count)
			}
		})
	}
}

func TestParseWorkloadP4File(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.p4l")
	src := "program p;\nmetadata m : 8;\ntable t { action a { set m <- 1; } default a; }\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	progs, err := parseWorkload("p4:"+path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 1 || progs[0].Name != "p" {
		t.Fatalf("progs = %+v", progs)
	}
	if _, err := parseWorkload("p4:/missing.p4l", 1); err == nil {
		t.Error("missing p4 file accepted")
	}
	// A syntactically broken file must fail with a positioned error.
	bad := filepath.Join(dir, "bad.p4l")
	if err := os.WriteFile(bad, []byte("table {"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := parseWorkload("p4:"+bad, 1); err == nil {
		t.Error("broken p4 file accepted")
	}
}

func TestParseTopology(t *testing.T) {
	tests := []struct {
		spec     string
		switches int
		wantErr  bool
	}{
		{"linear:3", 3, false},
		{"fattree:4", 20, false},
		{"table3:1", 65, false},
		{"wan:10,15", 10, false},
		{"linear:x", 0, true},
		{"wan:10", 0, true},
		{"wan:a,b", 0, true},
		{"nope:1", 0, true},
		{"linear", 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.spec, func(t *testing.T) {
			tp, err := parseTopology(tt.spec, 1, 0)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr = %v", err, tt.wantErr)
			}
			if err == nil && tp.NumSwitches() != tt.switches {
				t.Errorf("switches = %d, want %d", tp.NumSwitches(), tt.switches)
			}
		})
	}
}

func TestParseTopologyCapacityOverride(t *testing.T) {
	tp, err := parseTopology("linear:3", 1, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := tp.Switch(0)
	if err != nil {
		t.Fatal(err)
	}
	if sw.StageCapacity != 0.25 {
		t.Errorf("capacity = %g, want 0.25", sw.StageCapacity)
	}
}

func TestParseSolvers(t *testing.T) {
	all, err := parseSolvers("all")
	if err != nil {
		t.Fatal(err)
	}
	// The experiments' lineup (TestSolverSpecsLineup) is the same.
	want := []string{"Hermes", "Optimal", "MS", "Sonata", "SPEED", "MTP", "FP", "P4All", "FFL", "FFLS"}
	if len(all) != len(want) {
		t.Fatalf("all = %d solvers, want %d", len(all), len(want))
	}
	for i, s := range all {
		if s.Name() != want[i] {
			t.Errorf("all[%d] = %s, want %s", i, s.Name(), want[i])
		}
	}
	multi, err := parseSolvers("hermes, ffl,ffls")
	if err != nil {
		t.Fatal(err)
	}
	if len(multi) != 3 || multi[0].Name() != "Hermes" {
		t.Errorf("multi = %v", multi)
	}
	if _, err := parseSolvers("quantum"); err == nil {
		t.Error("unknown solver accepted")
	}
	for _, name := range []string{"hermes", "optimal", "ms", "sonata", "speed", "mtp", "fp", "p4all", "ffl", "ffls"} {
		if _, err := parseSolvers(name); err != nil {
			t.Errorf("solver %q rejected: %v", name, err)
		}
	}
	if _, err := parseSolvers("ilp"); err == nil {
		t.Error("the MILP is a test oracle, not a CLI solver")
	}
}

func TestRunEndToEnd(t *testing.T) {
	// The whole CLI flow against a tiny instance.
	if err := run([]string{
		"-workload", "real:2", "-topology", "linear:3",
		"-solver", "hermes,ffl", "-verify",
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunEmitBundle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bundle.json")
	if err := run([]string{"-workload", "real:2", "-emit-bundle", path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"programs"`) {
		t.Error("bundle content unexpected")
	}
	// Round trip through -workload file:.
	if err := run([]string{"-workload", "file:" + path, "-topology", "linear:3", "-solver", "hermes"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunJSONOutput(t *testing.T) {
	if err := run([]string{"-workload", "real:2", "-topology", "linear:3", "-json"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-workload", "bogus:1"}); err == nil {
		t.Error("bad workload accepted")
	}
	if err := run([]string{"-topology", "bogus:1"}); err == nil {
		t.Error("bad topology accepted")
	}
	if err := run([]string{"-solver", "bogus"}); err == nil {
		t.Error("bad solver accepted")
	}
}

func TestRunReportAndSavePlan(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plan.json")
	if err := run([]string{
		"-workload", "real:2", "-topology", "linear:3",
		"-solver", "hermes", "-report", "-save-plan", path,
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"assignments"`) {
		t.Error("saved plan missing assignments")
	}
}

func TestRunDrainReplan(t *testing.T) {
	// Drain a switch after the solve and exercise each replan mode.
	for _, mode := range []string{"auto", "incremental", "full"} {
		if err := run([]string{
			"-workload", "real:2", "-topology", "linear:3",
			"-solver", "hermes", "-drain", "0", "-replan", mode,
		}); err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
	}
	if err := run([]string{"-drain", "zero"}); err == nil {
		t.Error("bad drain spec accepted")
	}
	if err := run([]string{"-drain", "0", "-replan", "bogus"}); err == nil {
		t.Error("bad replan mode accepted")
	}
}
