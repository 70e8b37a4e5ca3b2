package main

import (
	"strings"
	"testing"

	"github.com/hermes-net/hermes/internal/network"
)

func TestBuildSpec(t *testing.T) {
	tests := []struct {
		spec     string
		switches int
		wantErr  bool
	}{
		{"linear:4", 4, false},
		{"fattree:4", 20, false},
		{"table3:2", 70, false},
		{"wan:8,10", 8, false},
		{"wan:8", 0, true},
		{"bogus:1", 0, true},
		{"linear", 0, true},
		{"linear:x", 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.spec, func(t *testing.T) {
			tp, err := buildSpec(tt.spec, 1)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tt.wantErr)
			}
			if err == nil && tp.NumSwitches() != tt.switches {
				t.Errorf("switches = %d, want %d", tp.NumSwitches(), tt.switches)
			}
		})
	}
}

func TestDiameter(t *testing.T) {
	tp, err := network.Linear(5, network.TestbedSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got := diameter(tp); got != 4 {
		t.Errorf("linear-5 diameter = %d, want 4", got)
	}
	// A fat tree's farthest switches are edges in different pods:
	// edge, aggregation, core, aggregation, edge.
	ft, err := network.FatTree(4, network.TofinoSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := diameter(ft); got != 4 {
		t.Errorf("fattree-4 diameter = %d, want 4", got)
	}
}

func TestDotGraph(t *testing.T) {
	tp, err := network.Linear(3, network.TestbedSpec())
	if err != nil {
		t.Fatal(err)
	}
	dot := dotGraph(tp)
	for _, want := range []string{"graph topo", "0 -- 1", "doublecircle"} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot output missing %q", want)
		}
	}
}

func TestRunModes(t *testing.T) {
	if err := run([]string{"-table3"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", "linear:3"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", "fattree:4", "-dot"}); err != nil {
		t.Fatal(err)
	}
	if err := run(nil); err == nil {
		t.Error("no-args run accepted")
	}
	if err := run([]string{"-spec", "bogus:9"}); err == nil {
		t.Error("bad spec accepted")
	}
}
