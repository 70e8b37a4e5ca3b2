package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// committed reads BENCH_<name>.json from the repo root.
func committed(t *testing.T, name string) (*document, []byte) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := parseBaseline(data)
	if err != nil {
		t.Fatalf("BENCH_%s.json: %v", name, err)
	}
	return doc, data
}

func lookupExperiment(t *testing.T, name string) *experiment {
	t.Helper()
	todo, err := selectExperiments(name)
	if err != nil {
		t.Fatal(err)
	}
	return todo[0]
}

// TestCommittedBaselines is the golden test: a schema or column edit
// that strands a committed baseline fails here, not at the next
// `make compare-<exp>`.
func TestCommittedBaselines(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, e := range registry {
		if e.baseline {
			kept = append(kept, e.name)
		}
	}
	if len(files) != len(kept) {
		t.Errorf("%d BENCH_*.json files at the repo root, %d experiments keep a baseline (%v)", len(files), len(kept), kept)
	}
	for _, name := range kept {
		t.Run(name, func(t *testing.T) {
			e := lookupExperiment(t, name)
			doc, data := committed(t, name)
			if doc.Experiment != name {
				t.Errorf("experiment %q in BENCH_%s.json", doc.Experiment, name)
			}
			for _, tab := range e.tables {
				rows := doc.Tables[tab.name]
				if len(rows) == 0 {
					t.Errorf("table %s has no rows", tab.name)
				}
				for _, r := range rows {
					for _, c := range tab.cols {
						if _, ok := r.Metrics.lookup(c.name); !ok {
							t.Errorf("%s[%s] lacks column %s", tab.name, r.Key, c.name)
						}
					}
				}
			}
			if len(doc.Tables) != len(e.tables) {
				t.Errorf("%d tables on disk, %d declared", len(doc.Tables), len(e.tables))
			}
			if got := e.compare(doc, doc, "itself"); len(got) != 0 {
				t.Errorf("baseline does not compare clean against itself: %q", got)
			}
			again, err := marshalBaseline(doc)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, again) {
				t.Errorf("BENCH_%s.json is not what the one writer produces from it", name)
			}
		})
	}
}

// edit is one perturbation of a committed baseline row.
type edit struct {
	table, key string // key "*" edits every row
	set        map[string]any
	scale      map[string]float64
}

func (ed edit) apply(t *testing.T, doc *document) {
	t.Helper()
	hit := false
	for _, r := range doc.Tables[ed.table] {
		if ed.key != "*" && r.Key != ed.key {
			continue
		}
		hit = true
		for i, kv := range r.Metrics {
			if v, ok := ed.set[kv.name]; ok {
				r.Metrics[i].value = v
			}
			if f, ok := ed.scale[kv.name]; ok {
				r.Metrics[i].value = kv.value.(float64) * f
			}
		}
	}
	if !hit {
		t.Fatalf("no row %s[%s]", ed.table, ed.key)
	}
}

// fresh is a committed baseline standing in for a fresh measurement.
func fresh(t *testing.T, name string) *document {
	doc, _ := committed(t, name)
	return doc
}

// TestEveryGateStillBites perturbs one metric of a committed baseline
// past each threshold the experiments declare and asserts the gate
// fails naming experiment, row and column — and that it passes
// unperturbed and just inside the threshold.
func TestEveryGateStillBites(t *testing.T) {
	type gateCase struct {
		exp  string
		edit edit
		want string // "" = must pass
	}
	set := func(table, key string, kv map[string]any) edit { return edit{table: table, key: key, set: kv} }
	scale := func(table, key string, kv map[string]float64) edit { return edit{table: table, key: key, scale: kv} }

	smoke := []gateCase{
		{"core", set("kernels", "amax", map[string]any{"ns_ratio": 4.9}), "core kernels[amax] ns_ratio = 4.9: want >= 5"},
		{"core", set("kernels", "amax", map[string]any{"compiled_allocs_per_op": 1.0, "allocs_ratio": 9.0}), "core kernels[amax] allocs_ratio = 9"},
		{"core", set("kernels", "amax", map[string]any{"compiled_allocs_per_op": 1.0, "allocs_ratio": 10.0}), ""},
		{"survive", set("single_crash", "46", map[string]any{"used_repair": false}), "survive single_crash[46] used_repair = false"},
		{"survive", set("single_crash", "46", map[string]any{"recovery_ms": 5000.0}), "survive single_crash[46] recovery_ms = 5000"},
		{"survive", set("rows", "20", map[string]any{"violations": 1.0}), "survive rows[20] violations = 1"},
		{"survive", set("rows", "20", map[string]any{"final_shed": 1.0}), "survive rows[20] final_shed = 1"},
		{"survive", set("rows", "40", map[string]any{"max_recovery_ms": 5000.0}), "survive rows[40] max_recovery_ms = 5000"},
		{"survive", set("rows", "*", map[string]any{"replans": 0.0}), "survive rows replans: want > 0"},
		{"shard", set("rows", "composite:10", map[string]any{"fell_back": true}), "shard rows[composite:10] fell_back = true"},
		{"shard", set("rows", "composite:60", map[string]any{"shard_ms": 1e6}), "shard rows[composite:60] shard_ms = 1000000: want < whole_ms on the composite:60 headline"},
		{"shard", set("rows", "composite:10", map[string]any{"shard_ms": 1e6}), ""}, // only the headline is held to beating whole-graph
		{"shard", set("rows", "composite:10", map[string]any{"amax_ratio": 1.501}), "shard rows[composite:10] amax_ratio = 1.501: want <= 1.5"},
		{"shard", set("rows", "composite:10", map[string]any{"amax_ratio": 1.5}), ""},
		{"shard", set("rows", "composite:10", map[string]any{"equiv_ok": false}), "shard rows[composite:10] equiv_ok = false"},
		{"shard", set("rows", "composite:143", map[string]any{"equiv_ok": false}), "shard rows[composite:143] equiv_ok = false"}, // every row is proven
		{"shard", set("rows", "composite:143", map[string]any{"shard_amax_bytes": 0.0}), "shard rows[composite:143] shard_amax_bytes = 0"},
		{"equiv", set("rows", "mixed20_tableIII5", map[string]any{"ns_per_program": 10e6}), "equiv rows[mixed20_tableIII5] ns_per_program = 10000000: want < 10000000"},
		{"equiv", set("rows", "real4_tableIII1", map[string]any{"symbolic_allocs_per_op": 1.0}), "equiv rows[real4_tableIII1] symbolic_allocs_per_op = 1"},
		{"equiv", set("rows", "real4_tableIII1", map[string]any{"replay_ratio": 4.9}), "equiv rows[real4_tableIII1] replay_ratio = 4.9: want >= 5"},
		{"traffic", set("rows", "mixed12_tableIII1/gravity", map[string]any{"hot_pair_cut": 1.99}), "traffic rows[mixed12_tableIII1/gravity] hot_pair_cut = 1.99: want >= 2 on skewed models"},
		{"traffic", set("rows", "mixed12_tableIII1/uniform", map[string]any{"hot_pair_cut": 1.0}), ""}, // the null model is informational
		{"traffic", set("rows", "mixed10_tableIII2/hotspot", map[string]any{"a_max_inflation": 1.21}), "traffic rows[mixed10_tableIII2/hotspot] a_max_inflation = 1.21: want <= 1.2 on skewed models"},
		{"traffic", set("throughput", "mixed12_tableIII1", map[string]any{"speedup": 4.9}), "traffic throughput[mixed12_tableIII1] speedup = 4.9: want >= 5"},
		{"traffic", set("throughput", "mixed12_tableIII1", map[string]any{"batched_allocs_per_packet": 1.0}), "traffic throughput[mixed12_tableIII1] batched_allocs_per_packet = 1: want == 0"},
		{"regionreplan", set("rows", "composite:60", map[string]any{"fell_back": true}), "regionreplan rows[composite:60] fell_back = true"},
		{"regionreplan", set("rows", "composite:10", map[string]any{"regions_touched": 0.0}), "regionreplan rows[composite:10] regions_touched = 0"},
		{"regionreplan", set("rows", "composite:10", map[string]any{"moved_regional": 0.0}), "regionreplan rows[composite:10] moved_regional = 0: want > 0"},
		{"regionreplan", set("rows", "composite:30", map[string]any{"amax_ratio": 1.201, "regional_amax_bytes": 213.0}), "regionreplan rows[composite:30] amax_ratio = 1.201: want <= 1.2 unless the seed was already worse"},
		{"regionreplan", set("rows", "composite:30", map[string]any{"amax_ratio": 1.201}), ""}, // no worse than its seed
		{"regionreplan", set("rows", "composite:10", map[string]any{"equiv_ok": false}), "regionreplan rows[composite:10] equiv_ok = false"},
		{"regionreplan", set("rows", "composite:30", map[string]any{"cold_pack_steps": 9999.0, "regional_pack_steps": 2000.0}), "regionreplan rows[composite:30] cold_pack_steps = 9999: want >= 5 x regional_pack_steps on the composite:30 headline"},
		{"regionreplan", set("rows", "composite:30", map[string]any{"cold_pack_steps": 10000.0, "regional_pack_steps": 2000.0}), ""},
		{"regionreplan", set("rows", "composite:10", map[string]any{"cold_pack_steps": 9999.0, "regional_pack_steps": 2000.0}), ""}, // only the headline is held to 5x
		{"regionreplan", set("rows", "composite:30", map[string]any{"speedup": 1.0}), ""},                                           // the wall-clock ratio is reported, not gated
		{"rollout", set("rows", "table3:1", map[string]any{"violations": 1.0}), "rollout rows[table3:1] violations = 1"},
		{"rollout", set("rows", "table3:1", map[string]any{"committed": 0.0, "degraded": 27.0}), "rollout rows[table3:1] committed = 0"},
		{"rollout", set("rows", "table3:2", map[string]any{"rolled_back": 0.0, "degraded": 8.0}), "rollout rows[table3:2] rolled_back = 0"},
		{"rollout", set("rows", "table3:2", map[string]any{"resumed": 0.0}), "rollout rows[table3:2] resumed = 0"},
		{"rollout", set("rows", "composite:2", map[string]any{"degraded": 4.0}), "rollout rows[composite:2] injections = 33: want = committed + rolled_back + degraded"},
		{"rollout", set("rows", "composite:2", map[string]any{"max_ms": 5000.0}), "rollout rows[composite:2] max_ms = 5000"},
		{"replan", set("rows", "10", map[string]any{"fell_back": true}), "replan rows[10] fell_back = true"},
	}
	for _, tc := range smoke {
		e, doc := lookupExperiment(t, tc.exp), fresh(t, tc.exp)
		if got := e.failedChecks(doc); len(got) != 0 {
			t.Fatalf("%s: committed baseline fails its own checks: %q", tc.exp, got)
		}
		tc.edit.apply(t, doc)
		expectGate(t, "smoke "+tc.exp, e.failedChecks(doc), tc.want)
	}

	both := func(raw, calib string, up, down float64) map[string]float64 {
		return map[string]float64{raw: up, calib: 1 / down}
	}
	compare := []gateCase{
		{"core", scale("kernels", "move_delta", both("compiled_ns_per_op", "ns_ratio", 1.11, 1.11)), "core kernels[move_delta] compiled_ns_per_op "},
		{"core", scale("kernels", "move_delta", both("compiled_ns_per_op", "ns_ratio", 1.11, 1.09)), ""},
		{"core", scale("kernels", "move_delta", both("compiled_ns_per_op", "ns_ratio", 1.09, 1.11)), ""},
		{"core", set("kernels", "amax", map[string]any{"compiled_allocs_per_op": 1.0}), "core kernels[amax] compiled_allocs_per_op = 1: the baseline was allocation-free"},
		{"shard", scale("rows", "composite:30", both("shard_ms", "speedup", 1.11, 1.11)), "shard rows[composite:30] shard_ms "},
		{"shard", scale("rows", "composite:143", map[string]float64{"shard_ms": 3}), ""}, // no in-run calibrator
		{"shard", scale("rows", "composite:143", map[string]float64{"shard_amax_bytes": 1.11}), "shard rows[composite:143] shard_amax_bytes"},
		{"shard", scale("rows", "composite:143", map[string]float64{"shard_amax_bytes": 1.09}), ""},
		{"shard", set("rows", "composite:60", map[string]any{"fell_back": true}), "shard rows[composite:60] fell_back = true: baseline false"},
		{"equiv", scale("rows", "mixed10_tableIII2", both("symbolic_ns_per_op", "replay_ratio", 1.11, 1.26)), "equiv rows[mixed10_tableIII2] symbolic_ns_per_op "},
		{"equiv", scale("rows", "mixed10_tableIII2", both("symbolic_ns_per_op", "replay_ratio", 2, 1.24)), ""},
		{"equiv", set("rows", "real4_tableIII1", map[string]any{"symbolic_allocs_per_op": 1.0}), "equiv rows[real4_tableIII1] symbolic_allocs_per_op = 1"},
		{"equiv", set("rows", "mixed10_tableIII2", map[string]any{"symbolic_allocs_per_op": 180.0}), ""},
		{"traffic", scale("rows", "mixed10_tableIII2/elephants", map[string]float64{"hot_pair_cut": 1 / 1.12}), "traffic rows[mixed10_tableIII2/elephants] hot_pair_cut"},
		{"traffic", scale("rows", "mixed10_tableIII2/elephants", map[string]float64{"hot_pair_cut": 1 / 1.09}), ""},
		{"traffic", scale("throughput", "mixed12_tableIII1", both("batched_ns_per_op", "speedup", 1.11, 1.51)), "traffic throughput[mixed12_tableIII1] batched_ns_per_op "},
		{"traffic", scale("throughput", "mixed12_tableIII1", both("batched_ns_per_op", "speedup", 1.11, 1.49)), ""},
		{"traffic", set("throughput", "mixed12_tableIII1", map[string]any{"batched_allocs_per_packet": 1.0}), "traffic throughput[mixed12_tableIII1] batched_allocs_per_packet = 1"},
		{"regionreplan", scale("rows", "composite:30", both("regional_ms", "speedup", 1.11, 1.26)), "regionreplan rows[composite:30] regional_ms "},
		{"regionreplan", scale("rows", "composite:30", both("regional_ms", "speedup", 1.5, 1.24)), ""},
		{"regionreplan", set("rows", "composite:10", map[string]any{"fell_back": true}), "regionreplan rows[composite:10] fell_back = true: baseline false"},
		{"survive", set("single_crash", "46", map[string]any{"used_repair": false}), "survive single_crash[46] used_repair = false: baseline true"},
		{"survive", set("rows", "20", map[string]any{"shed_events": 1.0}), "survive rows[20] shed_events = 1: baseline 0"},
		{"survive", set("rows", "20", map[string]any{"final_shed": 1.0}), "survive rows[20] final_shed = 1: baseline 0"},
		{"survive", scale("rows", "40", map[string]float64{"amax_inflation": 1.11}), "survive rows[40] amax_inflation = 1.11: baseline 1 (tolerance 10%)"},
		{"survive", scale("rows", "40", map[string]float64{"amax_inflation": 1.09, "max_recovery_ms": 50}), ""},
		{"rollout", set("rows", "table3:1", map[string]any{"ops": 15.0}), "rollout rows[table3:1] ops = 15: baseline 14"},
		{"rollout", set("rows", "table3:1", map[string]any{"committed": 21.0}), "rollout rows[table3:1] committed = 21: baseline 22"},
		{"rollout", set("rows", "table3:2", map[string]any{"resumed": 10.0}), "rollout rows[table3:2] resumed = 10: baseline 11"},
		{"rollout", set("rows", "composite:2", map[string]any{"retries": 18.0}), "rollout rows[composite:2] retries = 18: baseline 17"},
		{"rollout", scale("rows", "composite:2", map[string]float64{"max_ms": 100, "mean_ms": 100}), ""}, // latency is not compared
		{"replan", set("rows", "50", map[string]any{"moved_mats_incremental": 51.0}), "replan rows[50] moved_mats_incremental = 51: baseline 50"},
	}
	for _, tc := range compare {
		e, cur := lookupExperiment(t, tc.exp), fresh(t, tc.exp)
		base, _ := committed(t, tc.exp)
		tc.edit.apply(t, cur)
		expectGate(t, "compare "+tc.exp, e.compare(base, cur, "BENCH_"+tc.exp+".json"), tc.want)
	}
}

func expectGate(t *testing.T, gate string, got []string, want string) {
	t.Helper()
	switch {
	case want == "" && len(got) != 0:
		t.Errorf("%s: want pass, got %q", gate, got)
	case want != "" && (len(got) == 0 || !strings.Contains(got[0], want)):
		t.Errorf("%s: want a failure containing %q, got %q", gate, want, got)
	}
}
