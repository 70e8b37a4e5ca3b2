package hermes_test

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	hermes "github.com/hermes-net/hermes"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/workload"
)

// goldenPath holds one "key: fingerprint" line per pinned solver run.
// A solver rewrite must leave every line byte-identical; regenerate it
// only for a deliberate plan change, with `go test -run Fingerprints
// -update`.
const goldenPath = "testdata/fingerprints.golden"

var updateGolden = flag.Bool("update", false, "rewrite "+goldenPath+" from this build's plans")

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	rows := map[string]string{}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		if *updateGolden && os.IsNotExist(err) {
			return rows
		}
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		key, fp, ok := strings.Cut(line, ": ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenPath, line)
		}
		rows[key] = fp
	}
	return rows
}

// checkGolden compares one test's fingerprints against the committed
// golden file, or under -update merges them into it (other tests' rows
// are kept, so a -run subset regenerates only what it ran).
func checkGolden(t *testing.T, got map[string]string) {
	t.Helper()
	rows := readGolden(t)
	if !*updateGolden {
		for key, fp := range got {
			want, ok := rows[key]
			if !ok {
				t.Errorf("%s: no golden row for %q (run with -update to add it)", goldenPath, key)
			} else if fp != want {
				t.Errorf("%q differs from %s:\n got %s\nwant %s", key, goldenPath, fp, want)
			}
		}
		return
	}
	for key, fp := range got {
		rows[key] = fp
	}
	lines := make([]string, 0, len(rows))
	for key, fp := range rows {
		lines = append(lines, key+": "+fp)
	}
	sort.Strings(lines)
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// planFingerprint flattens a plan to a stable, comparable string:
// A_max plus the sorted MAT→switch assignment. Byte-identical plans
// produce identical fingerprints across processes and builds, so the
// golden file is a cross-version regression oracle for the solver
// rewrites (same A_max, same assignments).
func planFingerprint(p *placement.Plan) string {
	parts := make([]string, 0, len(p.Assignments))
	for name, sp := range p.Assignments {
		parts = append(parts, fmt.Sprintf("%s=%d", name, sp.Switch))
	}
	sort.Strings(parts)
	return fmt.Sprintf("amax=%dB %s", p.AMax(), strings.Join(parts, " "))
}

// fingerprintInstance builds the Table III instance used throughout
// the solver-identity checks.
func fingerprintInstance(t *testing.T, topoID, programs int) (*placement.Plan, func(workers int) *placement.Plan) {
	t.Helper()
	progs, err := workload.EvaluationPrograms(programs, 1)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := hermes.Analyze(progs, hermes.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	topo, err := network.TableIII(topoID, network.TofinoSpec())
	if err != nil {
		t.Fatal(err)
	}
	solve := func(workers int) *placement.Plan {
		plan, err := (placement.Greedy{}).Solve(merged, topo, placement.Options{Workers: workers})
		if err != nil {
			t.Fatalf("topo %d workers %d: %v", topoID, workers, err)
		}
		return plan
	}
	return solve(1), solve
}

// busiestSwitch returns the switch hosting the most MATs, ties to the
// lower ID.
func busiestSwitch(p *placement.Plan) network.SwitchID {
	loads := map[network.SwitchID]int{}
	for _, sp := range p.Assignments {
		loads[sp.Switch]++
	}
	drain, best := network.SwitchID(-1), -1
	for u, n := range loads {
		if n > best || (n == best && u < drain) {
			drain, best = u, n
		}
	}
	return drain
}

// TestGreedyPlanFingerprints pins the greedy solver's output on the
// first Table III topologies: serial and parallel runs must produce
// byte-identical plans, and both must match the golden file.
func TestGreedyPlanFingerprints(t *testing.T) {
	got := map[string]string{}
	for topoID := 1; topoID <= 3; topoID++ {
		serial, solve := fingerprintInstance(t, topoID, 30)
		fp := planFingerprint(serial)
		got[fmt.Sprintf("greedy topo%d", topoID)] = fp
		for _, workers := range []int{2, 8} {
			if other := planFingerprint(solve(workers)); other != fp {
				t.Fatalf("topo %d: workers=%d plan differs from serial:\n%s\nvs\n%s", topoID, workers, other, fp)
			}
		}
	}
	checkGolden(t, got)
}

// TestReplanPlanFingerprints pins the delta-repair output under each
// objective the climb descends: after a busiest-switch drain on
// topology 1, structural and both traffic-weighted aggregates (the
// structural phase, then the weighted phase under the A_max cap); and
// on topology 2 the drain of switch 61 with and without ε1 = 1.5 × the
// cold t_e2e — the Table III drain where the ε1 feasibility probe
// rejects moves the unbounded climb takes and the repair still passes
// the gates.
func TestReplanPlanFingerprints(t *testing.T) {
	got := map[string]string{}
	replan := func(key string, cold *placement.Plan, opts placement.Options, drain network.SwitchID) {
		t.Helper()
		repaired, report, err := placement.ReplanWithOptions(cold, placement.Greedy{}, placement.ReplanOptions{Options: opts}, drain)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		got[key] = fmt.Sprintf("drain=%d repair=%v moved=%d %s",
			drain, report.UsedRepair, report.MovedMATs, planFingerprint(repaired))
	}

	cold, _ := fingerprintInstance(t, 1, 30)
	drain := busiestSwitch(cold)
	tm, err := network.GenerateTraffic(cold.Topo, network.TrafficHotspot, 1)
	if err != nil {
		t.Fatal(err)
	}
	replan("replan topo1 structural", cold, placement.Options{}, drain)
	replan("replan topo1 weighted-sum", cold, placement.Options{Traffic: tm, TrafficObjective: placement.TrafficWeightedSum}, drain)
	replan("replan topo1 weighted-max", cold, placement.Options{Traffic: tm, TrafficObjective: placement.TrafficWeightedMax}, drain)

	cold2, _ := fingerprintInstance(t, 2, 30)
	replan("replan topo2 structural", cold2, placement.Options{}, 61)
	replan("replan topo2 eps1", cold2, placement.Options{Epsilon1: cold2.TE2E() * 3 / 2}, 61)
	checkGolden(t, got)
}

// TestExactPlanFingerprints pins the branch & bound on the Figure 1
// instance; serial and parallel searches must agree exactly (both run
// to completion: no deadline, default node cap, Proven=true).
func TestExactPlanFingerprints(t *testing.T) {
	progs := workload.RealPrograms()[:4]
	merged, err := hermes.Analyze(progs, hermes.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spec := network.TestbedSpec()
	spec.StageCapacity = 0.15
	topo, err := network.Linear(3, spec)
	if err != nil {
		t.Fatal(err)
	}
	solve := func(workers int) *placement.Plan {
		plan, err := (placement.Exact{}).Solve(merged, topo, placement.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !plan.Proven {
			t.Fatal("exact search did not run to completion")
		}
		return plan
	}
	fp := planFingerprint(solve(1))
	if got := planFingerprint(solve(8)); got != fp {
		t.Fatalf("parallel exact differs from serial:\n%s\nvs\n%s", got, fp)
	}
	checkGolden(t, map[string]string{"exact figure1": fp})
}

// TestShardedPlanFingerprints pins the region-sharded solve and the
// partitioned repair on the benchmark's composite60 inputs at smoke
// size (30 synthetic programs on CompositeWAN(10), 4 regions): the
// sharded plan must be byte-identical for every worker count, and a
// busiest-switch drain under the standing partition must take the
// regional repair.
func TestShardedPlanFingerprints(t *testing.T) {
	progs, err := workload.SyntheticSet(30, workload.PaperSyntheticSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := hermes.Analyze(progs, hermes.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	topo, err := network.CompositeWAN(10, network.TofinoSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	part, err := network.PartitionRegions(topo, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	solver := placement.ShardedGreedy{Partition: part}
	solve := func(workers int) *placement.Plan {
		plan, err := solver.Solve(merged, topo, placement.Options{Shards: 4, Workers: workers})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		return plan
	}
	cold := solve(1)
	fp := planFingerprint(cold)
	for _, workers := range []int{2, 8} {
		if other := planFingerprint(solve(workers)); other != fp {
			t.Fatalf("workers=%d sharded plan differs from serial:\n%s\nvs\n%s", workers, other, fp)
		}
	}

	drain := busiestSwitch(cold)
	ropts := placement.ReplanOptions{Options: placement.Options{Shards: 4}, Partition: part}
	repaired, report, err := placement.ReplanWithOptions(cold, solver, ropts, drain)
	if err != nil {
		t.Fatal(err)
	}
	if !report.UsedRegional {
		t.Fatal("drain under a standing partition did not take the regional repair")
	}

	// The same drain with the quality gate below the repair's own A_max:
	// the merged regional plan fails it, so the overlapping-region
	// exchange runs before the gate decides between repair and fallback.
	ropts.QualityRatio = 0.9
	escalated, escReport, err := placement.ReplanWithOptions(cold, solver, ropts, drain)
	if err != nil {
		t.Fatal(err)
	}
	if escReport.Phases.Exchange == 0 {
		t.Fatal("a repair past its quality gate did not run the exchange")
	}

	// ε bounds at the unconstrained plan's own t_e2e and Q_occ, and the
	// k = 1 fallback on the same inputs.
	eps := placement.Options{Shards: 4, Epsilon1: cold.TE2E(), Epsilon2: cold.QOcc()}
	epsRow := "error: "
	if p, err := solver.Solve(merged, topo, eps); err != nil {
		epsRow += err.Error()
	} else {
		epsRow = planFingerprint(p)
	}
	fallback, err := solver.Solve(merged, topo, placement.Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}

	checkGolden(t, map[string]string{
		"shard composite10 k=4": fp,
		"regional replan composite10": fmt.Sprintf("drain=%d repair=%v regions=%v moved=%d %s",
			drain, report.UsedRepair, report.RegionsTouched, report.MovedMATs, planFingerprint(repaired)),
		"regional replan escalation composite10": fmt.Sprintf("drain=%d repair=%v rounds=%d moves=%d fallback=%q %s",
			drain, escReport.UsedRepair, escReport.ExchangeRounds, escReport.ExchangeMoves,
			escReport.FallbackReason, planFingerprint(escalated)),
		"shard composite10 k=4 eps":  epsRow,
		"shard composite10 fallback": planFingerprint(fallback),
	})
}
