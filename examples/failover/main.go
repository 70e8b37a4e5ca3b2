// Command failover walks the operational lifecycle of a Hermes
// deployment: deploy a monitoring workload, install rules at runtime,
// drain a switch for maintenance, replan around it, and verify that the
// re-deployed network still processes traffic exactly like a single
// big switch — with the coordination overhead re-minimized for the
// reduced substrate.
package main

import (
	"fmt"
	"os"

	hermes "github.com/hermes-net/hermes"
)

func run() error {
	progs := []*hermes.Program{}
	sketches, err := hermes.Sketches(6, 11)
	if err != nil {
		return err
	}
	progs = append(progs, sketches...)

	spec := hermes.TestbedSpec()
	spec.StageCapacity = 0.25
	topo, err := hermes.LinearTopology(4, spec)
	if err != nil {
		return err
	}

	fmt.Println("=== Deployment lifecycle ===")
	res, err := hermes.Deploy(progs, topo, hermes.DeployOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("initial: %s\n", res.Plan.Summary())

	// Baseline traffic run.
	pkts, _, err := hermes.TrafficSpec{Packets: 500, Flows: 32, Seed: 2}.Generate()
	if err != nil {
		return err
	}
	if _, err := hermes.VerifyEquivalence(res.Deployment, pkts); err != nil {
		return err
	}
	fmt.Printf("traffic: %d packets verified against single-box execution\n", len(pkts))

	// Runtime rule installation through the controller (paper §VI-A):
	// the update is routed to the switch hosting the table.
	ctl, err := hermes.NewController(res.Deployment)
	if err != nil {
		return err
	}
	mat := res.TDG.NodeNames()[1] // a counting row
	sw, err := ctl.HostingSwitch(mat)
	if err != nil {
		return err
	}
	node, _ := res.TDG.Node(mat)
	rule := hermes.Rule{
		Matches: map[string]hermes.Pattern{node.MAT.Keys[0].Field.Name: {Value: 7}},
		Action:  node.MAT.Actions[0].Name,
	}
	if err := ctl.InstallRule(mat, rule); err != nil {
		return err
	}
	n, err := ctl.RuleCount(mat)
	if err != nil {
		return err
	}
	fmt.Printf("runtime: installed a rule on %q (switch %d), which now holds %d; per-switch load:\n", mat, sw, n)
	for _, l := range ctl.Loads() {
		fmt.Printf("  switch %d: %d MATs, %d rules\n", l.Switch, l.MATs, l.Rules)
	}
	// The engines compile the rule tables when built: verifying again
	// builds both from the live tables.
	if _, err := hermes.VerifyEquivalence(res.Deployment, pkts); err != nil {
		return err
	}
	if err := ctl.RemoveRule(mat, 0); err != nil {
		return err
	}
	if n, err = ctl.RuleCount(mat); err != nil {
		return err
	}
	fmt.Printf("runtime: traffic re-verified with the rule, then removed it (%d left)\n", n)

	// Route optimization: spread coordination bytes across paths.
	if maxLink, err := hermes.OptimizeRoutes(res.Plan, hermes.RouteOptions{K: 3}); err == nil {
		fmt.Printf("routes: busiest link carries %dB after k-shortest-path spreading\n\n", maxLink)
	}

	// Drain the busiest switch and heal the live deployment in one
	// step: incremental delta repair (full-solve fallback under
	// ReplanAuto), recompile, re-verify — with the churn telemetry.
	used := res.Plan.UsedSwitches()
	drained := used[0]
	fmt.Printf("=== Draining switch %d ===\n", drained)
	dep2, rep, err := hermes.Redeploy(res.Deployment, hermes.GreedySolver,
		hermes.ReplanOptions{Mode: hermes.ReplanAuto}, hermes.AnalyzeOptions{}, drained)
	if err != nil {
		return err
	}
	path := "full solve"
	if rep.UsedRepair {
		path = fmt.Sprintf("delta repair, %d dirty MATs", rep.DirtyMATs)
	}
	fmt.Printf("replanned: %s\n", dep2.Plan.Summary())
	fmt.Printf("migration: %d of %d MATs moved via %s in %v\n",
		rep.MovedMATs, res.TDG.NumNodes(), path, rep.TotalTime)

	// Re-verify traffic on the reduced substrate.
	if _, err := hermes.VerifyEquivalence(dep2, pkts); err != nil {
		return err
	}
	fmt.Printf("traffic: re-verified %d packets on the drained topology (header %dB)\n",
		len(pkts), dep2.MaxHeaderBytes())
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "failover:", err)
		os.Exit(1)
	}
}
