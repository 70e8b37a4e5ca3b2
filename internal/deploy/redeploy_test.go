package deploy

import (
	"testing"
	"time"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
)

// TestRedeployAroundDrain heals a live deployment around a drained
// switch: the replanned configs must verify, carry the churn report,
// and leave the drained switch empty — while the old deployment stays
// untouched for migration diffing.
func TestRedeployAroundDrain(t *testing.T) {
	g, err := analyzer.Analyze([]*program.Program{pipelineProgram(t)}, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tp := network.NewTopology("tb3")
	for i := 0; i < 3; i++ {
		tp.AddSwitch(network.Switch{
			Programmable: true, Stages: 1, StageCapacity: 0.5,
			TransitLatency: time.Microsecond,
		})
	}
	for i := 0; i+1 < 3; i++ {
		if err := tp.AddLink(network.SwitchID(i), network.SwitchID(i+1), time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := (placement.Greedy{}).Solve(g, tp, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := Compile(plan, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	drained := plan.UsedSwitches()[0]

	next, rep, err := Redeploy(dep, nil, placement.ReplanOptions{}, drained)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("redeploy must return the churn report")
	}
	if err := next.Verify(); err != nil {
		t.Fatalf("redeployed configs must verify: %v", err)
	}
	if _, ok := next.Configs[drained]; ok {
		t.Errorf("drained switch %d still has a config", drained)
	}
	for name, sp := range next.Plan.Assignments {
		if sp.Switch == drained {
			t.Errorf("MAT %q still hosted on drained switch %d", name, drained)
		}
	}
	// The original deployment is untouched.
	if _, ok := dep.Configs[drained]; !ok {
		t.Error("redeploy must not mutate the original deployment")
	}
	if rep.MovedMATs == 0 {
		t.Error("draining an occupied switch must move MATs")
	}

}
