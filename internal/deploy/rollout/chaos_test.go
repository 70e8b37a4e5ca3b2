package rollout

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"github.com/hermes-net/hermes/internal/dataplane"
	"github.com/hermes-net/hermes/internal/equiv"
	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/tdg"
)

// replayPackets synthesizes packets covering every header field either
// plan's MATs read or write, for the dataplane continuity check.
func replayPackets(g *tdg.Graph, seed int64, n int) []*dataplane.Packet {
	rng := rand.New(rand.NewSource(seed))
	var hdrs []fields.Field
	seen := map[string]bool{}
	note := func(f fields.Field) {
		if !f.IsMetadata() && !seen[f.Name] {
			seen[f.Name] = true
			hdrs = append(hdrs, f)
		}
	}
	for _, node := range g.Nodes() {
		for _, k := range node.MAT.Keys {
			note(k.Field)
		}
		for _, a := range node.MAT.Actions {
			for _, op := range a.Ops {
				note(op.Dst)
				for _, f := range op.Srcs {
					note(f)
				}
			}
		}
	}
	sort.Slice(hdrs, func(i, j int) bool { return hdrs[i].Name < hdrs[j].Name })
	out := make([]*dataplane.Packet, n)
	for i := range out {
		p := &dataplane.Packet{Headers: map[string]uint64{}}
		for _, f := range hdrs {
			mask := uint64(1)<<uint(f.Bits) - 1
			if f.Bits >= 64 {
				mask = ^uint64(0)
			}
			p.Headers[f.Name] = rng.Uint64() & mask
		}
		out[i] = p
	}
	return out
}

// tripFabric interrupts exactly one Apply (simulating a lost control
// channel / process crash at that op), then behaves normally.
type tripFabric struct {
	*MemFabric
	trip int
	n    int
}

func (f *tripFabric) Apply(ctx context.Context, op Op) error {
	i := f.n
	f.n++
	if i == f.trip {
		return ErrInterrupted
	}
	return f.MemFabric.Apply(ctx, op)
}

// TestRolloutChaosEveryBoundary is the exhaustive mid-rollout fault
// sweep on one WAN: both plans are first proven equivalent to the
// single-box reference (symbolically and by packet replay), then a
// fault is injected at EVERY op boundary in three modes — crash the
// op's target, crash-then-heal (flap), and interrupt-plus-resume. At
// every boundary of every run the serving view must be un-torn; every
// run must end committed, rolled back, or degraded-but-consistent.
func TestRolloutChaosEveryBoundary(t *testing.T) {
	old, topo := fixture(t, 3, 6)
	next, _ := drained(t, old, "p3")

	// The serving plan at any instant is one of these two; prove both
	// once so "equiv proves whichever plan is serving" holds for free.
	if err := equiv.CheckDeployment(nil, old); err != nil {
		t.Fatalf("old deployment not proven: %v", err)
	}
	if err := equiv.CheckDeployment(nil, next); err != nil {
		t.Fatalf("new deployment not proven: %v", err)
	}
	// Packet-level continuity: both epochs replay identically to the
	// reference, so a program flipping between them never observes a
	// divergent write history mid-rollout.
	pkts := replayPackets(old.Plan.Graph, 42, 24)
	if _, err := dataplane.EquivalentRuns(old, pkts); err != nil {
		t.Fatalf("old deployment replay: %v", err)
	}
	if _, err := dataplane.EquivalentRuns(next, replayPackets(next.Plan.Graph, 43, 24)); err != nil {
		t.Fatalf("new deployment replay: %v", err)
	}

	// Dry run to count op boundaries.
	dryFab := NewMemFabric(topo.Clone())
	dryFab.Bootstrap(old, 1)
	dry, err := New(old, next, Options{Topo: topo, Fabric: dryFab, Retry: quickRetry()})
	if err != nil {
		t.Fatal(err)
	}
	dryRep, err := dry.Execute()
	if err != nil {
		t.Fatal(err)
	}
	boundaries := dryRep.Ops
	if boundaries < 10 {
		t.Fatalf("only %d op boundaries; fixture too small for a meaningful sweep", boundaries)
	}

	var committed, rolledBack, degraded, resumed int
	injections := 0
	for b := 0; b < boundaries; b++ {
		for _, mode := range []string{"crash", "flap", "interrupt"} {
			injections++
			live := topo.Clone()
			fab := NewMemFabric(live)
			fab.Bootstrap(old, 1)

			var victim network.SwitchID
			victimSet := false
			boundary := 0
			hook := func(phase string, op Op, view *ServingView) {
				if err := view.CheckInstalled(fab); err != nil {
					t.Fatalf("b=%d mode=%s: torn state at %s %s: %v", b, mode, phase, op.String(), err)
				}
				if boundary == b && (mode == "crash" || mode == "flap") {
					victim = op.Switch
					if op.Kind == OpCommit {
						// Commits target groups; crash a hosting switch
						// of the epoch being flipped to (or from, on
						// unflips of withdrawn groups).
						plan := next.Plan
						if op.Epoch == 1 {
							plan = old.Plan
						}
						if g := dry.progGroup[op.Group]; g != nil {
							if hosts := hostsOf(plan, g.progs); len(hosts) > 0 {
								victim = hosts[len(hosts)-1]
							}
						}
					}
					victimSet = true
					if err := live.SetSwitchDown(victim); err != nil {
						t.Fatalf("b=%d mode=%s: %v", b, mode, err)
					}
				} else if boundary == b+1 && mode == "flap" && victimSet {
					if err := live.SetSwitchUp(victim); err != nil {
						t.Fatalf("b=%d mode=%s heal: %v", b, mode, err)
					}
					victimSet = false
				}
				boundary++
			}

			var f Fabric = fab
			if mode == "interrupt" {
				f = &tripFabric{MemFabric: fab, trip: b}
			}
			r, err := New(old, next, Options{Topo: live, Fabric: f, Retry: quickRetry(), Hook: hook})
			if err != nil {
				t.Fatalf("b=%d mode=%s: New: %v", b, mode, err)
			}
			rep, err := r.Execute()

			if mode == "interrupt" && errors.Is(err, ErrInterrupted) {
				// Resume through the journal's text form on the healed
				// fabric; it must complete.
				j, perr := ParseJournal(r.Journal().Format())
				if perr != nil {
					t.Fatalf("b=%d: journal round-trip: %v", b, perr)
				}
				r2, nerr := New(old, next, Options{Topo: live, Fabric: fab, Journal: j, Retry: quickRetry()})
				if nerr != nil {
					t.Fatalf("b=%d: resume New: %v", b, nerr)
				}
				rep, err = r2.Execute()
				if err != nil || rep.Outcome != OutcomeCommitted {
					t.Fatalf("b=%d: resume = %s, %v; want committed", b, rep.Outcome, err)
				}
				resumed++
				r = r2
			}

			view := r.View()
			if cerr := view.CheckInstalled(fab); cerr != nil {
				t.Fatalf("b=%d mode=%s: terminal state torn: %v", b, mode, cerr)
			}
			switch rep.Outcome {
			case OutcomeCommitted:
				committed++
				if err != nil {
					t.Fatalf("b=%d mode=%s: committed with error %v", b, mode, err)
				}
				for _, p := range view.Programs() {
					if e := view.EpochOf(p); e != 2 {
						t.Fatalf("b=%d mode=%s: committed but %s serves epoch %d", b, mode, p, e)
					}
				}
			case OutcomeRolledBack:
				rolledBack++
				if !errors.Is(err, ErrRolledBack) {
					t.Fatalf("b=%d mode=%s: rolled back without ErrRolledBack (%v)", b, mode, err)
				}
				for _, p := range view.Programs() {
					if e := view.EpochOf(p); e != 1 {
						t.Fatalf("b=%d mode=%s: rolled back but %s serves epoch %d", b, mode, p, e)
					}
				}
				// The last-good deployment is still verify-green.
				if verr := old.Verify(); verr != nil {
					t.Fatalf("b=%d mode=%s: last-good fails Verify: %v", b, mode, verr)
				}
			case OutcomeDegraded:
				degraded++
				// Consistency (no torn program) was asserted above; a
				// degraded rollout must still surface an error.
				if err == nil {
					t.Fatalf("b=%d mode=%s: degraded with nil error", b, mode)
				}
			default:
				t.Fatalf("b=%d mode=%s: non-terminal outcome %s (%v)", b, mode, rep.Outcome, err)
			}
		}
	}

	if injections < 30 {
		t.Fatalf("only %d injection points, want >= 30", injections)
	}
	if committed == 0 || rolledBack == 0 {
		t.Fatalf("sweep never exercised both terminals: committed=%d rolledBack=%d degraded=%d", committed, rolledBack, degraded)
	}
	if resumed == 0 {
		t.Fatal("no interrupted rollout resumed")
	}
	t.Logf("chaos sweep: %d injections, %d committed, %d rolled back, %d degraded, %d resumed",
		injections, committed, rolledBack, degraded, resumed)
}
