package dataplane

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
	"github.com/hermes-net/hermes/internal/tdg"
	"github.com/hermes-net/hermes/internal/workload"
)

func solveAndCompile(t testing.TB, progs []*program.Program, topo *network.Topology, solver placement.Solver, opts placement.Options) *deploy.Deployment {
	t.Helper()
	g, err := analyzer.Analyze(progs, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := solver.Solve(g, topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := deploy.Compile(plan, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.Verify(); err != nil {
		t.Fatal(err)
	}
	return dep
}

func tableIII1(t testing.TB, capacity float64) *network.Topology {
	t.Helper()
	spec := network.TofinoSpec()
	spec.StageCapacity = capacity
	topo, err := network.TableIII(1, spec)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// churn16Deployment is the benchmark's churn16 input: 16 synthetic
// programs on Table III WAN 1 at 0.3 stage capacity (226 MATs over 22
// switches). equiv.Diagnose reports no warning or error on it (six
// HE009 over-carry infos).
func churn16Deployment(t testing.TB) *deploy.Deployment {
	t.Helper()
	progs, err := workload.SyntheticSet(16, workload.PaperSyntheticSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return solveAndCompile(t, progs, tableIII1(t, 0.3), placement.Greedy{}, placement.Options{})
}

// composite10Deployment is the benchmark's composite60 input in its
// smoke size: 30 synthetic programs on CompositeWAN(10), 4 shards (423
// MATs over 16 switches). equiv.Diagnose reports no warning or error on
// it (one HE009 over-carry info).
func composite10Deployment(t testing.TB) *deploy.Deployment {
	t.Helper()
	progs, err := workload.SyntheticSet(30, workload.PaperSyntheticSpec(), 1)
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
	return solveAndCompile(t, progs, topo, placement.ShardedGreedy{Partition: part}, placement.Options{Shards: 4})
}

// wan30Deployment is the paper's evaluation point (the benchmark's
// wan30): EvaluationPrograms(30, 1) on Table III WAN 1, 305 MATs over 9
// switches. equiv.Diagnose reports 13 benign HE010 shuffles on it:
// TDG-unordered writers the two schedules may legitimately run in
// different orders, so the pipeline and the single box are each pinned
// by value here instead of against each other.
func wan30Deployment(t testing.TB) *deploy.Deployment {
	t.Helper()
	progs, err := workload.EvaluationPrograms(30, 1)
	if err != nil {
		t.Fatal(err)
	}
	return solveAndCompile(t, progs, tableIII1(t, 1.0), placement.Greedy{}, placement.Options{})
}

// graphPackets draws n packets over every header field the graph's
// MATs reference: even packets take small values (so exact rules hit
// and counters collide), odd ones the field's full width.
func graphPackets(g *tdg.Graph, seed int64, n int) []*Packet {
	bits := map[string]int{}
	note := func(f fields.Field) {
		if !f.IsMetadata() {
			bits[f.Name] = f.Bits
		}
	}
	for _, node := range g.Nodes() {
		for _, k := range node.MAT.Keys {
			note(k.Field)
		}
		for _, a := range node.MAT.Actions {
			for _, op := range a.Ops {
				note(op.Dst)
				for _, s := range op.Srcs {
					note(s)
				}
			}
		}
	}
	names := make([]string, 0, len(bits))
	for name := range bits {
		names = append(names, name)
	}
	sort.Strings(names)
	rng := rand.New(rand.NewSource(seed))
	out := make([]*Packet, n)
	for i := range out {
		hdr := make(map[string]uint64, len(names))
		for _, name := range names {
			v := rng.Uint64() & widthMask(bits[name])
			if i%2 == 0 {
				v %= 8
			}
			hdr[name] = v
		}
		out[i] = &Packet{Headers: hdr}
	}
	return out
}

// runDigest folds a run's observable outcome — every packet's write
// log and final headers, then the nonzero counter registers — into one
// FNV-64a value, so a run can be pinned against a literal.
type runDigest struct{ h hash.Hash64 }

func newRunDigest() *runDigest { return &runDigest{h: fnv.New64a()} }

func (d *runDigest) fields(tag string, m map[string]uint64) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(d.h, "%s{", tag)
	for _, k := range names {
		fmt.Fprintf(d.h, "%s=%d;", k, m[k])
	}
	fmt.Fprint(d.h, "}")
}

func (d *runDigest) packet(writes, headers map[string]uint64) {
	d.fields("w", writes)
	d.fields("h", headers)
}

func (d *runDigest) counters(regs map[string][]uint64) {
	names := make([]string, 0, len(regs))
	for k := range regs {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		for slot, v := range regs[k] {
			if v != 0 {
				fmt.Fprintf(d.h, "%s[%d]=%d;", k, slot, v)
			}
		}
	}
}

// registers returns the pipeline's counter register files by MAT name.
func (p *Pipeline) registers() map[string][]uint64 {
	regs := map[string][]uint64{}
	for _, cs := range p.sws {
		for _, cm := range cs.mats {
			if cm.counter >= 0 {
				regs[cm.name] = p.counters[cm.counter]
			}
		}
	}
	return regs
}

// registers returns the single box's counter register files by MAT
// name.
func (e *ReferenceEngine) registers() map[string][]uint64 { return e.exec.counters }
