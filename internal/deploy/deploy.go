// Package deploy is the Hermes backend (paper §VI-A "Implementation"):
// it turns the optimization framework's decision variables into
// per-switch configurations. For every switch it derives the stage
// program (which MAT fragments run in which stage) and the
// coordination headers: the exact metadata fields the switch must
// piggyback on packets toward each downstream switch, and the fields it
// must extract on ingress. The real system hands these to the vendor
// switch compiler; our data plane simulator executes them directly.
package deploy

import (
	"fmt"
	"sort"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
	"github.com/hermes-net/hermes/internal/program"
)

// StageEntry is one MAT fragment scheduled in a stage.
type StageEntry struct {
	// MAT is the table name.
	MAT string
	// Amount is the resource slice the fragment consumes in this stage.
	Amount float64
}

// CoordHeader is the layout of piggybacked metadata toward one
// downstream switch.
type CoordHeader struct {
	// Fields lists the carried metadata fields, sorted by name: a
	// deterministic wire layout.
	Fields []fields.Field
	// Bytes is the total header size.
	Bytes int
}

// SwitchConfig is everything one switch needs.
type SwitchConfig struct {
	// Switch identifies the target.
	Switch network.SwitchID
	// Stages[i] lists the MAT fragments running in stage i, in
	// deterministic order.
	Stages [][]StageEntry
	// Exports maps each downstream switch to the coordination header
	// this switch serializes onto departing packets.
	Exports map[network.SwitchID]CoordHeader
	// Imports maps each upstream switch to the header parsed on
	// ingress.
	Imports map[network.SwitchID]CoordHeader
}

// MATNames returns every MAT hosted by the switch, sorted.
func (c *SwitchConfig) MATNames() []string {
	seen := map[string]bool{}
	for _, st := range c.Stages {
		for _, e := range st {
			seen[e.MAT] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Deployment is the compiled form of a plan.
type Deployment struct {
	// Plan is the source plan.
	Plan *placement.Plan
	// Configs maps each used switch to its configuration.
	Configs map[network.SwitchID]*SwitchConfig
	// Headers maps each communicating ordered switch pair to its
	// coordination header (the same object the exporter and importer
	// reference).
	Headers map[placement.RouteKey]CoordHeader
}

// MaxHeaderBytes returns the largest coordination header — the
// deployment-level realization of A_max.
func (d *Deployment) MaxHeaderBytes() int {
	max := 0
	for _, h := range d.Headers {
		if h.Bytes > max {
			max = h.Bytes
		}
	}
	return max
}

// Compile lowers a plan into per-switch configurations; each header
// carries the fields behind the plan's A(a,b) values. opts is ignored:
// no analyzer option changes A(a,b) any more, and the parameter stays
// only until benchmark/ moves onto the facade (ROADMAP 2(ii)).
func Compile(plan *placement.Plan, opts analyzer.Options) (*Deployment, error) {
	if plan == nil || plan.Graph == nil || plan.Topo == nil {
		return nil, fmt.Errorf("deploy: nil or incomplete plan")
	}
	d := &Deployment{
		Plan:    plan,
		Configs: map[network.SwitchID]*SwitchConfig{},
		Headers: map[placement.RouteKey]CoordHeader{},
	}
	// Stage programs.
	for name, sp := range plan.Assignments {
		cfg := d.Configs[sp.Switch]
		if cfg == nil {
			sw, err := plan.Topo.Switch(sp.Switch)
			if err != nil {
				return nil, fmt.Errorf("deploy: %w", err)
			}
			cfg = &SwitchConfig{
				Switch:  sp.Switch,
				Stages:  make([][]StageEntry, sw.Stages),
				Exports: map[network.SwitchID]CoordHeader{},
				Imports: map[network.SwitchID]CoordHeader{},
			}
			d.Configs[sp.Switch] = cfg
		}
		for i, amt := range sp.PerStage {
			if amt <= 0 {
				continue
			}
			stage := sp.Start + i
			if stage >= len(cfg.Stages) {
				return nil, fmt.Errorf("deploy: MAT %q stage %d out of range", name, stage)
			}
			cfg.Stages[stage] = append(cfg.Stages[stage], StageEntry{MAT: name, Amount: amt})
		}
	}
	// Deterministic order inside each stage.
	for _, cfg := range d.Configs {
		for _, st := range cfg.Stages {
			sort.Slice(st, func(i, j int) bool { return st[i].MAT < st[j].MAT })
		}
	}
	// Coordination headers: per ordered switch pair, the name-sorted
	// union of the metadata every cross edge delivers, from one footprint
	// per endpoint. A pair's list gathers each edge's fields, and
	// fields.Canonical merges it once the edges are in; pairs keep
	// first-seen order so a conflict is reported deterministically.
	fps := map[string]program.Footprint{}
	footprint := func(name string) program.Footprint {
		fp, ok := fps[name]
		if !ok {
			n, _ := plan.Graph.Node(name)
			fp = n.MAT.Footprint()
			fps[name] = fp
		}
		return fp
	}
	type pairFields struct {
		key placement.RouteKey
		fs  []fields.Field
	}
	var pairs []pairFields
	pairIdx := map[placement.RouteKey]int{}
	//hermes:hot
	for _, e := range plan.Graph.EdgeList() {
		ua, oka := plan.SwitchOf(e.From)
		ub, okb := plan.SwitchOf(e.To)
		if !oka || !okb || ua == ub {
			continue
		}
		key := placement.RouteKey{From: ua, To: ub}
		i, ok := pairIdx[key]
		if !ok {
			i = len(pairs)
			pairIdx[key] = i
			pairs = append(pairs, pairFields{key: key})
		}
		a, b := footprint(e.From), footprint(e.To)
		if _, err := analyzer.Delivered(&a, &b, e.Type, &pairs[i].fs); err != nil {
			return nil, fmt.Errorf("deploy: edge %s->%s: %w", e.From, e.To, err)
		}
	}
	for _, p := range pairs {
		fs, err := fields.Canonical(p.fs)
		if err != nil {
			return nil, fmt.Errorf("deploy: header for %v: %w", p.key, err)
		}
		hdr := CoordHeader{Fields: append([]fields.Field{}, fs...)}
		for _, f := range fs {
			hdr.Bytes += f.Bytes()
		}
		d.Headers[p.key] = hdr
		if from := d.Configs[p.key.From]; from != nil {
			from.Exports[p.key.To] = hdr
		}
		if to := d.Configs[p.key.To]; to != nil {
			to.Imports[p.key.From] = hdr
		}
	}
	return d, nil
}

// Redeploy heals a live deployment around drained switches: it replans
// the deployment's plan (incremental repair by default, per
// opts.Mode), recompiles the result, and verifies the new configs.
// The returned report carries the churn telemetry (moved
// MATs, repair-vs-fallback, latency); the old deployment is untouched,
// so the controller can diff the two to stage the migration.
func Redeploy(d *Deployment, solver placement.Solver, opts placement.ReplanOptions, drained ...network.SwitchID) (*Deployment, *placement.ReplanReport, error) {
	if d == nil || d.Plan == nil {
		return nil, nil, fmt.Errorf("deploy: redeploy of nil deployment")
	}
	plan, rep, err := placement.ReplanWithOptions(d.Plan, solver, opts, drained...)
	if err != nil {
		return nil, rep, fmt.Errorf("deploy: redeploy: %w", err)
	}
	next, err := Compile(plan, analyzer.Options{})
	if err != nil {
		return nil, rep, fmt.Errorf("deploy: redeploy: %w", err)
	}
	if err := next.Verify(); err != nil {
		return nil, rep, fmt.Errorf("deploy: redeploy: %w", err)
	}
	if opts.Equiv {
		if err := ProveEquivalent(next); err != nil {
			return nil, rep, fmt.Errorf("deploy: redeploy: %w", err)
		}
	}
	return next, rep, nil
}

// EquivHook is the symbolic equivalence gate behind ProveEquivalent.
// The internal/equiv package registers its checker here; the variable
// indirection avoids an import cycle (equiv depends on deploy).
var EquivHook func(*Deployment) error

// ProveEquivalent runs the linked equivalence checker over d: the one
// gate Redeploy, the rollout engine and the supervisor call when their
// Equiv option is set. A requested proof is never skipped — a binary
// that links no checker (nothing imports internal/equiv) gets an
// error, not an unproven deployment.
func ProveEquivalent(d *Deployment) error {
	if EquivHook == nil {
		return fmt.Errorf("Equiv requested but no equivalence checker is linked")
	}
	return EquivHook(d)
}

// Verify cross-checks the compiled deployment against the plan:
// every assigned MAT appears in exactly the stages the plan dictates,
// and header sizes per pair never exceed the plan's A(a,b) pair sums
// (they can be smaller because overlapping edges share fields).
func (d *Deployment) Verify() error {
	// Every MAT fragment accounted for: one pass over the configs sums
	// each (switch, MAT) stage amount, in stage order.
	type hosted struct {
		sw  network.SwitchID
		mat string
	}
	scheduled := make(map[hosted]float64, len(d.Plan.Assignments))
	for sw, cfg := range d.Configs {
		if cfg == nil {
			continue
		}
		for _, st := range cfg.Stages {
			//hermes:hot
			for _, e := range st {
				scheduled[hosted{sw, e.MAT}] += e.Amount
			}
		}
	}
	for name, sp := range d.Plan.Assignments {
		if d.Configs[sp.Switch] == nil {
			return fmt.Errorf("deploy: %s has no config but hosts MAT %q",
				placement.SwitchLabel(d.Plan.Topo, sp.Switch), name)
		}
		total := scheduled[hosted{sp.Switch, name}]
		if diff := total - sp.Total(); diff > 1e-9 || diff < -1e-9 {
			return fmt.Errorf("deploy: MAT %q on %s stages %d..%d schedules %g of %g resources",
				name, placement.SwitchLabel(d.Plan.Topo, sp.Switch), sp.Start, sp.End, total, sp.Total())
		}
	}
	// Headers bounded by the analyzer's per-pair byte counts.
	pairBytes := d.Plan.PairBytes()
	for key, hdr := range d.Headers {
		if hdr.Bytes > pairBytes[key] {
			return fmt.Errorf("deploy: header %s -> %s carries %d bytes, analysis bound is %d",
				placement.SwitchLabel(d.Plan.Topo, key.From), placement.SwitchLabel(d.Plan.Topo, key.To),
				hdr.Bytes, pairBytes[key])
		}
		sum := 0
		for _, f := range hdr.Fields {
			sum += f.Bytes()
		}
		if hdr.Bytes != sum {
			return fmt.Errorf("deploy: header %s -> %s declares %d bytes, fields sum to %d",
				placement.SwitchLabel(d.Plan.Topo, key.From), placement.SwitchLabel(d.Plan.Topo, key.To),
				hdr.Bytes, sum)
		}
	}
	// Every communicating pair has a header.
	for key, bytes := range pairBytes {
		if bytes == 0 {
			continue
		}
		if _, ok := d.Headers[key]; !ok {
			return fmt.Errorf("deploy: pair %s -> %s delivers %d bytes but has no header",
				placement.SwitchLabel(d.Plan.Topo, key.From), placement.SwitchLabel(d.Plan.Topo, key.To), bytes)
		}
	}
	return nil
}
