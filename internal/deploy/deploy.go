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
	"slices"
	"sort"
	"strings"

	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/fields"
	"github.com/hermes-net/hermes/internal/network"
	"github.com/hermes-net/hermes/internal/placement"
)

// StageEntry is one MAT fragment scheduled in a stage.
type StageEntry struct {
	// MAT is the table name.
	MAT string
	// Amount is the resource slice the fragment consumes in this stage.
	Amount float64
	// Node is MAT's node id in the plan's graph. Compile stamps it (a
	// plan places only its graph's MATs); Verify reads it only where the
	// graph's node of that id carries the name MAT, so a hand-built
	// entry may leave it zero.
	Node int32
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
//
// Compile reads the plan's by-id store, its host table and the graph's
// footprints by node id, and resolves no name: each used switch gets a
// dense index, the stage entries and header fields are carved from
// arenas, each stage entry is stamped with the node id it was filled
// from, and each pair's header is the merge of its edges' name-sorted
// deliveries (compile_ref_test.go keeps the name-keyed compile it is
// held to).
func Compile(plan *placement.Plan, opts analyzer.Options) (*Deployment, error) {
	if plan == nil || plan.Graph == nil || plan.Topo == nil {
		return nil, fmt.Errorf("deploy: nil or incomplete plan")
	}
	cfgs, slot, err := compileStages(plan)
	if err != nil {
		return nil, err
	}
	pairs, err := compileHeaders(plan, slot, len(cfgs))
	if err != nil {
		return nil, err
	}
	// Size every map once: a config's exports and imports are counted
	// off the pairs.
	deg := make([]int32, 2*len(cfgs))
	for _, p := range pairs {
		deg[2*(slot[p.key.From]-1)]++
		deg[2*(slot[p.key.To]-1)+1]++
	}
	d := &Deployment{
		Plan:    plan,
		Configs: make(map[network.SwitchID]*SwitchConfig, len(cfgs)),
		Headers: make(map[placement.RouteKey]CoordHeader, len(pairs)),
	}
	for c, cfg := range cfgs {
		cfg.Exports = make(map[network.SwitchID]CoordHeader, deg[2*c])
		cfg.Imports = make(map[network.SwitchID]CoordHeader, deg[2*c+1])
		d.Configs[cfg.Switch] = cfg
	}
	for _, p := range pairs {
		d.Headers[p.key] = p.hdr
		cfgs[slot[p.key.From]-1].Exports[p.key.To] = p.hdr
		cfgs[slot[p.key.To]-1].Imports[p.key.From] = p.hdr
	}
	return d, nil
}

// compileStages builds the stage program of every used switch: its
// configs (Exports and Imports left nil) and slot, where slot[u] is 1 +
// switch u's index in the configs, 0 for a switch that hosts nothing.
// A first pass over the plan's by-id store counts each stage's entries,
// so every stage slice is carved from one entry arena; a second, in the
// graph's name order, fills them, so every stage comes out sorted by
// MAT name.
func compileStages(plan *placement.Plan) ([]*SwitchConfig, []int32, error) {
	ns := plan.Topo.NumSwitches()
	slot := make([]int32, ns)
	pl := plan.Placements()
	var sws []*network.Switch
	// base[c] is config c's first stage in count: count[base[c]+s] is
	// the number of entries in its stage s.
	var base, count []int32
	entries, placed := 0, 0
	//hermes:hot
	for id, sp := range pl {
		if !sp.Placed() {
			continue
		}
		placed++
		if sp.Switch < 0 || int(sp.Switch) >= ns {
			_, err := plan.Topo.Switch(sp.Switch)
			return nil, nil, fmt.Errorf("deploy: %w", err)
		}
		c := slot[sp.Switch] - 1
		if c < 0 {
			sw, err := plan.Topo.Switch(sp.Switch)
			if err != nil {
				return nil, nil, fmt.Errorf("deploy: %w", err)
			}
			c = int32(len(sws))
			slot[sp.Switch] = c + 1
			sws = append(sws, sw)
			n := len(count)
			base = append(base, int32(n))
			count = slices.Grow(count, sw.Stages)[:n+sw.Stages]
			clear(count[n:])
		}
		for i, amt := range sp.PerStage {
			if amt <= 0 {
				continue
			}
			stage := sp.Start + i
			if stage < 0 || stage >= sws[c].Stages {
				return nil, nil, fmt.Errorf("deploy: MAT %q stage %d out of range", plan.Graph.NodeOf(int32(id)).Name(), stage)
			}
			count[int(base[c])+stage]++
			entries++
		}
	}
	if placed != len(plan.Assignments) {
		return nil, nil, foreignError(plan)
	}
	cfgs := make([]SwitchConfig, len(sws))
	out := make([]*SwitchConfig, len(sws))
	stages := make([][]StageEntry, len(count))
	arena := make([]StageEntry, entries)
	off := int32(0)
	for c, sw := range sws {
		cfg := &cfgs[c]
		lo, hi := int(base[c]), int(base[c])+sw.Stages
		cfg.Switch, cfg.Stages = sw.ID, stages[lo:hi:hi]
		for s, n := range count[lo:hi] {
			if n > 0 {
				cfg.Stages[s] = arena[off : off : off+n]
				off += n
			}
		}
		out[c] = cfg
	}
	ix := plan.Graph.Index()
	//hermes:hot
	for _, id := range ix.ByName {
		sp := pl[id]
		if !sp.Placed() {
			continue
		}
		st := out[slot[sp.Switch]-1].Stages
		for i, amt := range sp.PerStage {
			if amt > 0 {
				st[sp.Start+i] = append(st[sp.Start+i], StageEntry{MAT: ix.Names[id], Amount: amt, Node: id})
			}
		}
	}
	return out, slot, nil
}

// pairHeader is one communicating switch pair and its header.
type pairHeader struct {
	key placement.RouteKey
	hdr CoordHeader
}

// compileHeaders builds the coordination header of every ordered switch
// pair a cross edge connects: the name-sorted union of the metadata its
// edges deliver (analyzer.Delivered on the endpoints' footprints). The
// pairs are numbered in the order the edge list first reaches them and
// found through a list per exporting config; one counting sort buckets
// the edges per pair in edge-list order, and each pair's header is
// merged from its edges' sorted deliveries, then carved from one field
// arena.
//
// The errors are those of appending every delivery and sorting each
// pair's list once: the first failing edge in edge-list order, else the
// first pair in that numbering whose edges give a name two definitions,
// reported for the smallest such name with its first definition first.
func compileHeaders(plan *placement.Plan, slot []int32, ncfg int) ([]pairHeader, error) {
	hosts := plan.Hosts()
	fps := plan.Graph.Footprints()
	edges := plan.Graph.EdgeList()
	// head[c] is the last pair numbered with config c exporting; next
	// chains the earlier ones. pairOf[i] is edge i's pair, -1 for an
	// edge inside one switch.
	buf := make([]int32, ncfg+len(edges))
	head, pairOf := buf[:ncfg], buf[ncfg:]
	for c := range head {
		head[c] = -1
	}
	var pairs []pairHeader
	var next, size []int32
	//hermes:hot
	for i, e := range edges {
		from, to := e.Endpoints()
		ua, ub := hosts[from], hosts[to]
		pairOf[i] = -1
		if ua < 0 || ub < 0 || ua == ub {
			continue
		}
		c := slot[ua] - 1
		p := head[c]
		for p >= 0 && pairs[p].key.To != ub {
			p = next[p]
		}
		if p < 0 {
			p = int32(len(pairs))
			pairs = append(pairs, pairHeader{key: placement.RouteKey{From: ua, To: ub}})
			next = append(next, head[c])
			size = append(size, 0)
			head[c] = p
		}
		pairOf[i] = p
		size[p]++
	}
	// Counting sort: order[start[p]:start[p+1]] are pair p's edges.
	start := make([]int32, len(pairs)+1)
	for p, n := range size {
		start[p+1] = start[p] + n
		size[p] = start[p] // now pair p's fill cursor
	}
	order := make([]int32, start[len(pairs)])
	for i, p := range pairOf {
		if p >= 0 {
			order[size[p]] = int32(i)
			size[p]++
		}
	}

	var delivered, cur, merged []fields.Field
	arena := make([]fields.Field, 0, 4*len(pairs))
	errAt, edgeErr, pairErr := len(edges), error(nil), error(nil)
	//hermes:hot
	for p := range pairs {
		cur = cur[:0]
		var bad [2]fields.Field
		conflict := false
		for _, i := range order[start[p]:start[p+1]] {
			e := edges[i]
			from, to := e.Endpoints()
			delivered = delivered[:0]
			if _, err := analyzer.Delivered(&fps[from], &fps[to], e.Type, &delivered); err != nil {
				if int(i) < errAt {
					errAt, edgeErr = int(i), fmt.Errorf("deploy: edge %s->%s: %w", e.From, e.To, err)
				}
				continue
			}
			if len(delivered) > 0 {
				merged = mergeFields(merged[:0], cur, delivered, &bad, &conflict)
				cur, merged = merged, cur
			}
		}
		if conflict && pairErr == nil {
			pairErr = fmt.Errorf("deploy: header for %v: %w", pairs[p].key, fields.Conflict(bad[0], bad[1]))
		}
		// A header keeps the array it was carved from when a later
		// append moves the arena: carved fields are never written again.
		lo := len(arena)
		arena = append(arena, cur...)
		hdr := CoordHeader{Fields: arena[lo:len(arena):len(arena)]}
		for _, f := range cur {
			hdr.Bytes += f.Bytes()
		}
		pairs[p].hdr = hdr
	}
	if edgeErr != nil {
		return nil, edgeErr
	}
	if pairErr != nil {
		return nil, pairErr
	}
	return pairs, nil
}

// mergeFields appends to dst the name-sorted union of cur and add, two
// name-sorted lists with one entry per name, keeping cur's definition
// of a name both hold. A name the two define differently is a
// conflict: *bad keeps the one with the smallest name seen so far,
// cur's definition first, and *conflict records that there was one.
func mergeFields(dst, cur, add []fields.Field, bad *[2]fields.Field, conflict *bool) []fields.Field {
	i, j := 0, 0
	for i < len(cur) && j < len(add) {
		switch c := strings.Compare(cur[i].Name, add[j].Name); {
		case c < 0:
			dst = append(dst, cur[i])
			i++
		case c > 0:
			dst = append(dst, add[j])
			j++
		default:
			if cur[i] != add[j] && (!*conflict || cur[i].Name < bad[0].Name) {
				*bad, *conflict = [2]fields.Field{cur[i], add[j]}, true
			}
			dst = append(dst, cur[i])
			i++
			j++
		}
	}
	dst = append(dst, cur[i:]...)
	return append(dst, add[j:]...)
}

// Redeploy heals a live deployment around drained switches: it replans
// the deployment's plan (incremental repair by default, per
// opts.Mode), recompiles the result, and verifies the new configs.
// The returned report carries the churn telemetry (moved
// MATs, repair-vs-fallback, latency); the old deployment is untouched,
// so the controller can diff the two to stage the migration. The lint
// and equivalence gates are the adopting layer's (hermes.Redeploy, the
// supervisor): opts.Lint and opts.Equiv are not read here.
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
	return next, rep, nil
}

// Verify cross-checks the compiled deployment against the plan:
// every assigned MAT appears in exactly the stages the plan dictates,
// and header sizes per pair never exceed the plan's A(a,b) pair sums
// (they can be smaller because overlapping edges share fields).
//
// The stage sums are kept by node id: one pass over the configs reads
// each stage entry's Node stamp, checks that the graph's node of that
// id carries the entry's MAT name (a string compare, no lookup), and
// counts it when the plan's host table puts that MAT on the entry's
// switch; an entry whose stamp does not match resolves by name. Each
// graph node's placement is then checked in node-id order off the
// plan's by-id store. A plan that places a MAT outside its graph is an
// error.
func (d *Deployment) Verify() error {
	plan := d.Plan
	g := plan.Graph
	hosts := plan.Hosts()
	scheduled := make([]float64, len(hosts))
	type entryAt struct {
		sw network.SwitchID
		e  StageEntry
	}
	var unstamped []entryAt
	for sw, cfg := range d.Configs {
		if cfg == nil {
			continue
		}
		for _, st := range cfg.Stages {
			//hermes:hot
			for _, e := range st {
				if e.Node < 0 || int(e.Node) >= len(hosts) || g.NodeOf(e.Node).Name() != e.MAT {
					unstamped = append(unstamped, entryAt{sw, e})
				} else if hosts[e.Node] == sw {
					scheduled[e.Node] += e.Amount
				}
			}
		}
	}
	// Entries whose stamp does not name their MAT (built by hand)
	// resolve by name.
	for _, u := range unstamped {
		if id, ok := g.ID(u.e.MAT); ok && hosts[id] == u.sw {
			scheduled[id] += u.e.Amount
		}
	}
	placed := 0
	//hermes:hot
	for id, sp := range plan.Placements() {
		if !sp.Placed() {
			continue
		}
		placed++
		if err := d.verifyPlacement(g.NodeOf(int32(id)).Name(), sp, scheduled[id]); err != nil {
			return err
		}
	}
	if placed != len(plan.Assignments) {
		return foreignError(plan)
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

// foreignError names the smallest MAT the plan places outside its
// graph: Compile and Verify reject such a plan, as Plan.Validate does.
func foreignError(plan *placement.Plan) error {
	var foreign string
	for name := range plan.Assignments {
		if _, ok := plan.Graph.ID(name); !ok && (foreign == "" || name < foreign) {
			foreign = name
		}
	}
	return fmt.Errorf("deploy: MAT %q is not in the plan's graph", foreign)
}

// verifyPlacement checks that the configs schedule all of a MAT's
// placement sp on its switch: total is what they schedule there.
func (d *Deployment) verifyPlacement(name string, sp placement.StagePlacement, total float64) error {
	if d.Configs[sp.Switch] == nil {
		return fmt.Errorf("deploy: %s has no config but hosts MAT %q",
			placement.SwitchLabel(d.Plan.Topo, sp.Switch), name)
	}
	if diff := total - sp.Total(); diff > 1e-9 || diff < -1e-9 {
		return fmt.Errorf("deploy: MAT %q on %s stages %d..%d schedules %g of %g resources",
			name, placement.SwitchLabel(d.Plan.Topo, sp.Switch), sp.Start, sp.End, total, sp.Total())
	}
	return nil
}
