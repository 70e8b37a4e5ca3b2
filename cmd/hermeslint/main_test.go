package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// lintGoSource parses one Go file and runs every per-file rule over it.
func lintGoSource(path, src string) ([]vetFinding, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution|parser.ParseComments)
	if err != nil {
		return nil, err
	}
	return lintFile(fset, file, path), nil
}

func lintSnippet(t *testing.T, body string) []vetFinding {
	t.Helper()
	src := "package p\n\nimport \"sync\"\n\nvar _ = sync.Mutex{}\n\n" + body
	fs, err := lintGoSource("snippet.go", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fs
}

func rulesOf(fs []vetFinding) []string {
	var out []string
	for _, f := range fs {
		out = append(out, f.rule)
	}
	return out
}

func TestLockWithoutUnlock(t *testing.T) {
	fs := lintSnippet(t, `
type c struct{ mu sync.Mutex }
func (x *c) bad() { x.mu.Lock() }
`)
	if len(fs) != 1 || fs[0].rule != "HV001" || fs[0].sev != "error" {
		t.Fatalf("want one HV001 error, got %v", fs)
	}
	if !strings.Contains(fs[0].msg, "x.mu.Lock()") {
		t.Fatalf("finding must name the receiver chain: %v", fs[0])
	}
}

func TestRLockNeedsRUnlock(t *testing.T) {
	// Unlock does not satisfy an RLock: distinct kinds.
	fs := lintSnippet(t, `
type c struct{ mu sync.RWMutex }
func (x *c) bad() { x.mu.RLock(); x.mu.Unlock() }
`)
	if got := rulesOf(fs); len(got) != 1 || got[0] != "HV001" {
		t.Fatalf("want [HV001], got %v", got)
	}
}

func TestDeferredUnlockIsPaired(t *testing.T) {
	fs := lintSnippet(t, `
type c struct{ mu sync.Mutex }
func (x *c) good() int { x.mu.Lock(); defer x.mu.Unlock(); return 1 }
`)
	if len(fs) != 0 {
		t.Fatalf("want no findings, got %v", fs)
	}
}

func TestDeferLockTypo(t *testing.T) {
	// The missing Unlock also trips HV001: both diagnostics point at
	// the same typo.
	fs := lintSnippet(t, `
type c struct{ mu sync.Mutex }
func (x *c) bad() { x.mu.Lock(); defer x.mu.Lock() }
`)
	got := rulesOf(fs)
	if len(got) != 2 || got[0] != "HV002" || got[1] != "HV001" {
		t.Fatalf("want [HV002 HV001], got %v", got)
	}
}

func TestReturnBetweenLockAndUnlock(t *testing.T) {
	fs := lintSnippet(t, `
type c struct{ mu sync.Mutex; n int }
func (x *c) bad(b bool) int {
	x.mu.Lock()
	if b {
		return 0
	}
	x.mu.Unlock()
	return x.n
}
`)
	if got := rulesOf(fs); len(got) != 1 || got[0] != "HV003" {
		t.Fatalf("want [HV003], got %v", got)
	}
	if fs[0].sev != "warning" {
		t.Fatalf("HV003 must be a warning, got %v", fs[0])
	}
}

func TestReturnAfterUnlockIsFine(t *testing.T) {
	fs := lintSnippet(t, `
type c struct{ mu sync.RWMutex; m map[int]int }
func (x *c) good(k int) (int, bool) {
	x.mu.RLock()
	v, ok := x.m[k]
	x.mu.RUnlock()
	if ok {
		return v, true
	}
	x.mu.Lock()
	x.m[k] = 1
	x.mu.Unlock()
	return 1, false
}
`)
	if len(fs) != 0 {
		t.Fatalf("want no findings on the oracle double-check pattern, got %v", fs)
	}
}

func TestHotLoopFlagsNameKeyedLintPasses(t *testing.T) {
	// The lost-dependency pass as it stood before lint moved onto the
	// graph's index: the examine loop tested each candidate pair by
	// name with g.Edge, two name hashes per lookup. Tagged hot, the rule
	// flags both lookups, the NodeNames copy of a ranking loop and the
	// test-side rawSets reference; the id-keyed twin (EdgeByID over
	// name ranks) is clean.
	fs := lintSnippet(t, `
type node struct{ name string }
func (n *node) Name() string { return n.name }
type edge struct{}
type graph struct{}
func (g *graph) Edge(from, to string) (*edge, bool)   { return nil, false }
func (g *graph) EdgeByID(from, to int32) (*edge, bool) { return nil, false }
func (g *graph) NodeNames() []string                   { return nil }
type rawMaps struct{ reads, writes map[string]int }
func rawSets(n *node) rawMaps { return rawMaps{} }
func lost(g *graph, nodes []*node, seen []int32) int {
	found := 0
	examine := func(u int, partners []int32) {
		//hermes:hot
		for _, v := range partners {
			if int(v) <= u || seen[v] == int32(u)+1 {
				continue
			}
			seen[v] = int32(u) + 1
			a, b := nodes[u].Name(), nodes[v].Name()
			if _, ok := g.Edge(a, b); ok {
				continue
			}
			if _, ok := g.Edge(b, a); ok {
				continue
			}
			found++
		}
	}
	examine(0, nil)
	//hermes:hot
	for i := range nodes {
		found += len(g.NodeNames()) + len(rawSets(nodes[i]).reads)
	}
	return found
}
func lostByID(g *graph, byName []int32, partners []int32, u int32) int {
	found := 0
	//hermes:hot
	for _, v := range partners {
		if _, ok := g.EdgeByID(byName[u], byName[v]); !ok {
			found++
		}
	}
	return found
}
`)
	if got := rulesOf(fs); len(got) != 4 {
		t.Fatalf("want 4 HV005 findings, got %v", fs)
	}
	edges := 0
	for _, f := range fs {
		if f.rule == "HV005" && strings.Contains(f.msg, "g.Edge()") {
			edges++
		}
	}
	if edges != 2 {
		t.Errorf("want both g.Edge lookups of the examine loop flagged, got %d: %v", edges, fs)
	}
	for _, want := range []string{"g.NodeNames()", "rawSets()"} {
		found := false
		for _, f := range fs {
			found = found || f.rule == "HV005" && strings.Contains(f.msg, want)
		}
		if !found {
			t.Errorf("no HV005 finding names %s: %v", want, fs)
		}
	}
}

func TestDiscardedClone(t *testing.T) {
	fs := lintSnippet(t, `
type g struct{}
func (x *g) Clone() *g { return x }
func bad(x *g) { x.Clone() }
func good(x *g) *g { return x.Clone() }
`)
	if got := rulesOf(fs); len(got) != 1 || got[0] != "HV004" {
		t.Fatalf("want [HV004], got %v", got)
	}
}

func TestNestedSelectorChains(t *testing.T) {
	// t.cache.mu and c.mu are distinct receivers.
	fs := lintSnippet(t, `
type inner struct{ mu sync.Mutex }
type outer struct{ cache *inner }
func bad(t *outer, c *inner) {
	t.cache.mu.Lock()
	c.mu.Unlock()
}
`)
	got := rulesOf(fs)
	if len(got) != 1 || got[0] != "HV001" {
		t.Fatalf("want [HV001] for t.cache.mu, got %v", fs)
	}
	if !strings.Contains(fs[0].msg, "t.cache.mu") {
		t.Fatalf("finding must name t.cache.mu: %v", fs[0])
	}
}

// HV005 flags index and range reads of placement.Plan.Assignments in
// //hermes:hot loops of non-test files, resolved with go/types: the
// same-named field of another type, an untagged loop and an element
// write (the materializer filling the name view) stay clean.
func TestHotLoopFlagsPlanAssignmentReads(t *testing.T) {
	fs := lintSet(t, map[string]string{
		"internal/placement/plan.go": `package placement

type Plan struct{ Assignments map[string]int }

type Other struct{ Assignments map[string]int }

func Hit(p *Plan, names []string) int {
	t := 0
	//hermes:hot
	for _, n := range names {
		t += p.Assignments[n]
	}
	//hermes:hot
	for _, v := range p.Assignments {
		t += v
	}
	return t
}

func OtherType(o *Other, names []string) int {
	t := 0
	//hermes:hot
	for _, n := range names {
		t += o.Assignments[n]
	}
	return t
}

func Untagged(p *Plan, names []string) int {
	t := 0
	for _, n := range names {
		t += p.Assignments[n]
	}
	return t
}

func Fill(p *Plan, names []string) {
	//hermes:hot
	for i, n := range names {
		p.Assignments[n] = i
	}
}
`,
		"cmd/tool/main.go": `package main

import "github.com/hermes-net/hermes/internal/placement"

func main() {
	p := &placement.Plan{}
	placement.Fill(p, nil)
	_ = placement.Hit(p, nil) + placement.OtherType(&placement.Other{}, nil) + placement.Untagged(p, nil)
}
`,
	})
	var got []string
	for _, f := range fs {
		if f.rule == "HV005" {
			got = append(got, fmt.Sprintf("%d: %s", f.pos.Line, f.msg[:strings.Index(f.msg, " hashes")]))
		}
	}
	want := []string{"11: indexing p.Assignments[...]", "14: ranging over p.Assignments"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("HV005 findings = %q, want %q", got, want)
	}
}

func TestHotLoopFlagsMapScoring(t *testing.T) {
	fs := lintSnippet(t, `
type plan struct{}
func (p *plan) PairBytes() map[int]int { return nil }
func bad(p *plan) {
	//hermes:hot
	for i := 0; i < 8; i++ {
		_ = p.PairBytes()
	}
}
`)
	if got := rulesOf(fs); len(got) != 1 || got[0] != "HV005" {
		t.Fatalf("want [HV005], got %v", fs)
	}
	if fs[0].sev != "error" || !strings.Contains(fs[0].msg, "p.PairBytes()") {
		t.Fatalf("HV005 must be an error naming the call: %v", fs[0])
	}
}

func TestHotLoopFlagsPlainRefCalls(t *testing.T) {
	// The banned surface includes package-level reference functions
	// called without a receiver, in range loops too.
	fs := lintSnippet(t, `
func assignmentAMax(a map[string]int) int { return 0 }
func bad(items []map[string]int) int {
	total := 0
	//hermes:hot
	for _, a := range items {
		total += assignmentAMax(a)
	}
	return total
}
`)
	if got := rulesOf(fs); len(got) != 1 || got[0] != "HV005" {
		t.Fatalf("want [HV005], got %v", fs)
	}
}

func TestHotLoopFlagsGraphMaterializationAndNameKeyedPacking(t *testing.T) {
	// Alg. 2's inner loops work on positions of one topological order;
	// building a graph, sorting an edge slice or packing by MAT name per
	// iteration is the cost the range form removed. One finding per call.
	fs := lintSnippet(t, `
type graph struct{}
type sw struct{}
func (g *graph) Subgraph(names []string) *graph { return g }
func (g *graph) Edges() []int                   { return nil }
func (g *graph) OutEdges(n string) []int        { return nil }
func (g *graph) InEdges(n string) []int         { return nil }
func FitsSwitch(g *graph, names []string, s *sw) bool          { return true }
func PackStages(g *graph, names []string, s *sw) map[string]int { return nil }
func packShared(g *graph, names []string, s *sw) map[string]int { return nil }
func bad(g *graph, s *sw, order []string) int {
	n := 0
	//hermes:hot
	for k := range order {
		seg := g.Subgraph(order[:k])
		n += len(seg.Edges()) + len(g.OutEdges(order[k])) + len(g.InEdges(order[k]))
		if FitsSwitch(g, order[:k], s) {
			n += len(PackStages(g, order[:k], s)) + len(packShared(g, order[:k], s))
		}
	}
	return n
}
`)
	if got := rulesOf(fs); len(got) != 7 {
		t.Fatalf("want 7 HV005 findings, got %v", fs)
	}
	for _, want := range []string{"g.Subgraph()", "seg.Edges()", "g.OutEdges()", "g.InEdges()", "FitsSwitch()", "PackStages()", "packShared()"} {
		found := false
		for _, f := range fs {
			found = found || f.rule == "HV005" && strings.Contains(f.msg, want)
		}
		if !found {
			t.Errorf("no HV005 finding names %s: %v", want, fs)
		}
	}
}

func TestHotLoopFlagsNameResolutionAndNameKeyedPacker(t *testing.T) {
	// Materialization and the anchor check pack on node ids: resolving a
	// MAT name to its id, or packing through the name-keyed reference
	// packer, inside a tagged loop is the per-MAT hashing they removed.
	// One finding per call; the id loop itself is clean.
	fs := lintSnippet(t, `
type graph struct{}
type sw struct{}
func (g *graph) ID(name string) (int32, bool)               { return 0, true }
func (g *graph) InEdgesOf(id int32) []int32                 { return nil }
func packOrderedRef(g *graph, ordered []string, s *sw) int { return 0 }
func bad(g *graph, s *sw, order []string, ids []int32) int {
	n := 0
	//hermes:hot
	for k, name := range order {
		id, _ := g.ID(name)
		n += int(id) + packOrderedRef(g, order[:k], s)
	}
	//hermes:hot
	for _, id := range ids {
		n += len(g.InEdgesOf(id))
	}
	return n
}
`)
	if got := rulesOf(fs); len(got) != 2 {
		t.Fatalf("want 2 HV005 findings, got %v", fs)
	}
	for _, want := range []string{"g.ID()", "packOrderedRef()"} {
		found := false
		for _, f := range fs {
			found = found || f.rule == "HV005" && strings.Contains(f.msg, want)
		}
		if !found {
			t.Errorf("no HV005 finding names %s: %v", want, fs)
		}
	}
}

func TestHotLoopFlagsSortedEdgeWalk(t *testing.T) {
	// The post-repair gates walk the graph's insertion-order edge list;
	// a tagged loop ranging over a sorted Edges() copy is flagged even
	// though the call sits in the range clause, not the body.
	fs := lintSnippet(t, `
type graph struct{}
func (g *graph) Edges() []int    { return nil }
func (g *graph) EdgeList() []int { return nil }
func gate(g *graph) int {
	n := 0
	//hermes:hot
	for _, e := range g.Edges() {
		n += e
	}
	//hermes:hot
	for _, e := range g.EdgeList() {
		n += e
	}
	return n
}
`)
	if got := rulesOf(fs); len(got) != 1 || got[0] != "HV005" || !strings.Contains(fs[0].msg, "g.Edges()") {
		t.Fatalf("want one HV005 naming g.Edges(), got %v", fs)
	}
}

func TestHotLoopFlagsNameKeyedGraphLookups(t *testing.T) {
	// Placement builds its instances on the graph's node ids: a tagged
	// loop that resolves a MAT by name (Node, OutEdgeList, InEdgeList)
	// hashes the name per iteration. The id-keyed accessors are fine.
	fs := lintSnippet(t, `
type node struct{ req int }
type graph struct{}
func (g *graph) Node(name string) (*node, bool)   { return nil, false }
func (g *graph) OutEdgeList(name string) []int    { return nil }
func (g *graph) InEdgeList(name string) []int     { return nil }
func (g *graph) OutEdgesOf(id int32) []int        { return nil }
func (g *graph) InEdgesOf(id int32) []int         { return nil }
func bad(g *graph, order []string) int {
	n := 0
	//hermes:hot
	for _, name := range order {
		nd, _ := g.Node(name)
		n += nd.req + len(g.OutEdgeList(name)) + len(g.InEdgeList(name))
	}
	return n
}
func good(g *graph, ids []int32) int {
	n := 0
	//hermes:hot
	for _, id := range ids {
		n += len(g.OutEdgesOf(id)) + len(g.InEdgesOf(id))
	}
	return n
}
`)
	if got := rulesOf(fs); len(got) != 3 {
		t.Fatalf("want 3 HV005 findings, got %v", fs)
	}
	for _, want := range []string{"g.Node()", "g.OutEdgeList()", "g.InEdgeList()"} {
		found := false
		for _, f := range fs {
			found = found || f.rule == "HV005" && strings.Contains(f.msg, want)
		}
		if !found {
			t.Errorf("no HV005 finding names %s: %v", want, fs)
		}
	}
}

func TestHotLoopFlagsHostLookupByName(t *testing.T) {
	// The deploy backend reads a plan's host table by node id: a tagged
	// loop that asks SwitchOf hashes a MAT name per iteration.
	fs := lintSnippet(t, `
type edge struct{ from, to int32; From, To string }
type plan struct{ hosts []int }
func (p *plan) SwitchOf(name string) (int, bool) { return 0, false }
func (p *plan) Hosts() []int                     { return p.hosts }
func bad(p *plan, edges []edge) int {
	n := 0
	//hermes:hot
	for _, e := range edges {
		a, _ := p.SwitchOf(e.From)
		b, _ := p.SwitchOf(e.To)
		n += a + b
	}
	return n
}
func good(p *plan, edges []edge) int {
	n, hosts := 0, p.Hosts()
	//hermes:hot
	for _, e := range edges {
		n += hosts[e.from] + hosts[e.to]
	}
	return n
}
`)
	if got := rulesOf(fs); len(got) != 2 || got[0] != "HV005" || got[1] != "HV005" || !strings.Contains(fs[0].msg, "p.SwitchOf()") {
		t.Fatalf("want two HV005 findings naming p.SwitchOf(), got %v", fs)
	}
}

func TestHotLoopFlagsEngineCompiles(t *testing.T) {
	// A packet-engine constructor compiles the whole deployment (or
	// sorts the whole graph): per candidate packet it is the
	// Diverges-per-candidate pattern. Built once before the loop, the
	// same calls are fine.
	fs := lintSnippet(t, `
type dep struct{}
type engine struct{}
func (e *engine) Process(p int) int                { return p }
func NewEngine(d *dep) *engine                     { return &engine{} }
func NewPipeline(d *dep, h []string, n int) *engine { return &engine{} }
func NewReferenceEngine(d *dep) *engine            { return &engine{} }
func bad(d *dep, candidates []int) int {
	n := 0
	//hermes:hot
	for _, c := range candidates {
		n += NewEngine(d).Process(c) + NewPipeline(d, nil, 1).Process(c) + NewReferenceEngine(d).Process(c)
	}
	return n
}
func good(d *dep, candidates []int) int {
	eng, ref, n := NewEngine(d), NewReferenceEngine(d), 0
	//hermes:hot
	for _, c := range candidates {
		n += eng.Process(c) + ref.Process(c)
	}
	return n
}
`)
	if got := rulesOf(fs); len(got) != 3 {
		t.Fatalf("want 3 HV005 findings, got %v", fs)
	}
	for _, want := range []string{"NewEngine()", "NewPipeline()", "NewReferenceEngine()"} {
		found := false
		for _, f := range fs {
			found = found || f.rule == "HV005" && strings.Contains(f.msg, want)
		}
		if !found {
			t.Errorf("no HV005 finding names %s: %v", want, fs)
		}
	}
}

func TestHotLoopFlagsFieldSetBuilds(t *testing.T) {
	// Algorithm 1's per-edge and per-pair loops run on MAT footprints;
	// rebuilding a map-backed field set per MAT pair, edge or cross edge
	// is the cost footprints removed. One finding per call; the footprint
	// kernels stay allowed.
	fs := lintSnippet(t, `
type set struct{}
type mat struct{}
type footprint struct{}
func MetadataFields(a, b *mat, typ int) (set, error) { return set{}, nil }
func EdgeMetadataBytes(a, b *mat, typ int) (int, error) { return 0, nil }
func NewSet(fs ...int) (set, error) { return set{}, nil }
func Delivered(a, b *footprint, typ int) (int, error) { return 0, nil }
func bad(mats []*mat) {
	//hermes:hot
	for i := 1; i < len(mats); i++ {
		a, b := mats[i-1], mats[i]
		MetadataFields(a, b, 1)
		EdgeMetadataBytes(a, b, 1)
		NewSet(i)
	}
}
func good(fps []footprint) (n int) {
	//hermes:hot
	for i := 1; i < len(fps); i++ {
		k, _ := Delivered(&fps[i-1], &fps[i], 1)
		n += k
	}
	return n
}
`)
	if got := rulesOf(fs); len(got) != 3 {
		t.Fatalf("want 3 HV005 findings, got %v", fs)
	}
	for _, want := range []string{"MetadataFields()", "EdgeMetadataBytes()", "NewSet()"} {
		found := false
		for _, f := range fs {
			found = found || f.rule == "HV005" && strings.Contains(f.msg, want)
		}
		if !found {
			t.Errorf("no HV005 finding names %s: %v", want, fs)
		}
	}
}

func TestHotLoopPositionSpacePackingAllowed(t *testing.T) {
	// The position-space packing step and range probes are what a hot
	// loop should call; EdgeList (no copy, no sort) stays allowed too.
	fs := lintSnippet(t, `
type scratch struct{ used []float64 }
type graph struct{}
func (g *graph) EdgeList() []int { return nil }
func packStep(used []float64, c, r float64, e int) (int, bool) { return 0, true }
func (sp *scratch) fits(lo, hi int) bool { return true }
func good(sp *scratch, g *graph, n int) int {
	ok := 0
	//hermes:hot
	for k := 0; k < n; k++ {
		if _, fit := packStep(sp.used, 1, 0.5, 0); fit && sp.fits(0, k) {
			ok += len(g.EdgeList())
		}
	}
	return ok
}
`)
	if len(fs) != 0 {
		t.Fatalf("want no findings, got %v", fs)
	}
}

func TestUntaggedLoopMayUseMapScoring(t *testing.T) {
	// Without the tag the rule stays silent: map-based scoring is the
	// sanctioned boundary API everywhere that is not hot.
	fs := lintSnippet(t, `
type plan struct{}
func (p *plan) AMax() int { return 0 }
func fine(p *plan) int {
	total := 0
	for i := 0; i < 8; i++ {
		total += p.AMax()
	}
	return total
}
`)
	if len(fs) != 0 {
		t.Fatalf("want no findings on untagged loop, got %v", fs)
	}
}

func TestHotLoopCompiledKernelsAllowed(t *testing.T) {
	// The compiled kernels are exactly what a hot loop should call.
	fs := lintSnippet(t, `
type ci struct{}
func (c *ci) PlaceScore(a, b int) int { return 0 }
func (c *ci) MoveScore(a, b int) int  { return 0 }
func good(c *ci) int {
	best := 0
	//hermes:hot
	for u := 0; u < 8; u++ {
		if s := c.PlaceScore(0, u) + c.MoveScore(u, 0); s > best {
			best = s
		}
	}
	return best
}
`)
	if len(fs) != 0 {
		t.Fatalf("want no findings on compiled kernels, got %v", fs)
	}
}

func TestHotLoopFlagsAllocations(t *testing.T) {
	fs := lintSnippet(t, `
type walker struct{ buf []int }
func bad(w *walker, n int) {
	//hermes:hot
	for i := 0; i < n; i++ {
		tmp := make([]int, 4)
		_ = tmp
		m := map[string]int{"a": i}
		_ = m
		s := []int{i}
		_ = s
		w.buf = append(w.buf, i)
	}
}
`)
	got := rulesOf(fs)
	if len(got) != 4 {
		t.Fatalf("want 4 HV006 findings (make, map literal, slice literal, field append), got %v", fs)
	}
	for i, f := range fs {
		if got[i] != "HV006" || f.sev != "error" {
			t.Fatalf("finding %d must be an HV006 error: %v", i, f)
		}
	}
	if !strings.Contains(fs[3].msg, "w.buf") {
		t.Fatalf("append finding must name the escaping scratch: %v", fs[3])
	}
}

func TestHotLoopLocalAppendAndArrayAllowed(t *testing.T) {
	// Appending to a local and fixed-size array literals stay legal:
	// bounded local batches don't break the allocation-free contract.
	fs := lintSnippet(t, `
func good(n int) int {
	var batch []int
	//hermes:hot
	for i := 0; i < n; i++ {
		batch = append(batch, i)
		pair := [2]int{i, i + 1}
		_ = pair
	}
	return len(batch)
}
`)
	if len(fs) != 0 {
		t.Fatalf("want no findings on local append, got %v", fs)
	}
}

func TestUntaggedLoopMayAllocate(t *testing.T) {
	fs := lintSnippet(t, `
type walker struct{ buf []int }
func fine(w *walker, n int) {
	for i := 0; i < n; i++ {
		w.buf = append(w.buf, i)
		m := make(map[int]int)
		_ = m
	}
}
`)
	if len(fs) != 0 {
		t.Fatalf("want no findings on untagged loop, got %v", fs)
	}
}

func TestHotFuncPoolGetEarlyReturn(t *testing.T) {
	fs := lintSnippet(t, `
type pipe struct{ pool sync.Pool }
// bad runs the batch loop.
//
//hermes:hot
func (p *pipe) bad(fail bool) error {
	b := p.pool.Get()
	if fail {
		return nil
	}
	p.pool.Put(b)
	return nil
}
`)
	if got := rulesOf(fs); len(got) != 1 || got[0] != "HV007" {
		t.Fatalf("want [HV007], got %v", fs)
	}
	if fs[0].sev != "error" || !strings.Contains(fs[0].msg, "p.pool.Get()") {
		t.Fatalf("HV007 must be an error naming the pool chain: %v", fs[0])
	}
}

func TestHotFuncBodyTagAlsoCounts(t *testing.T) {
	// The tag may sit on an inner loop rather than the doc comment; the
	// function is hot either way.
	fs := lintSnippet(t, `
type pipe struct{ pool sync.Pool }
func (p *pipe) bad(n int) int {
	b := p.pool.Get()
	//hermes:hot
	for i := 0; i < n; i++ {
		if i == 3 {
			return i
		}
	}
	p.pool.Put(b)
	return n
}
`)
	if got := rulesOf(fs); len(got) != 1 || got[0] != "HV007" {
		t.Fatalf("want [HV007], got %v", fs)
	}
}

func TestHotFuncDeferredPutIsSafe(t *testing.T) {
	fs := lintSnippet(t, `
type pipe struct{ pool sync.Pool }
//hermes:hot
func (p *pipe) good(fail bool) error {
	b := p.pool.Get()
	defer p.pool.Put(b)
	if fail {
		return nil
	}
	return nil
}
`)
	if len(fs) != 0 {
		t.Fatalf("want no findings with deferred Put, got %v", fs)
	}
}

func TestHotFuncOwnershipTransferAllowed(t *testing.T) {
	// No Put at all: the buffer leaves the function (GetBatch idiom).
	fs := lintSnippet(t, `
type pipe struct{ pool sync.Pool }
//hermes:hot
func (p *pipe) alloc() any {
	return p.pool.Get()
}
`)
	if len(fs) != 0 {
		t.Fatalf("want no findings on ownership transfer, got %v", fs)
	}
}

func TestColdFuncPoolEarlyReturnAllowed(t *testing.T) {
	// Without the tag, early-return pool handling is the caller's
	// business (error paths may legitimately abandon a buffer).
	fs := lintSnippet(t, `
type pipe struct{ pool sync.Pool }
func (p *pipe) fine(fail bool) error {
	b := p.pool.Get()
	if fail {
		return nil
	}
	p.pool.Put(b)
	return nil
}
`)
	if len(fs) != 0 {
		t.Fatalf("want no findings on untagged function, got %v", fs)
	}
}

func TestHotFuncDistinctPoolsDontPair(t *testing.T) {
	// A Put on a different pool does not cover the Get.
	fs := lintSnippet(t, `
type pipe struct{ batchPool, rowPool sync.Pool }
//hermes:hot
func (p *pipe) bad(fail bool) error {
	b := p.batchPool.Get()
	r := p.rowPool.Get()
	p.rowPool.Put(r)
	if fail {
		return nil
	}
	p.batchPool.Put(b)
	return nil
}
`)
	got := rulesOf(fs)
	if len(got) != 1 || got[0] != "HV007" {
		t.Fatalf("want [HV007] for batchPool only, got %v", fs)
	}
	if !strings.Contains(fs[0].msg, "p.batchPool.Get()") {
		t.Fatalf("finding must name batchPool: %v", fs[0])
	}
}

func TestRebindOutsideDeploy(t *testing.T) {
	// lintSnippet parses under the path "snippet.go", which is outside
	// internal/deploy/ — the bare rebind must be flagged.
	fs := lintSnippet(t, `
type ctl struct{}
func (c *ctl) Rebind(v any) error { return nil }
func bad(c *ctl) error { return c.Rebind(nil) }
`)
	if got := rulesOf(fs); len(got) != 1 || got[0] != "HV008" {
		t.Fatalf("want [HV008], got %v", fs)
	}
	if fs[0].sev != "error" || !strings.Contains(fs[0].msg, "c.Rebind()") {
		t.Fatalf("finding must be an error naming the receiver chain: %v", fs[0])
	}
}

func TestRebindInsideDeployIsSanctioned(t *testing.T) {
	// The rollout engine (and the deploy tree generally) is the one
	// place allowed to touch the controller directly.
	src := `package rollout
type ctl struct{}
func (c *ctl) Rebind(v any) error { return nil }
func flip(c *ctl) error { return c.Rebind(nil) }
`
	fs, err := lintGoSource("internal/deploy/rollout/rollout.go", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(fs) != 0 {
		t.Fatalf("want no findings under internal/deploy/, got %v", fs)
	}
}

func TestInitHookSeamFlagged(t *testing.T) {
	// Both spellings of the import name are caught: the path's last
	// element and an explicit alias.
	src := `package shard
import (
	"github.com/hermes-net/hermes/internal/placement"
	dp "github.com/hermes-net/hermes/internal/deploy"
)
func init() {
	placement.RegionExchangeHook = nil
	dp.Hook, _ = nil, 0
}
`
	fs, err := lintGoSource("internal/placement/shard/hook.go", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got := rulesOf(fs); len(got) != 2 || got[0] != "HV009" || got[1] != "HV009" {
		t.Fatalf("want [HV009 HV009], got %v", fs)
	}
	if fs[0].sev != "error" || !strings.Contains(fs[0].msg, "placement.RegionExchangeHook") ||
		!strings.Contains(fs[1].msg, "dp.Hook") {
		t.Fatalf("findings must be errors naming the assigned selector: %v", fs)
	}
}

func TestInitHookRegistrationsAndLocalState(t *testing.T) {
	// No registration is allowlisted: the four init-time hooks the lint
	// and equiv packages once armed all fire. An init that sets its own
	// package's state, a pkg.X assignment outside init, and a method
	// that happens to be called init stay legal.
	src := `package lint
import (
	"github.com/hermes-net/hermes/internal/analyzer"
	"github.com/hermes-net/hermes/internal/deploy"
	"github.com/hermes-net/hermes/internal/placement"
)
var local struct{ Hook func() }
func init() {
	analyzer.GraphLintHook = nil
	placement.PlanLintHook = nil
	placement.PlanEquivHook = nil
	deploy.EquivHook = nil
	local.Hook = nil
}
func Register() { placement.RegionExchangeHook = nil }
type t struct{}
func (t) init() { placement.RegionExchangeHook = nil }
`
	fs, err := lintGoSource("internal/lint/plan.go", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	want := []string{"analyzer.GraphLintHook", "placement.PlanLintHook", "placement.PlanEquivHook", "deploy.EquivHook"}
	if len(fs) != len(want) {
		t.Fatalf("want %d HV009 findings, got %v", len(want), fs)
	}
	for i, f := range fs {
		if f.rule != "HV009" || !strings.Contains(f.msg, want[i]) {
			t.Fatalf("finding %d = %v, want HV009 naming %s", i, f, want[i])
		}
	}
}

func TestExportedFuncVarFlagged(t *testing.T) {
	// A declared func type (plain, parenthesized, in a group) and a func
	// literal initializer fire; unexported and non-func variables, a
	// named func type, a package-level func and a function-local
	// variable do not.
	src := `package deploy
var EquivHook func(*Deployment) error
var (
	Before, After (func())
	count         int
	Limit         = 3
)
var Default = func() int { return 1 }
var hook func()
type Gate func() error
func Prove() error { var Local func(); _ = Local; return nil }
`
	fs, err := lintGoSource("internal/deploy/deploy.go", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	want := []string{"EquivHook", "Before", "After", "Default"}
	if len(fs) != len(want) {
		t.Fatalf("want %d HV009 findings, got %v", len(want), fs)
	}
	for i, f := range fs {
		if f.rule != "HV009" || f.sev != "error" || !strings.Contains(f.msg, "variable "+want[i]+" ") {
			t.Fatalf("finding %d = %v, want an HV009 error naming %s", i, f, want[i])
		}
	}
	// Tests may keep func-typed seams of their own.
	fs, err = lintGoSource("internal/deploy/deploy_test.go", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(fs) != 0 {
		t.Fatalf("want no findings in a _test.go file, got %v", fs)
	}
}

func TestTestOnlyImportFlagged(t *testing.T) {
	src := `package placement
import (
	"fmt"
	"github.com/hermes-net/hermes/internal/milp"
)
var _, _ = fmt.Sprint, milp.NewModel
`
	fs, err := lintGoSource("internal/placement/ilp.go", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got := rulesOf(fs); len(got) != 1 || got[0] != "HV010" {
		t.Fatalf("want [HV010], got %v", fs)
	}
	if fs[0].sev != "error" || !strings.Contains(fs[0].msg, "internal/milp") {
		t.Fatalf("finding must be an error naming the package: %v", fs[0])
	}
	// The same import from a test file is the sanctioned use.
	fs, err = lintGoSource("internal/placement/ilp_oracle_test.go", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(fs) != 0 {
		t.Fatalf("want no findings in a _test.go file, got %v", fs)
	}
}

// lintSet runs every rule, HV011 included, over an in-memory file set.
func lintSet(t *testing.T, files map[string]string) []vetFinding {
	t.Helper()
	var srcs []source
	for path, src := range files {
		srcs = append(srcs, source{path, src})
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i].path < srcs[j].path })
	fs, err := lintSources(srcs)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fs
}

// unsetOptionDecls declares one option struct of each kind HV011
// covers: an *Options struct (with an unexported field, exempt), a
// solver struct, and an allowlisted facade field.
const unsetOptionDecls = `package placement

type Options struct {
	Workers  int
	Deadline int
	scratch  int
}

type Greedy struct {
	Budget int
}

type RouteOptions struct {
	K int
}

func (o Options) defaults() Options {
	o.Deadline = 1 // the declaring file does not count as a setter
	o.Workers += o.scratch // read, so HV014 keeps the unexported field
	return o
}

var _ = Options{}.defaults
`

func TestUnsetOptionFieldsFlagged(t *testing.T) {
	fs := lintSet(t, map[string]string{
		"internal/placement/solver.go": unsetOptionDecls,
		// Tests and examples set every field: neither counts.
		"internal/placement/solver_test.go": `package placement
var _ = Options{Workers: 1, Deadline: 2}
var _ = Greedy{Budget: 3}
`,
		"examples/demo/main.go": `package main
import "github.com/hermes-net/hermes/internal/placement"
var _ = placement.Options{Deadline: 1}
var _ = placement.Greedy{Budget: 2}
`,
		// Production code sets Workers only.
		"cmd/tool/main.go": `package main
import "github.com/hermes-net/hermes/internal/placement"
var _ = placement.Options{Workers: 4}
`,
	})
	var got []string
	for _, f := range fs {
		if f.rule != "HV011" || f.sev != "error" {
			t.Fatalf("want only HV011 errors, got %v", f)
		}
		got = append(got, f.msg[:strings.Index(f.msg, " is set")])
	}
	want := []string{"option field internal/placement.Options.Deadline", "option field internal/placement.Greedy.Budget"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("HV011 findings = %q, want %q", got, want)
	}
}

func TestUnsetOptionFieldsSetters(t *testing.T) {
	// Every setter form HV011 recognizes, each from a production file:
	// a keyed literal through an import alias, a literal with an elided
	// type, a selector assignment, a taken address, and a literal of a
	// type alias.
	fs := lintSet(t, map[string]string{
		"internal/placement/solver.go": unsetOptionDecls,
		"internal/placement/shard/shard.go": `package shard
import "github.com/hermes-net/hermes/internal/placement"
type Greedy = placement.Greedy
var _ = Greedy{Budget: 1}
`,
		"cmd/tool/main.go": `package main
import (
	"flag"
	pl "github.com/hermes-net/hermes/internal/placement"
	_ "github.com/hermes-net/hermes/internal/placement/shard"
)
var _ = []pl.Options{{Workers: 2}}
func main() {
	var o pl.Options
	o.Deadline = 3
	flag.IntVar(&o.Workers, "workers", 1, "")
}
`,
	})
	if len(fs) != 0 {
		t.Fatalf("want no findings, got %v", fs)
	}
	// internal/milp's options are set from tests only, by design.
	fs = lintSet(t, map[string]string{
		"internal/milp/model.go": "package milp\ntype Options struct{ MaxNodes int }\n",
	})
	if len(fs) != 0 {
		t.Fatalf("internal/milp must be exempt, got %v", fs)
	}
}

func TestUnsetOptionPassThrough(t *testing.T) {
	// Inside the declaring package, Deadline: opts.Deadline in a literal
	// of the option's own type passes a value through and sets nothing,
	// so Deadline still fires; a keyed value that is not the same
	// field, or a literal of another type, still counts.
	fs := lintSet(t, map[string]string{
		"internal/placement/solver.go": unsetOptionDecls,
		"internal/placement/sharded.go": `package placement
func inner(opts Options) Options {
	return Options{Workers: opts.Workers, Deadline: opts.Deadline}
}

var _ = inner
`,
		"cmd/tool/main.go": `package main
import "github.com/hermes-net/hermes/internal/placement"
var _ = placement.Options{Workers: 4}
var _ = placement.Greedy{Budget: 2}
`,
	})
	if len(fs) != 1 || fs[0].rule != "HV011" || !strings.Contains(fs[0].msg, "internal/placement.Options.Deadline") {
		t.Fatalf("want one HV011 finding on the passed-through Deadline, got %v", fs)
	}
	// The same copy made from another package is the facade forwarding
	// its own input (hermes.go's Ctx: opts.Ctx): a setter.
	fs = lintSet(t, map[string]string{
		"internal/placement/solver.go": unsetOptionDecls,
		"hermes.go": `package hermes
import "github.com/hermes-net/hermes/internal/placement"
type DeployOptions struct{ Workers, Deadline int }
func solve(opts DeployOptions) placement.Options {
	return placement.Options{Workers: opts.Workers, Deadline: opts.Deadline}
}

var _ = solve
`,
		"cmd/tool/main.go": `package main
import (
	"github.com/hermes-net/hermes"
	"github.com/hermes-net/hermes/internal/placement"
)
var _ = hermes.DeployOptions{Workers: 1, Deadline: 2}
var _ = placement.Greedy{Budget: 2}
`,
	})
	if len(fs) != 0 {
		t.Fatalf("a cross-package copy must count as a setter, got %v", fs)
	}
}

func TestUnimportedInternalPackagesFlagged(t *testing.T) {
	fs := lintSet(t, map[string]string{
		// Imported by a command: kept.
		"internal/placement/solver.go": "package placement\n",
		"cmd/tool/main.go": `package main
import _ "github.com/hermes-net/hermes/internal/placement"
`,
		// A subpackage is its own package: the parent's importers do
		// not keep it, and neither do its own tests, a self-import or an
		// importer that is itself a test.
		"internal/placement/shard/shard.go":      "package shard\n",
		"internal/placement/shard/shard_test.go": "package shard\nimport _ \"github.com/hermes-net/hermes/internal/placement/shard\"\n",
		"internal/stats/a.go":                    "package stats\n",
		"internal/stats/b.go":                    "package stats\nimport _ \"github.com/hermes-net/hermes/internal/stats\"\n",
		"internal/deploy/deploy_test.go":         "package deploy\nimport _ \"github.com/hermes-net/hermes/internal/stats\"\n",
		// Imported from another internal package: kept.
		"internal/workload/gen.go": "package workload\n",
		"internal/baseline/a.go":   "package baseline\nimport _ \"github.com/hermes-net/hermes/internal/workload\"\n",
		"internal/baseline/b.go":   "package baseline\n",
		"cmd/other/main.go":        "package main\nimport _ \"github.com/hermes-net/hermes/internal/baseline\"\n",
		// A test-only package is imported from tests by design.
		"internal/milp/model.go": "package milp\n",
		// A package outside internal/ is never flagged.
		"hermes.go": "package hermes\n",
	})
	var got []string
	for _, f := range fs {
		if f.rule != "HV012" || f.sev != "error" {
			t.Fatalf("want only HV012 errors, got %v", f)
		}
		got = append(got, f.pos.Filename+": "+f.msg[:strings.Index(f.msg, " is imported")])
	}
	want := []string{
		"internal/placement/shard/shard.go: package internal/placement/shard",
		"internal/stats/a.go: package internal/stats",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("HV012 findings = %q, want %q", got, want)
	}
}

// deadSurface runs every rule over files and returns the HV013
// messages up to their first colon; any other finding fails the test.
func deadSurface(t *testing.T, files map[string]string) []string {
	t.Helper()
	var got []string
	for _, f := range lintSet(t, files) {
		if f.rule != "HV013" || f.sev != "error" {
			t.Fatalf("want only HV013 errors, got %v", f)
		}
		got = append(got, f.msg[:strings.Index(f.msg, ":")])
	}
	return got
}

// deadSurfaceDecls declares an exported function and method in an
// internal package that deadSurfaceCmd imports and calls, so HV012
// stays quiet and only the fixture's own additions decide HV013.
const deadSurfaceDecls = `package placement

type Plan struct{ n int }

func Solve() *Plan { return &Plan{} }

func (p *Plan) Moved() int { return p.n }

func Diff() int { return 0 }
`

const deadSurfaceCmd = `package main

import "github.com/hermes-net/hermes/internal/placement"

var _ = placement.Solve().Moved()
`

func TestDeadSurfaceTestOnlyCallerFlagged(t *testing.T) {
	got := deadSurface(t, map[string]string{
		"internal/placement/plan.go": deadSurfaceDecls,
		// Callers in test files count for nothing, inside the package
		// or out.
		"internal/placement/plan_test.go": "package placement\nvar _ = Diff()\n",
		"internal/deploy/deploy_test.go": `package deploy
import "github.com/hermes-net/hermes/internal/placement"
var _ = placement.Diff()
`,
		"cmd/tool/main.go": deadSurfaceCmd,
	})
	if want := []string{"exported internal/placement.Diff is referenced by no non-test file"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("HV013 findings = %q, want %q", got, want)
	}
}

func TestDeadSurfaceOutsideCallersCount(t *testing.T) {
	for _, tc := range []struct{ name, path, src string }{
		{"benchmark", "benchmark/main.go", "package main\nimport pl \"github.com/hermes-net/hermes/internal/placement\"\nvar _ = pl.Diff\n"},
		{"examples", "examples/demo/main.go", "package main\nimport pl \"github.com/hermes-net/hermes/internal/placement\"\nvar _ = pl.Diff\n"},
		{"cmd", "cmd/other/main.go", "package main\nimport pl \"github.com/hermes-net/hermes/internal/placement\"\nvar _ = pl.Diff\n"},
		{"root_package", "hermes.go", "package hermes\nimport pl \"github.com/hermes-net/hermes/internal/placement\"\nvar _ = pl.Diff\n"},
		// A bare call from another file of the same package.
		{"same_package", "internal/placement/greedy.go", "package placement\nvar _ = Diff()\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := deadSurface(t, map[string]string{
				"internal/placement/plan.go": deadSurfaceDecls,
				"cmd/tool/main.go":           deadSurfaceCmd,
				tc.path:                      tc.src,
			})
			if len(got) != 0 {
				t.Errorf("a call from %s must keep placement.Diff, got %q", tc.path, got)
			}
		})
	}
}

func TestDeadSurfaceFacadeReceiverFlagged(t *testing.T) {
	files := map[string]string{
		"internal/placement/plan.go": deadSurfaceDecls + `
type Scratch struct{}

func (s *Scratch) Reset() {}

func (p *Plan) AMax() int { return 0 }
`,
		"cmd/tool/main.go": deadSurfaceCmd + "\nvar _ = placement.Diff()\n",
	}
	want := []string{
		"exported internal/placement.Scratch.Reset is referenced by no non-test file",
		"exported internal/placement.Plan.AMax, a method of a facade-aliased type, is referenced by no non-test file",
	}
	// The facade's alias of Plan makes AMax public API, which is no
	// reason to keep it: it needs a caller or an allowlist entry.
	files["hermes.go"] = `package hermes
import "github.com/hermes-net/hermes/internal/placement"
type (
	Plan = placement.Plan
)
`
	if got := deadSurface(t, files); !reflect.DeepEqual(got, want) {
		t.Fatalf("HV013 findings = %q, want %q", got, want)
	}
	// A caller in an example keeps it.
	files["examples/demo/main.go"] = "package main\nimport hermes \"github.com/hermes-net/hermes\"\nvar _ = (&hermes.Plan{}).AMax()\n"
	if got := deadSurface(t, files); !reflect.DeepEqual(got, want[:1]) {
		t.Fatalf("HV013 findings = %q, want %q", got, want[:1])
	}
}

// deadSurfaceTDG declares tdg.Graph's allowlisted methods AddEdge, Clone, Edge
// and Edges next to a method a command calls.
const deadSurfaceTDG = "package tdg\ntype Graph struct{}\nfunc (g *Graph) AddEdge() error { return nil }\nfunc (g *Graph) Clone() {}\nfunc (g *Graph) Edge() {}\nfunc (g *Graph) Edges() {}\nfunc (g *Graph) AppendEdge() {}\n"

const deadSurfaceTDGFacade = `package hermes
import "github.com/hermes-net/hermes/internal/tdg"
type TDG = tdg.Graph
`

func TestDeadSurfacePublicAPIAllowlisted(t *testing.T) {
	if _, ok := publicAPIAllowlist["internal/tdg.Graph.AddEdge"]; !ok {
		t.Fatal("fixture assumes internal/tdg.Graph.AddEdge is allowlisted")
	}
	got := deadSurface(t, map[string]string{
		"internal/tdg/tdg.go":      deadSurfaceTDG,
		"internal/tdg/tdg_test.go": "package tdg\nvar _ = (&Graph{}).AddEdge()\n",
		"hermes.go":                deadSurfaceTDGFacade,
		"cmd/tool/main.go":         "package main\nimport \"github.com/hermes-net/hermes/internal/tdg\"\nfunc main() { (&tdg.Graph{}).AppendEdge() }\n",
	})
	if len(got) != 0 {
		t.Fatalf("an allowlisted public method must be exempt, got %q", got)
	}
}

func TestDeadSurfaceStalePublicAPIEntry(t *testing.T) {
	cmd := "package main\nimport \"github.com/hermes-net/hermes/internal/tdg\"\nfunc main() { (&tdg.Graph{}).AppendEdge() }\n"
	for _, tc := range []struct {
		name  string
		files map[string]string
		want  []string
	}{
		{"gained_caller", map[string]string{
			"internal/tdg/tdg.go": deadSurfaceTDG,
			"hermes.go":           deadSurfaceTDGFacade,
			"cmd/tool/main.go":    cmd + "var _ = (&tdg.Graph{}).AddEdge()\n",
		}, []string{"publicAPIAllowlist entry internal/tdg.Graph.AddEdge has a non-test caller now"}},
		{"deleted", map[string]string{
			"internal/tdg/tdg.go": "package tdg\ntype Graph struct{}\nfunc (g *Graph) Clone() {}\nfunc (g *Graph) Edge() {}\nfunc (g *Graph) Edges() {}\nfunc (g *Graph) AppendEdge() {}\n",
			"hermes.go":           deadSurfaceTDGFacade,
			"cmd/tool/main.go":    cmd,
		}, []string{"publicAPIAllowlist entry internal/tdg.Graph.AddEdge names no declaration"}},
		{"not_aliased", map[string]string{
			"internal/tdg/tdg.go": deadSurfaceTDG,
			"cmd/tool/main.go":    cmd,
		}, []string{
			"publicAPIAllowlist entry internal/tdg.Graph.AddEdge is a method of a type the facade does not alias",
			"publicAPIAllowlist entry internal/tdg.Graph.Clone is a method of a type the facade does not alias",
			"publicAPIAllowlist entry internal/tdg.Graph.Edge is a method of a type the facade does not alias",
			"publicAPIAllowlist entry internal/tdg.Graph.Edges is a method of a type the facade does not alias",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := deadSurface(t, tc.files)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("HV013 findings = %q, want %q", got, tc.want)
			}
		})
	}
}

// An allowlist entry belongs to the package its import path names: a
// lint fixture whose clause is tdg but which lives elsewhere neither
// stales the internal/tdg entries nor stands in for them, and its own
// uncalled method is its own finding.
func TestDeadSurfaceStaleEntryKeyedOnDirectory(t *testing.T) {
	cmd := "package main\nimport (\n\t\"github.com/hermes-net/hermes/internal/tdg\"\n\t_ \"github.com/hermes-net/hermes/internal/lintfix\"\n)\nfunc main() { (&tdg.Graph{}).AppendEdge() }\n"
	for _, tc := range []struct {
		name  string
		files map[string]string
		want  []string
	}{
		{"fixture_only", map[string]string{
			"internal/lintfix/fix.go": "package tdg\n",
			"cmd/tool/main.go":        "package main\nimport _ \"github.com/hermes-net/hermes/internal/lintfix\"\nfunc main() {}\n",
		}, nil},
		{"fixture_beside_real", map[string]string{
			"internal/lintfix/fix.go": "package tdg\n",
			"internal/tdg/tdg.go":     deadSurfaceTDG,
			"hermes.go":               deadSurfaceTDGFacade,
			"cmd/tool/main.go":        cmd,
		}, nil},
		{"fixture_does_not_declare_for_real", map[string]string{
			"internal/lintfix/fix.go": "package tdg\ntype Graph struct{}\nfunc (g *Graph) AddEdge() error { return nil }\n",
			"internal/tdg/tdg.go":     "package tdg\ntype Graph struct{}\nfunc (g *Graph) Clone() {}\nfunc (g *Graph) Edge() {}\nfunc (g *Graph) Edges() {}\nfunc (g *Graph) AppendEdge() {}\n",
			"hermes.go":               deadSurfaceTDGFacade,
			"cmd/tool/main.go":        cmd,
		}, []string{
			"exported internal/lintfix.Graph.AddEdge is referenced by no non-test file",
			"publicAPIAllowlist entry internal/tdg.Graph.AddEdge names no declaration",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := deadSurface(t, tc.files); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("HV013 findings = %q, want %q", got, tc.want)
			}
		})
	}
}

// A method's allowlist entry is checked only where the file set
// declares its receiver type: a fixture declaring internal/tdg without
// a Graph type neither declares nor stales the tdg.Graph entries, while
// one that declares Graph without an allowlisted method still does.
func TestDeadSurfaceStaleEntryNeedsReceiverType(t *testing.T) {
	cmd := "package main\nimport \"github.com/hermes-net/hermes/internal/tdg\"\nfunc main() { tdg.Build() }\n"
	for _, tc := range []struct {
		name string
		tdg  string
		want []string
	}{
		{"no_receiver_type", "package tdg\nfunc Build() {}\n", nil},
		{"receiver_type_without_entry", "package tdg\ntype Graph struct{}\nfunc (g *Graph) Clone() {}\nfunc (g *Graph) Edge() {}\nfunc (g *Graph) Edges() {}\nfunc Build() { _ = Graph{} }\n",
			[]string{"publicAPIAllowlist entry internal/tdg.Graph.AddEdge names no declaration"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := deadSurface(t, map[string]string{
				"internal/tdg/tdg.go": tc.tdg,
				"hermes.go":           deadSurfaceTDGFacade,
				"cmd/tool/main.go":    cmd,
			})
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("HV013 findings = %q, want %q", got, tc.want)
			}
		})
	}
}

func TestDeadSurfaceUnexportedTestOnlyCallerFlagged(t *testing.T) {
	got := deadSurface(t, map[string]string{
		"cmd/tool/main.go": `package main
func main() { used() }
func used()      {}
func testHelper() {}
type lint struct{}
func (l lint) run() {}
func (l lint) probe() {}
var _ = lint{}.run
`,
		"cmd/tool/main_test.go": "package main\nvar _, _ = testHelper, lint{}.probe\n",
		// Another command's call to a function of the same name does
		// not keep this one.
		"cmd/other/main.go": "package main\nfunc main() { testHelper() }\nfunc testHelper() {}\n",
	})
	want := []string{
		"unexported cmd/tool.testHelper is referenced by no non-test file",
		"unexported cmd/tool.lint.probe is referenced by no non-test file",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("HV013 findings = %q, want %q", got, want)
	}
}

func TestDeadSurfaceUnexportedProductionCallerKeeps(t *testing.T) {
	for _, tc := range []struct {
		name  string
		extra map[string]string
	}{
		{"same_file", map[string]string{"internal/placement/solve.go": "package placement\nfunc solve() int { return 0 }\nvar _ = solve()\n"}},
		{"other_file", map[string]string{
			"internal/placement/solve.go":  "package placement\nfunc solve() int { return 0 }\n",
			"internal/placement/greedy.go": "package placement\nvar _ = solve\n",
		}},
		{"method_selector", map[string]string{"internal/placement/solve.go": "package placement\ntype solver struct{}\nfunc (solver) run() {}\nvar _ = solver{}.run\n"}},
		// init and main are called by the runtime; benchmark/ is not
		// checked.
		{"runtime_and_benchmark", map[string]string{
			"internal/placement/solve.go": "package placement\nfunc init() {}\n",
			"benchmark/util.go":           "package main\nfunc main() {}\nfunc unused() {}\n",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			files := map[string]string{
				"internal/placement/plan.go": deadSurfaceDecls,
				"cmd/tool/main.go":           deadSurfaceCmd + "\nvar _ = placement.Diff()\n",
			}
			maps.Copy(files, tc.extra)
			if got := deadSurface(t, files); len(got) != 0 {
				t.Errorf("want no finding, got %q", got)
			}
		})
	}
}

func TestDeadSurfaceStandardInterfaceExempt(t *testing.T) {
	got := deadSurface(t, map[string]string{
		"internal/placement/plan.go": deadSurfaceDecls + `
type byLoad []int

func (b byLoad) Len() int           { return len(b) }
func (b byLoad) Less(i, j int) bool { return b[i] < b[j] }
func (b byLoad) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }
func (b byLoad) String() string     { return "" }
`,
		"internal/placement/sort.go": "package placement\nimport \"sort\"\nvar _ = func(b []int) { sort.Sort(byLoad(b)) }\n",
		"cmd/tool/main.go":           deadSurfaceCmd + "\nvar _ = placement.Diff()\n",
	})
	if len(got) != 0 {
		t.Fatalf("sort.Interface and Stringer methods must be exempt, got %q", got)
	}
}

func TestDeadSurfaceTestOnlyPackageExempt(t *testing.T) {
	got := deadSurface(t, map[string]string{
		"internal/milp/model.go":      "package milp\nfunc NewModel() int { return 0 }\n",
		"internal/milp/model_test.go": "package milp\nvar _ = NewModel()\n",
	})
	if len(got) != 0 {
		t.Fatalf("internal/milp must be exempt, got %q", got)
	}
}

// deadSurfaceMerge declares merge.Graphs, an allowlisted reference
// twin, next to a function a command calls.
const deadSurfaceMerge = "package merge\nfunc Graphs() int { return 0 }\nfunc Fold() int { return 0 }\n"

func TestDeadSurfaceAllowlistedTwinExempt(t *testing.T) {
	if _, ok := deadSurfaceAllowlist["internal/merge.Graphs"]; !ok {
		t.Fatal("fixture assumes internal/merge.Graphs is allowlisted")
	}
	got := deadSurface(t, map[string]string{
		"internal/merge/merge.go":           deadSurfaceMerge,
		"internal/deploy/footprint_test.go": "package deploy\nimport \"github.com/hermes-net/hermes/internal/merge\"\nvar _ = merge.Graphs()\n",
		"cmd/tool/main.go":                  "package main\nimport \"github.com/hermes-net/hermes/internal/merge\"\nvar _ = merge.Fold()\n",
	})
	if len(got) != 0 {
		t.Fatalf("an allowlisted twin must be exempt, got %q", got)
	}
}

func TestDeadSurfaceStaleAllowlistEntry(t *testing.T) {
	// The twin gained a production caller: the entry must go.
	got := deadSurface(t, map[string]string{
		"internal/merge/merge.go": deadSurfaceMerge,
		"cmd/tool/main.go":        "package main\nimport \"github.com/hermes-net/hermes/internal/merge\"\nvar _ = merge.Graphs() + merge.Fold()\n",
	})
	if want := []string{"deadSurfaceAllowlist entry internal/merge.Graphs has a non-test caller now"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("HV013 findings = %q, want %q", got, want)
	}
	// The twin is gone from a linted package: the entry names nothing.
	got = deadSurface(t, map[string]string{
		"internal/merge/merge.go": "package merge\nfunc Fold() int { return 0 }\n",
		"cmd/tool/main.go":        "package main\nimport \"github.com/hermes-net/hermes/internal/merge\"\nvar _ = merge.Fold()\n",
	})
	if want := []string{"deadSurfaceAllowlist entry internal/merge.Graphs names no declaration"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("HV013 findings = %q, want %q", got, want)
	}
}

// repoSources reads every Go file of the repository, tests included.
func repoSources(t *testing.T) []source {
	t.Helper()
	var srcs []source
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && d.Name() != ".." && d.Name() != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		srcs = append(srcs, source{path, string(src)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(srcs) < 50 {
		t.Fatalf("walked only %d Go files; wrong root?", len(srcs))
	}
	return srcs
}

// Every name HV005 bans must be declared somewhere in the tree, test
// files included: a ban on a deleted function polices nothing.
func TestHotBannedNamesAreDeclared(t *testing.T) {
	declared := map[string]bool{}
	fset := token.NewFileSet()
	for _, s := range repoSources(t) {
		file, err := parser.ParseFile(fset, s.path, s.src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				declared[fn.Name.Name] = true
			}
		}
	}
	for name := range hotBanned {
		if !declared[name] {
			t.Errorf("hotBanned names %s, which no file declares: drop the ban", name)
		}
	}
}

// The repository itself must stay free of error-severity findings:
// `make check` gates on the binary's exit status, and this test keeps
// the guarantee visible from `go test ./...` alone.
func TestRepoIsClean(t *testing.T) {
	findings, err := lintSources(repoSources(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.sev == "error" {
			t.Errorf("repo must lint clean: %v", f)
		}
	}
}

// writeOnly runs every rule over files and returns the HV014 findings'
// messages up to their first colon.
func writeOnly(t *testing.T, files map[string]string) []string {
	t.Helper()
	var got []string
	for _, f := range lintSet(t, files) {
		if f.rule == "HV014" {
			msg, _, _ := strings.Cut(f.msg, ":")
			got = append(got, msg)
		}
	}
	return got
}

func TestWriteOnlyFieldFlagged(t *testing.T) {
	got := writeOnly(t, map[string]string{
		"internal/supervisor/monitor.go": `package supervisor

type Monitor struct {
	polls  int
	window int
	seen   map[int]bool
}

func NewMonitor(w int) *Monitor { return &Monitor{window: w, seen: map[int]bool{}} }

func (m *Monitor) Poll() int {
	m.polls++
	m.seen[1] = true
	return m.window
}
`,
		// Set from another file of the package, keyed and by assignment.
		"internal/supervisor/reset.go": "package supervisor\n\nfunc reset(m *Monitor) { m.polls = 0; *m = Monitor{polls: 1} }\n",
		// A read in a test file counts for nothing.
		"internal/supervisor/monitor_test.go": "package supervisor\n\nvar _ = NewMonitor(1).polls\n",
		// Nor does a read of a same-named field in another package.
		"internal/deploy/deploy.go": "package deploy\n\ntype stats struct{ polls int }\n\nfunc read(s stats) int { return s.polls }\n",
	})
	if want := []string{"field internal/supervisor.Monitor.polls is written but never read by a non-test file of its package"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("HV014 findings = %q, want %q", got, want)
	}
}

func TestReadFieldNotFlagged(t *testing.T) {
	for _, tc := range []struct{ name, use string }{
		{"right-hand side", "func f(c *cache) int { c.hits = 2; return c.hits }"},
		{"argument", "func f(c *cache) { c.hits = 2; println(c.hits) }"},
		{"address", "func f(c *cache) *int { return &c.hits }"},
		{"compound target reads through an index", "func f(c *cache, m []int) { m[c.hits] = 1 }"},
		{"another file of the package", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			files := map[string]string{
				"internal/network/cache.go": "package network\n\ntype cache struct{ hits int }\n\nfunc newCache() *cache { return &cache{hits: 1} }\n",
			}
			if tc.use != "" {
				files["internal/network/use.go"] = "package network\n\n" + tc.use + "\n"
			} else {
				files["internal/network/oracle.go"] = "package network\n\nfunc hitsOf(c *cache) int { return c.hits }\n"
			}
			if got := writeOnly(t, files); len(got) != 0 {
				t.Fatalf("a read field was flagged: %q", got)
			}
		})
	}
}

// A field read only as the receiver of a method value is read.
func TestFieldReadThroughMethodValue(t *testing.T) {
	got := writeOnly(t, map[string]string{
		"internal/deploy/sink.go": `package deploy

import "io"

type sink struct{ w io.Writer }

func newSink(w io.Writer) *sink {
	s := &sink{}
	s.w = w
	return s
}

func (s *sink) writer() func([]byte) (int, error) { return s.w.Write }
`,
	})
	if len(got) != 0 {
		t.Fatalf("a field read through a method value was flagged: %q", got)
	}
}

// HV013 resolves each reference to the declaration it names. A name
// alone keeps nothing: a type selector or a package function spelled
// like a method, or a call of another type's same-named method, leaves
// the method unreferenced. A method value, a call through an
// interface, a call promoted through an embedded field and a call on an
// instantiation of a generic type all reference it.
func TestDeadSurfaceResolvesNames(t *testing.T) {
	const geo = `package geo

type Hop struct{}

type Path struct{}

func (p *Path) Hop() *Hop { return nil }

type Set struct{}

func (Set) Contains(int) bool { return false }

type A struct{}

func (A) Size() int { return 1 }

type B struct{}

func (B) Size() int { return 2 }
`
	for _, tc := range []struct {
		name, use string
		want      []string
	}{
		{"type_selector_named_like_method", "var _ = geo.Hop{}\nvar _, _ = geo.A{}.Size, geo.B{}.Size\nvar _ = geo.Set{}.Contains",
			[]string{"exported internal/geo.Path.Hop is referenced by no non-test file"}},
		{"package_function_named_like_method", "var _ = slices.Contains([]int{1}, 1)\nvar _ = (&geo.Path{}).Hop\nvar _, _ = geo.A{}.Size, geo.B{}.Size",
			[]string{"exported internal/geo.Set.Contains is referenced by no non-test file"}},
		{"other_types_method", "var _ = geo.A{}.Size()\nvar _ = (&geo.Path{}).Hop\nvar _ = geo.Set{}.Contains",
			[]string{"exported internal/geo.B.Size is referenced by no non-test file"}},
		{"method_value", "var f = geo.B{}.Size\nvar _ = f\nvar _ = geo.A{}.Size\nvar _ = (&geo.Path{}).Hop\nvar _ = geo.Set{}.Contains", nil},
		{"through_interface", "type sizer interface{ Size() int }\nvar _ = []sizer{geo.A{}, geo.B{}}[0].Size()\nvar _ = (&geo.Path{}).Hop\nvar _ = geo.Set{}.Contains", nil},
		{"promoted_through_embedding", "type outer struct{ geo.A }\nvar _ = outer{}.Size()\nvar _ = geo.B{}.Size\nvar _ = (&geo.Path{}).Hop\nvar _ = geo.Set{}.Contains", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := deadSurface(t, map[string]string{
				"internal/geo/geo.go": geo,
				"cmd/tool/main.go":    "package main\n\nimport (\n\t\"slices\"\n\n\t\"github.com/hermes-net/hermes/internal/geo\"\n)\n\nvar _ = slices.Sort[[]int]\n\n" + tc.use + "\n",
			})
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("HV013 findings = %q, want %q", got, tc.want)
			}
		})
	}
}

// A method of a generic type is referenced through any instantiation
// (the tdg.arena[T] pattern); an uncalled one is still flagged.
func TestDeadSurfaceGenericMethodOnInstantiation(t *testing.T) {
	got := deadSurface(t, map[string]string{
		"internal/pool/pool.go": `package pool

type arena[T any] struct{ items []T }

func (a *arena[T]) add(x T) int {
	a.items = append(a.items, x)
	return len(a.items) - 1
}

func (a *arena[T]) at(i int) T { return a.items[i] }

type Store struct{ ints arena[int] }

func (s *Store) Put(x int) int { return s.ints.add(x) }
`,
		"cmd/tool/main.go": "package main\n\nimport \"github.com/hermes-net/hermes/internal/pool\"\n\nvar _ = (&pool.Store{}).Put(1)\n",
	})
	if want := []string{"unexported internal/pool.arena.at is referenced by no non-test file"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("HV013 findings = %q, want %q", got, want)
	}
}

// A read of another struct's field of the same name does not read a
// write-only field (dataplane's cswitch.id beside fieldRef.id).
func TestWriteOnlyFieldBesideSameNamedRead(t *testing.T) {
	got := writeOnly(t, map[string]string{
		"internal/plane/plane.go": `package plane

type fieldRef struct{ id int }

type cswitch struct {
	id int
	n  int
}

func build(r fieldRef) *cswitch { return &cswitch{id: 1, n: r.id} }

func (c *cswitch) size() int { return c.n }

var _ = build(fieldRef{id: 2}).size
`,
	})
	if want := []string{"field internal/plane.cswitch.id is written but never read by a non-test file of its package"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("HV014 findings = %q, want %q", got, want)
	}
}

// An assignment to another type's field of the same name sets no
// option (supervisor.Options.Ctx beside rollout.Options.Ctx).
func TestUnsetOptionSameNamedFieldOfAnotherType(t *testing.T) {
	fs := lintSet(t, map[string]string{
		"internal/super/super.go": "package super\n\nimport \"context\"\n\ntype Options struct {\n\tCtx   context.Context\n\tEvery int\n}\n",
		"cmd/tool/main.go": `package main

import (
	"context"

	"github.com/hermes-net/hermes/internal/super"
)

type job struct{ Ctx context.Context }

func main() {
	var j job
	j.Ctx = context.Background()
	_ = j
	_ = super.Options{Every: 1}
}
`,
	})
	var got []string
	for _, f := range fs {
		if f.rule == "HV011" {
			got = append(got, f.msg[:strings.Index(f.msg, " is set")])
		}
	}
	if want := []string{"option field internal/super.Options.Ctx"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("HV011 findings = %q, want %q", got, want)
	}
}
