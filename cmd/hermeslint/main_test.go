package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

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
func (m *mat) ModifiedFields() (set, error) { return set{}, nil }
func (m *mat) ReadFields() (set, error)     { return set{}, nil }
func (m *mat) MatchFields() (set, error)    { return set{}, nil }
func (m *mat) Footprint() footprint         { return footprint{} }
func MetadataFields(a, b *mat, typ int) (set, error) { return set{}, nil }
func EdgeMetadataBytes(a, b *mat, typ int) (int, error) { return 0, nil }
func NewSet(fs ...int) (set, error) { return set{}, nil }
func Delivered(a, b *footprint, typ int) (int, error) { return 0, nil }
func bad(mats []*mat) {
	//hermes:hot
	for i := 1; i < len(mats); i++ {
		a, b := mats[i-1], mats[i]
		a.ModifiedFields()
		b.ReadFields()
		b.MatchFields()
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
	if got := rulesOf(fs); len(got) != 6 {
		t.Fatalf("want 6 HV005 findings, got %v", fs)
	}
	for _, want := range []string{"a.ModifiedFields()", "b.ReadFields()", "b.MatchFields()", "MetadataFields()", "EdgeMetadataBytes()", "NewSet()"} {
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

func TestInitHookAllowlistAndLocalState(t *testing.T) {
	// The four registrations ROADMAP 7(c) retires stay legal, as do an
	// init that sets its own package's state, a pkg.X assignment outside
	// init, and a method that happens to be called init.
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
	if len(fs) != 0 {
		t.Fatalf("want no findings, got %v", fs)
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
	return o
}
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
	want := []string{"option field placement.Options.Deadline", "option field placement.Greedy.Budget"}
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

// The repository itself must stay free of error-severity findings:
// `make check` gates on the binary's exit status, and this test keeps
// the guarantee visible from `go test ./...` alone.
func TestRepoIsClean(t *testing.T) {
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
	findings, err := lintSources(srcs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.sev == "error" {
			t.Errorf("repo must lint clean: %v", f)
		}
	}
}
