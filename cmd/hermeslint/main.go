// Command hermeslint is a repo-specific vet pass for the concurrency
// conventions introduced with the parallel placement engine: the
// path-oracle caches guard shared maps with sync.(RW)Mutex, and the
// Plan/Graph/Topology types expose Clone() for safe cross-goroutine
// hand-off. Both idioms have silent failure modes that `go vet` does
// not catch, so this tool flags them syntactically:
//
//	HV001  a function locks a mutex but never unlocks it (no paired
//	       Unlock/RUnlock call, direct or deferred)           error
//	HV002  defer mu.Lock() — almost always a typo for Unlock  error
//	HV003  a return statement between a Lock and its
//	       non-deferred Unlock leaks the lock on early exit   warning
//	HV004  a Clone() result is discarded, so the caller keeps
//	       mutating the shared original                       error
//	HV005  a name-keyed call — map-based scoring (PairBytes,
//	       AMax, the *Ref twins, ...), graph materialization
//	       (Subgraph, Edges, OutEdges, InEdges) or name-keyed
//	       stage packing (FitsSwitch, PackStages, packShared) —
//	       or a packet-engine compile (NewEngine, NewPipeline,
//	       NewReferenceEngine) inside a loop tagged
//	       //hermes:hot: hot loops must use the compiled and
//	       position-space kernels and build engines once      error
//	HV006  an allocation inside a loop tagged //hermes:hot:
//	       make(), a map or slice composite literal, or an
//	       append whose destination is a struct field (the
//	       amortized-scratch idiom belongs outside the loop;
//	       growing it per iteration defeats the
//	       allocation-free contract)                         error
//	HV007  inside a function carrying a //hermes:hot tag, a
//	       return between a pool Get() and its matching
//	       Put() drops the pooled buffer on the early-exit
//	       path, so the pool drains under error load exactly
//	       when recycling matters most (a deferred Put, or a
//	       Get whose buffer ownership leaves the function —
//	       no Put at all — stays legal)                      error
//	HV008  a direct Controller.Rebind() call outside
//	       internal/deploy/ — bare rebinds swap the serving
//	       plan non-transactionally, skipping the
//	       make-before-break rollout engine's staging,
//	       journaling, and rollback; adopt plans through
//	       rollout.New(...).Execute() (or the supervisor,
//	       which does) instead                               error
//	HV009  a func init() that assigns to a selector of an
//	       imported package (pkg.Hook = ...): an init-time
//	       hook seam makes another package behave differently
//	       depending on which packages the binary links; call
//	       the code directly. Only the four registrations
//	       ROADMAP 7(c) retires are allowed                  error
//
// It is deliberately x/tools-free: the analysis is a plain go/parser +
// go/ast walk so it builds in hermetic environments with no module
// cache. The price is that matching is syntactic (by selector chain
// text, e.g. "c.mu"), which is exactly right for the conventions it
// polices and keeps false positives near zero on this codebase.
//
// Usage: hermeslint [dir ...]   (default ".")
// Exit status 1 iff any error-severity finding is reported.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type vetFinding struct {
	pos  token.Position
	rule string
	sev  string // "error" | "warning"
	msg  string
}

func (f vetFinding) String() string {
	return fmt.Sprintf("%s: %s %s: %s", f.pos, f.rule, f.sev, f.msg)
}

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{"."}
	}
	var files []string
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if name == "testdata" || strings.HasPrefix(name, ".") && path != root {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "hermeslint:", err)
			os.Exit(2)
		}
	}
	sort.Strings(files)

	var all []vetFinding
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hermeslint:", err)
			os.Exit(2)
		}
		fs, err := lintGoSource(path, string(src))
		if err != nil {
			fmt.Fprintln(os.Stderr, "hermeslint:", err)
			os.Exit(2)
		}
		all = append(all, fs...)
	}

	bad := false
	for _, f := range all {
		fmt.Println(f)
		if f.sev == "error" {
			bad = true
		}
	}
	if bad {
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "hermeslint: %d file(s), %d finding(s)\n", len(files), len(all))
}

// lintGoSource parses one Go file and runs every rule over each
// function body.
func lintGoSource(path, src string) ([]vetFinding, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution|parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var out []vetFinding
	ast.Inspect(file, func(n ast.Node) bool {
		fn, ok := n.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			return true
		}
		out = append(out, lintFunc(fset, fn)...)
		if hotFunc(file, fn) {
			out = append(out, lintPoolFunc(fset, fn)...)
		}
		return true
	})
	out = append(out, lintHotLoops(fset, file)...)
	out = append(out, lintRebind(fset, file, path)...)
	out = append(out, lintInitHooks(fset, file)...)
	return out, nil
}

// initHookAllowlist names the init-time registrations that remain until
// ROADMAP 7(c) retires them.
var initHookAllowlist = map[string]bool{
	"analyzer.GraphLintHook":  true,
	"placement.PlanLintHook":  true,
	"placement.PlanEquivHook": true,
	"deploy.EquivHook":        true,
}

// lintInitHooks applies HV009: an assignment inside a top-level init()
// whose target is pkg.Name, pkg being one of the file's imports, arms
// a hook seam in that package. Import names are the explicit alias or
// the path's last element.
func lintInitHooks(fset *token.FileSet, file *ast.File) []vetFinding {
	imported := map[string]bool{}
	for _, spec := range file.Imports {
		path := strings.Trim(spec.Path.Value, `"`)
		name := path[strings.LastIndex(path, "/")+1:]
		if spec.Name != nil {
			name = spec.Name.Name
		}
		imported[name] = true
	}
	var out []vetFinding
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Recv != nil || fn.Name.Name != "init" || fn.Body == nil {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for _, lhs := range as.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				pkg, ok := sel.X.(*ast.Ident)
				if !ok || !imported[pkg.Name] {
					continue
				}
				target := renderExpr(sel)
				if initHookAllowlist[target] {
					continue
				}
				out = append(out, vetFinding{
					pos: fset.Position(lhs.Pos()), rule: "HV009", sev: "error",
					msg: fmt.Sprintf("init() assigns %s: an init-time hook seam changes package %s's behaviour with the importing binary's link set; call the code directly instead",
						target, pkg.Name),
				})
			}
			return true
		})
	}
	return out
}

// lintRebind applies HV008: any method call named Rebind in a file
// outside internal/deploy/ bypasses the transactional rollout engine.
// The deploy tree (the engine itself, the controller, and their tests)
// is the only sanctioned call surface; everything else — supervisor,
// CLIs, experiments — must adopt plans through a rollout so that
// staging, journaling, and automatic rollback stay in the loop.
// Matching is syntactic like the rest of this tool; the method name is
// specific enough that false positives are effectively zero here.
func lintRebind(fset *token.FileSet, file *ast.File, path string) []vetFinding {
	slashed := filepath.ToSlash(path)
	if strings.Contains(slashed, "internal/deploy/") {
		return nil
	}
	var out []vetFinding
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Rebind" {
			return true
		}
		out = append(out, vetFinding{
			pos: fset.Position(call.Pos()), rule: "HV008", sev: "error",
			msg: fmt.Sprintf("%s.Rebind() outside internal/deploy/ swaps the serving plan non-transactionally; adopt the plan through the make-before-break rollout engine (rollout.New(...).Execute()) instead",
				renderExpr(sel.X)),
		})
		return true
	})
	return out
}

// hotFunc reports whether a function carries the //hermes:hot tag — on
// its doc comment or anywhere inside its body.
func hotFunc(file *ast.File, fn *ast.FuncDecl) bool {
	if fn.Doc != nil && hasHotTag([]*ast.CommentGroup{fn.Doc}) {
		return true
	}
	for _, g := range file.Comments {
		if g.Pos() >= fn.Body.Pos() && g.End() <= fn.Body.End() && hasHotTag([]*ast.CommentGroup{g}) {
			return true
		}
	}
	return false
}

// lintPoolFunc applies HV007 to one //hermes:hot function: a return
// between a pool Get() and its nearest following non-deferred Put() on
// the same receiver exits without recycling the buffer. A deferred Put
// covers every path, and a Get with no Put at all transfers ownership
// out of the function (the Load/GetBatch idiom), so neither fires.
// Receivers match syntactically, like everything here: a Get/Put whose
// rendered chain contains "pool" (case-insensitive) is a pool access.
func lintPoolFunc(fset *token.FileSet, fn *ast.FuncDecl) []vetFinding {
	var (
		events  []lockEvent
		returns []token.Pos
		out     []vetFinding
	)
	var walk func(n ast.Node, deferred bool)
	walk = func(n ast.Node, deferred bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				walk(n.Call, true)
				return false
			case *ast.ReturnStmt:
				returns = append(returns, n.Pos())
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				m := sel.Sel.Name
				if m != "Get" && m != "Put" {
					return true
				}
				recv := renderExpr(sel.X)
				if !strings.Contains(strings.ToLower(recv), "pool") {
					return true
				}
				events = append(events, lockEvent{
					recv: recv, method: m, deferred: deferred, pos: n.Pos(),
				})
			}
			return true
		})
	}
	walk(fn.Body, false)

	for i, e := range events {
		if e.deferred || e.method != "Get" {
			continue
		}
		for j := i + 1; j < len(events); j++ {
			u := events[j]
			if u.recv != e.recv || u.method != "Put" {
				continue
			}
			if u.deferred {
				break // recycled at exit: early returns are safe
			}
			for _, r := range returns {
				if r > e.pos && r < u.pos {
					out = append(out, vetFinding{
						pos: fset.Position(r), rule: "HV007", sev: "error",
						msg: fmt.Sprintf("return between %s.Get() and its %s.Put() in //hermes:hot %s drops the pooled buffer on this path; Put it back before returning or defer the Put",
							e.recv, e.recv, fn.Name.Name),
					})
				}
			}
			break
		}
	}
	return out
}

// hotBanned is the name-keyed surface: the retained reference scoring
// implementations, the Plan/TDG convenience accessors that allocate
// maps or hash names per call, the TDG calls that materialize a graph
// or a sorted edge slice, the name-keyed stage packer, and the packet
// engines' constructors (each compiles a whole deployment or sorts a
// whole graph: build the pair once per search, not per candidate
// packet). None of them belong inside a loop the author tagged
// //hermes:hot — that is what the compiled kernels (AssignmentAMax,
// MoveScore, PlaceScore, FillPairTable, ...) and the position-space
// packing step (packStep behind splitScratch.fits and
// repairInstance.packs) are for.
var hotBanned = map[string]bool{
	"PairBytes":          true,
	"PairBytesUncached":  true,
	"PairBytesRef":       true,
	"AMax":               true,
	"TE2E":               true,
	"TotalCrossBytes":    true,
	"WireBytes":          true,
	"MaxWireBytes":       true,
	"CrossEdges":         true,
	"AssignmentAMaxRef":  true,
	"MoveScoreRef":       true,
	"PlaceScoreRef":      true,
	"assignmentAMax":     true,
	"assignmentLatency":  true,
	"assignmentAcyclic":  true,
	"Subgraph":           true,
	"Edges":              true,
	"OutEdges":           true,
	"InEdges":            true,
	"FitsSwitch":         true,
	"PackStages":         true,
	"packShared":         true,
	"NewEngine":          true,
	"NewPipeline":        true,
	"NewReferenceEngine": true,
}

// lintHotLoops applies HV005: inside a for/range loop whose lead
// comment carries the //hermes:hot tag, every call resolving (by name)
// to the name-keyed surface is an error. Matching is syntactic,
// like the rest of this tool: the tag marks intent, and a hot loop
// that hashes MAT names per iteration defeats the compiled-instance
// fast path no matter which receiver it goes through.
func lintHotLoops(fset *token.FileSet, file *ast.File) []vetFinding {
	cm := ast.NewCommentMap(fset, file, file.Comments)
	var out []vetFinding
	seen := map[token.Pos]bool{} // dedupe calls under nested tagged loops
	ast.Inspect(file, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
		default:
			return true
		}
		if !hasHotTag(cm[n]) {
			return true
		}
		ast.Inspect(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok || seen[call.Pos()] {
				return true
			}
			var name, shown string
			switch fun := call.Fun.(type) {
			case *ast.SelectorExpr:
				name = fun.Sel.Name
				shown = renderExpr(fun.X) + "." + name
			case *ast.Ident:
				name = fun.Name
				shown = name
			default:
				return true
			}
			if hotBanned[name] {
				seen[call.Pos()] = true
				out = append(out, vetFinding{
					pos: fset.Position(call.Pos()), rule: "HV005", sev: "error",
					msg: fmt.Sprintf("%s() is name-keyed (map-based scoring, graph materialization, stage packing or an engine compile) inside a //hermes:hot loop; use the compiled-instance or position-space kernel, or hoist the construction out of the loop", shown),
				})
			}
			return true
		})
		out = append(out, lintHotAllocs(fset, n, seen)...)
		return true
	})
	return out
}

// lintHotAllocs applies HV006 inside one //hermes:hot loop: make()
// calls, map and slice composite literals, and appends whose
// destination is a struct field all allocate (or can grow the
// amortized scratch) per iteration. Appends to plain locals are
// allowed — building a bounded local batch is fine; it is the
// field-backed scratch that must be pre-sized outside the loop.
func lintHotAllocs(fset *token.FileSet, loop ast.Node, seen map[token.Pos]bool) []vetFinding {
	var out []vetFinding
	report := func(pos token.Pos, format string, args ...any) {
		if seen[pos] {
			return
		}
		seen[pos] = true
		out = append(out, vetFinding{
			pos: fset.Position(pos), rule: "HV006", sev: "error",
			msg: fmt.Sprintf(format, args...),
		})
	}
	ast.Inspect(loop, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fun, ok := n.Fun.(*ast.Ident)
			if !ok {
				return true
			}
			switch fun.Name {
			case "make":
				report(n.Pos(), "make() inside a //hermes:hot loop allocates per iteration; hoist the buffer into reused scratch")
			case "append":
				if len(n.Args) == 0 {
					return true
				}
				if sel, ok := n.Args[0].(*ast.SelectorExpr); ok {
					report(n.Pos(), "append to %s inside a //hermes:hot loop can grow the escaping scratch per iteration; pre-size it before the loop",
						renderExpr(sel))
				}
			}
		case *ast.CompositeLit:
			switch n.Type.(type) {
			case *ast.MapType:
				report(n.Pos(), "map literal inside a //hermes:hot loop allocates per iteration; hoist and clear a reused map instead")
			case *ast.ArrayType:
				if arr, _ := n.Type.(*ast.ArrayType); arr != nil && arr.Len == nil {
					report(n.Pos(), "slice literal inside a //hermes:hot loop allocates per iteration; hoist it into reused scratch")
				}
			}
		}
		return true
	})
	return out
}

// hasHotTag reports whether any comment group associated with a loop
// contains the //hermes:hot tag.
func hasHotTag(groups []*ast.CommentGroup) bool {
	for _, g := range groups {
		for _, c := range g.List {
			if strings.Contains(c.Text, "hermes:hot") {
				return true
			}
		}
	}
	return false
}

// lockEvent is one mutex or Clone call observed in a function body, in
// source order.
type lockEvent struct {
	recv     string // rendered selector chain, e.g. "c.mu"
	method   string // Lock, RLock, Unlock, RUnlock
	deferred bool
	pos      token.Pos
}

// lintFunc applies HV001–HV004 to a single function declaration.
func lintFunc(fset *token.FileSet, fn *ast.FuncDecl) []vetFinding {
	var (
		events  []lockEvent
		returns []token.Pos
		out     []vetFinding
	)
	report := func(pos token.Pos, rule, sev, format string, args ...any) {
		out = append(out, vetFinding{
			pos: fset.Position(pos), rule: rule, sev: sev,
			msg: fmt.Sprintf(format, args...),
		})
	}

	var walk func(n ast.Node, deferred bool)
	walk = func(n ast.Node, deferred bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				walk(n.Call, true)
				return false
			case *ast.ReturnStmt:
				returns = append(returns, n.Pos())
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Clone" && len(call.Args) == 0 {
						report(n.Pos(), "HV004", "error",
							"result of %s.Clone() is discarded; the caller keeps sharing the mutable original",
							renderExpr(sel.X))
					}
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch sel.Sel.Name {
				case "Lock", "RLock", "Unlock", "RUnlock":
					if len(n.Args) == 0 {
						events = append(events, lockEvent{
							recv: renderExpr(sel.X), method: sel.Sel.Name,
							deferred: deferred, pos: n.Pos(),
						})
					}
				}
			}
			return true
		})
	}
	walk(fn.Body, false)

	// HV002: locking in a defer runs at function exit — a typo for the
	// matching Unlock.
	for _, e := range events {
		if e.deferred && (e.method == "Lock" || e.method == "RLock") {
			report(e.pos, "HV002", "error",
				"defer %s.%s() acquires the lock at function exit; did you mean %s?",
				e.recv, e.method, unlockOf(e.method))
		}
	}

	// HV001: per receiver and lock kind, Lock with no Unlock anywhere
	// in the function (conditional unlocks still count as paired — the
	// rule only fires when no release exists at all).
	type kindKey struct {
		recv string
		r    bool // RLock/RUnlock flavor
	}
	locks := map[kindKey]lockEvent{}
	unlocks := map[kindKey]bool{}
	for _, e := range events {
		switch e.method {
		case "Lock":
			if _, seen := locks[kindKey{e.recv, false}]; !seen {
				locks[kindKey{e.recv, false}] = e
			}
		case "RLock":
			if _, seen := locks[kindKey{e.recv, true}]; !seen {
				locks[kindKey{e.recv, true}] = e
			}
		case "Unlock":
			unlocks[kindKey{e.recv, false}] = true
		case "RUnlock":
			unlocks[kindKey{e.recv, true}] = true
		}
	}
	keys := make([]kindKey, 0, len(locks))
	for k := range locks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].recv != keys[j].recv {
			return keys[i].recv < keys[j].recv
		}
		return !keys[i].r
	})
	for _, k := range keys {
		if !unlocks[k] {
			e := locks[k]
			report(e.pos, "HV001", "error",
				"%s.%s() in %s has no matching %s in the same function (lock hand-off must stay within one function)",
				e.recv, e.method, fn.Name.Name, unlockOf(e.method))
		}
	}

	// HV003: a return between a Lock and its nearest following
	// non-deferred Unlock exits with the mutex held.
	for i, e := range events {
		if e.deferred || (e.method != "Lock" && e.method != "RLock") {
			continue
		}
		want := unlockOf(e.method)
		for j := i + 1; j < len(events); j++ {
			u := events[j]
			if u.recv != e.recv || u.method != want {
				continue
			}
			if u.deferred {
				break // released at exit: early returns are safe
			}
			for _, r := range returns {
				if r > e.pos && r < u.pos {
					report(r, "HV003", "warning",
						"return between %s.%s() and its %s() leaks the lock on this path",
						e.recv, e.method, want)
				}
			}
			break
		}
	}
	return out
}

func unlockOf(method string) string {
	if method == "RLock" {
		return "RUnlock"
	}
	return "Unlock"
}

// renderExpr prints a selector/identifier chain ("c.mu",
// "t.cache.mu"); anything unprintable collapses to "?" so matching
// stays conservative.
func renderExpr(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return renderExpr(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return renderExpr(e.X)
	case *ast.IndexExpr:
		return renderExpr(e.X) + "[...]"
	case *ast.CallExpr:
		return renderExpr(e.Fun) + "()"
	case *ast.StarExpr:
		return renderExpr(e.X)
	default:
		return "?"
	}
}
