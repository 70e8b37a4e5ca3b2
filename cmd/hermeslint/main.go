// Command hermeslint is a repo-specific vet pass. Its per-file rules
// police the concurrency conventions introduced with the parallel
// placement engine (the path-oracle caches guard shared maps with
// sync.(RW)Mutex, and the Plan/Graph/Topology types expose Clone() for
// safe cross-goroutine hand-off), the //hermes:hot loops and the
// rollout and test-only boundaries, failure modes `go vet` does not
// catch; its cross-file rules find surface nothing uses:
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
//	       (Subgraph, Edges, OutEdges, InEdges, NodeNames), a
//	       graph lookup by MAT name (Node, Edge, OutEdgeList,
//	       InEdgeList, ID) or a plan's (SwitchOf), lint's
//	       test-side
//	       name-keyed footprint reference (rawSets) or
//	       name-keyed stage packing
//	       (FitsSwitch, PackStages, packShared and the test-side
//	       reference packOrderedRef) — or a packet-engine
//	       compile (NewEngine, NewPipeline, NewReferenceEngine)
//	       inside a loop tagged //hermes:hot, or there a read
//	       of placement.Plan.Assignments by index or range in
//	       a non-test file (resolved with go/types): hot loops
//	       must use the compiled and position-space kernels on
//	       node ids and build engines once                    error
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
//	HV009  a hook seam: a func init() that assigns to a
//	       selector of an imported package (pkg.Hook = ...),
//	       or an exported package-level variable of func
//	       type declared in a non-test file, which any
//	       importer can reassign from anywhere. Either makes
//	       a package behave differently depending on which
//	       packages the binary links; call the code
//	       directly                                          error
//	HV010  a non-test .go file imports a test-only package
//	       (internal/milp, Exact's differential oracle): it
//	       must stay out of every production binary          error
//	HV011  an exported field of an exported *Options struct
//	       (or of Greedy, ShardedGreedy, Exact) that no
//	       non-test, non-example file outside the declaring
//	       file sets (a keyed literal, an assignment or
//	       increment, or a taken address of that very
//	       field): a knob nobody turns is a code path the
//	       benchmark never runs. Delete it, or allowlist it
//	       with a reason (facade inputs, test seams)         error
//	HV012  an internal/... package that no non-test file
//	       outside the package imports: dead code every
//	       build still compiles and vets. Delete it
//	       (testOnlyPackages, imported from tests by
//	       design, are exempt)                              error
//	HV013  a function or method declared in a non-test file
//	       that no non-test file references — exported ones
//	       in internal/... packages, unexported ones in every
//	       package but benchmark/: surface only tests call.
//	       Delete it, or move it into the tests that use it.
//	       A method implementing a method of an interface the
//	       program declares or loads counts as referenced; a
//	       method of a type the root facade aliases may be
//	       allowlisted with the reason a facade user needs
//	       it, a reference twin that a test in another
//	       package compares against with its reason, and a
//	       stale entry is itself a finding (entries are keyed
//	       by the package's path in the module)             error
//	HV014  an unexported field of a named struct type,
//	       declared in a non-test file outside benchmark/,
//	       that no non-test file reads: every use of it is an
//	       assignment or increment target or a composite-
//	       literal key. A field only written is state
//	       nothing consults: delete it                       error
//
// It is deliberately x/tools-free so it builds in hermetic
// environments with no module cache. HV001–HV010 are a plain go/ast
// walk that matches syntax (by selector chain text, e.g. "c.mu"),
// which is exactly right for the conventions they police; HV005's plan
// reads are the exception. HV012 reads import clauses. HV005's plan
// reads, HV011, HV013 and HV014 query one typed use index
// (index.go): each directory's non-test files are type-checked with
// go/types, imports of this module resolving to packages of the same
// file set and the standard library read from compiler export data
// through go/importer from the files one `go list -deps -export` run
// names, so a name refers to the one declaration it resolves to and
// never to a same-named other.
//
// Usage: hermeslint [dir ...]   (default "."; directories are named
// from the module root, where imports of the module resolve)
// Exit status 1 iff any error-severity finding is reported.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
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

	srcs := make([]source, len(files))
	for i, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hermeslint:", err)
			os.Exit(2)
		}
		srcs[i] = source{path, string(src)}
	}
	all, err := lintSources(srcs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hermeslint:", err)
		os.Exit(2)
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

// source is one Go file: its path and contents.
type source struct{ path, src string }

// lintSources parses every file, runs the per-file rules over each and
// the cross-file rules HV011–HV014 over the whole set: HV012 over the
// import clauses, the other three, and HV005's plan reads, over one
// typed use index.
func lintSources(srcs []source) ([]vetFinding, error) {
	fset := token.NewFileSet()
	files := make([]*ast.File, len(srcs))
	paths := make([]string, len(srcs))
	var out []vetFinding
	for i, s := range srcs {
		file, err := parser.ParseFile(fset, s.path, s.src, parser.SkipObjectResolution|parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files[i], paths[i] = file, s.path
		out = append(out, lintFile(fset, file, s.path)...)
	}
	index, err := buildIndex(fset, files, paths)
	if err != nil {
		return nil, err
	}
	out = append(out, lintHotPlanReads(index)...)
	out = append(out, lintUnsetOptions(index)...)
	out = append(out, lintUnimported(fset, files, paths)...)
	out = append(out, lintWriteOnlyFields(index)...)
	return append(out, lintDeadSurface(index)...), nil
}

// lintFile runs the per-file rules over one parsed file.
func lintFile(fset *token.FileSet, file *ast.File, path string) []vetFinding {
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
	out = append(out, lintHookSeams(fset, file, path)...)
	return append(out, lintTestOnlyImports(fset, file, path)...)
}

// testOnlyPackages are the import paths (module-relative) that only
// _test.go files may import.
var testOnlyPackages = []string{"internal/milp", "internal/racetest"}

// lintTestOnlyImports applies HV010: a non-test file importing a
// test-only package links that package into production binaries.
func lintTestOnlyImports(fset *token.FileSet, file *ast.File, path string) []vetFinding {
	if strings.HasSuffix(path, "_test.go") {
		return nil
	}
	var out []vetFinding
	for _, spec := range file.Imports {
		imp := strings.Trim(spec.Path.Value, `"`)
		for _, pkg := range testOnlyPackages {
			if imp == pkg || strings.HasSuffix(imp, "/"+pkg) {
				out = append(out, vetFinding{
					pos: fset.Position(spec.Pos()), rule: "HV010", sev: "error",
					msg: fmt.Sprintf("non-test file imports %s, a test-only package; import it from _test.go files only", imp),
				})
			}
		}
	}
	return out
}

// lintUnimported applies HV012 across the file set. A package is a
// directory, named by its path from the first "internal" element on;
// an import path is named the same way, so a module-qualified import
// matches the directory it resolves to. The finding sits on the
// package clause of the package's first non-test file.
func lintUnimported(fset *token.FileSet, files []*ast.File, paths []string) []vetFinding {
	first := map[string]int{} // internal package -> its first non-test file
	var pkgs []string
	for i, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		pkg := internalPackage(filepath.ToSlash(filepath.Dir(path)))
		if pkg == "" || slices.Contains(testOnlyPackages, pkg) {
			continue
		}
		if _, ok := first[pkg]; !ok {
			first[pkg] = i
			pkgs = append(pkgs, pkg)
		}
	}
	imported := map[string]bool{}
	for i, file := range files {
		if strings.HasSuffix(paths[i], "_test.go") {
			continue
		}
		self := internalPackage(filepath.ToSlash(filepath.Dir(paths[i])))
		for _, spec := range file.Imports {
			if pkg := internalPackage(strings.Trim(spec.Path.Value, `"`)); pkg != self {
				imported[pkg] = true
			}
		}
	}
	var out []vetFinding
	for _, pkg := range pkgs {
		if imported[pkg] {
			continue
		}
		out = append(out, vetFinding{
			pos: fset.Position(files[first[pkg]].Name.Pos()), rule: "HV012", sev: "error",
			msg: fmt.Sprintf("package %s is imported by no non-test file outside it: delete it, or list it in testOnlyPackages if tests are its only users", pkg),
		})
	}
	return out
}

// internalPackage returns a slash-separated path from its first
// "internal" element on, or "" when it has none.
func internalPackage(path string) string {
	if strings.HasPrefix(path, "internal/") {
		return path
	}
	if i := strings.Index(path, "/internal/"); i >= 0 {
		return path[i+1:]
	}
	return ""
}

// lintHookSeams applies HV009. In a non-test file, an exported
// package-level variable whose declared type is a func type, or whose
// initializer is a func literal, is a seam any importer can reassign.
// In any file, an assignment inside a top-level init() whose target is
// pkg.Name, pkg being one of the file's imports, arms such a seam in
// another package. Import names are the explicit alias or the path's
// last element.
func lintHookSeams(fset *token.FileSet, file *ast.File, path string) []vetFinding {
	var out []vetFinding
	if !strings.HasSuffix(path, "_test.go") {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, id := range vs.Names {
					if id.IsExported() && funcTyped(vs, i) {
						out = append(out, vetFinding{
							pos: fset.Position(id.Pos()), rule: "HV009", sev: "error",
							msg: fmt.Sprintf("exported package-level variable %s has func type: any importer can reassign it, a hook seam that changes this package's behaviour with the binary's link set; declare a func instead",
								id.Name),
						})
					}
				}
			}
		}
	}
	imported := importNames(file)
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
				if !ok {
					continue
				}
				if _, ok := imported[pkg.Name]; !ok {
					continue
				}
				out = append(out, vetFinding{
					pos: fset.Position(lhs.Pos()), rule: "HV009", sev: "error",
					msg: fmt.Sprintf("init() assigns %s: an init-time hook seam changes package %s's behaviour with the importing binary's link set; call the code directly instead",
						renderExpr(sel), pkg.Name),
				})
			}
			return true
		})
	}
	return out
}

// importNames maps each import's local name to the imported package's
// name, taken to be the path's last element.
func importNames(file *ast.File) map[string]string {
	out := map[string]string{}
	for _, spec := range file.Imports {
		path := strings.Trim(spec.Path.Value, `"`)
		name := path[strings.LastIndex(path, "/")+1:]
		local := name
		if spec.Name != nil {
			local = spec.Name.Name
		}
		out[local] = name
	}
	return out
}

// funcTyped reports whether the i-th name of a var spec is declared
// with a func type or initialized with a func literal.
func funcTyped(vs *ast.ValueSpec, i int) bool {
	if vs.Type != nil {
		_, ok := ast.Unparen(vs.Type).(*ast.FuncType)
		return ok
	}
	if i < len(vs.Values) {
		_, ok := vs.Values[i].(*ast.FuncLit)
		return ok
	}
	return false
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
// maps or hash names per call, the TDG lookups by MAT name (their id
// twins Endpoints, EdgeByID, OutEdgesOf, InEdgesOf and TopoIDs are
// free) and ID, the name → node-id resolution itself, the plan's host
// lookup by MAT name (SwitchOf; Plan.Hosts by node id is free), the TDG calls
// that materialize a graph, a name list or a sorted edge slice (the
// graph's Index holds the names in order), lint's test-side name-keyed
// footprint reference, the name-keyed stage packer and its test-side
// reference, and the packet engines' constructors (each
// compiles a whole deployment or sorts a whole graph: build the pair
// once per search, not per candidate packet), and the fields.Set
// surface of Algorithm 1 (each call builds field sets as maps). None of them belong inside a
// loop the author tagged //hermes:hot — that is what the compiled
// kernels (AssignmentAMax, MoveScore, PlaceScore, FillPairTable, ...),
// the position-space packing step (packStep behind splitScratch.fits
// and repairInstance.packs), and MAT footprints with
// analyzer.Delivered are for.
var hotBanned = map[string]bool{
	"PairBytes":          true,
	"PairBytesUncached":  true,
	"SwitchOf":           true,
	"PairBytesRef":       true,
	"AMax":               true,
	"TE2E":               true,
	"TotalCrossBytes":    true,
	"AssignmentAMaxRef":  true,
	"MoveScoreRef":       true,
	"PlaceScoreRef":      true,
	"assignmentAMax":     true,
	"assignmentLatency":  true,
	"assignmentAcyclic":  true,
	"Node":               true,
	"Edge":               true,
	"NodeNames":          true,
	"rawSets":            true,
	"OutEdgeList":        true,
	"InEdgeList":         true,
	"Subgraph":           true,
	"Edges":              true,
	"OutEdges":           true,
	"InEdges":            true,
	"ID":                 true,
	"FitsSwitch":         true,
	"PackStages":         true,
	"packShared":         true,
	"packOrderedRef":     true,
	"NewEngine":          true,
	"NewPipeline":        true,
	"NewReferenceEngine": true,
	"MetadataFields":     true,
	"EdgeMetadataBytes":  true,
	"NewSet":             true,
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
					msg: fmt.Sprintf("%s() is name-keyed (map-based scoring, graph materialization, a lookup by MAT name, stage packing, an engine compile or a field-set build) inside a //hermes:hot loop; use the compiled-instance, position-space, node-id or footprint kernel, or hoist the construction out of the loop", shown),
				})
			}
			return true
		})
		out = append(out, lintHotAllocs(fset, n, seen)...)
		return true
	})
	return out
}

// lintHotPlanReads applies HV005's typed half over the use index: in a
// non-test file, a read of placement.Plan's Assignments field by index
// or range inside a //hermes:hot loop hashes a MAT name per iteration,
// where the plan's by-id store (Placements, Hosts) answers by node id.
// The field is resolved with go/types, so a same-named field of another
// type is not flagged; an element write (the materializer filling the
// name view) is not a read.
func lintHotPlanReads(x *useIndex) []vetFinding {
	var field types.Object
	for _, pkg := range x.pkgs {
		if pkg.path != modulePath+"/internal/placement" {
			continue
		}
		if tn, ok := pkg.types.Scope().Lookup("Plan").(*types.TypeName); ok {
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := range st.NumFields() {
					if st.Field(i).Name() == "Assignments" {
						field = st.Field(i)
					}
				}
			}
		}
	}
	if field == nil {
		return nil
	}
	var out []vetFinding
	seen := map[token.Pos]bool{} // dedupe reads under nested tagged loops
	for _, pkg := range x.pkgs {
		for _, file := range pkg.files {
			cm := ast.NewCommentMap(x.fset, file, file.Comments)
			isField := func(e ast.Expr) bool {
				sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
				return ok && pkg.info.Uses[sel.Sel] == field
			}
			report := func(n ast.Node, how string) {
				if !seen[n.Pos()] {
					seen[n.Pos()] = true
					out = append(out, vetFinding{
						pos: x.fset.Position(n.Pos()), rule: "HV005", sev: "error",
						msg: fmt.Sprintf("%s %s hashes a MAT name per iteration inside a //hermes:hot loop; read the plan's by-id store (Placements, Hosts) by node id", how, renderExpr(n.(ast.Expr))),
					})
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.ForStmt, *ast.RangeStmt:
				default:
					return true
				}
				if !hasHotTag(cm[n]) {
					return true
				}
				written := map[ast.Expr]bool{}
				ast.Inspect(n, func(m ast.Node) bool {
					switch m := m.(type) {
					case *ast.AssignStmt:
						for _, lhs := range m.Lhs {
							written[ast.Unparen(lhs)] = true
						}
					case *ast.IndexExpr:
						if !written[m] && isField(m.X) {
							report(m, "indexing")
						}
					case *ast.RangeStmt:
						if isField(m.X) {
							report(m.X, "ranging over")
						}
					}
					return true
				})
				return true
			})
		}
	}
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
