package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// deadSurfaceAllowlist names the exported functions and methods HV013
// keeps although only tests call them, each with its reason. An entry
// is legal only for a reference twin that a test in another package
// compares the production path against; an entry that names no
// declaration, or whose target has gained a non-test caller, is itself
// a finding.
var deadSurfaceAllowlist = map[string]string{
	"merge.Graphs":            "literal Algorithm 1: merge_test's TestFrontHalfMatchesPairwiseFold and deploy's footprint oracle hold the one-pass front half to it",
	"analyzer.MetadataFields": "field-set twin of EdgeMetadataBytes: deploy's footprint oracle compares the fields it names against its set reference",
	"fields.Set.Union":        "deploy's footprint oracle builds its set reference of delivered metadata with it",
	"fields.Set.Overlaps":     "deploy's footprint oracle classifies its reference dependencies with it",
	"fields.Set.TotalBytes":   "deploy's footprint oracle sizes its reference edges and headers with it",
}

// publicAPIAllowlist names the methods of facade-aliased types HV013
// keeps although no non-test file calls them, each with its reason. An
// entry is legal only for a method a user of the hermes facade
// plausibly needs; an entry that names no declaration, whose receiver
// the facade does not alias, or whose target has gained a non-test
// caller is itself a finding.
var publicAPIAllowlist = map[string]string{
	"tdg.Graph.Edges":             "the TDG's one (From, To)-sorted edge listing, for a facade user printing or diffing a graph; the reference twins of merge, tdg and deploy rebuild their graphs in its order",
	"tdg.Graph.AddEdge":           "name-checked twin of AppendEdge: a facade user building a TDG by hand names its MATs, and the hand-built fixtures of ten packages do",
	"tdg.Graph.Edge":              "the by-name edge lookup for a facade user reading a TDG (AddEdge's inverse); the tests of five packages look edges up with it",
	"rollout.ServingView.EpochOf": "answers the question the view documents, which epoch serves a program, for a facade user watching a rollout from its Hook",
}

// implicitMethods are the methods of the standard interfaces the tree
// implements (fmt.Stringer, error, json.Marshaler, sort.Interface): the
// standard library calls them through the interface, so no selector
// names them.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "Len": true, "Less": true, "Swap": true,
}

// surfaceDecl is one function or method HV013 checks.
type surfaceDecl struct {
	key  string // pkg.Func or pkg.Type.Method; dir.func or dir.Type.method when unexported
	recv string // pkg.Type for a method; "" for a function
	name string
	dir  string // the package's directory, internal/pkg
	pos  token.Pos
}

// lintDeadSurface applies HV013 across the file set: a function or
// method declared in a non-test file that no non-test file references.
// Exported ones are checked in internal packages, unexported ones in
// every package but benchmark/; the testOnlyPackages are exempt. An
// exported function is referenced by its bare name inside its own
// package (its declaration aside) or as pkg.Name anywhere, an
// unexported one by its bare name inside its own directory; a method by
// any selector .Name. Like HV011, it names packages by their package
// clause, but an allowlist entry belongs to the internal directory its
// clause names (tdg.X to internal/tdg, rollout.X to
// internal/deploy/rollout): a package elsewhere with the same clause
// neither declares nor stales it. Only the implicitMethods and the allowlisted entries are kept
// without a caller, so a method of a type the facade aliases (type X =
// pkg.T in a library package outside internal/) needs a caller or a
// publicAPIAllowlist reason.
func lintDeadSurface(fset *token.FileSet, files []*ast.File, paths []string) []vetFinding {
	var decls []surfaceDecl
	firstFile := map[string]int{} // package directory -> its first non-test file
	facade := map[string]bool{}   // pkg.Type the facade aliases
	used := map[string]bool{}     // pkg.Name referenced, bare or qualified
	local := map[string]bool{}    // dir.name referenced bare
	selected := map[string]bool{} // names used as a selector
	for i, file := range files {
		path := filepath.ToSlash(paths[i])
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		rel := filepath.ToSlash(filepath.Dir(path))
		dir := internalPackage(rel)
		pkg := file.Name.Name
		scope := rel // names an unexported declaration
		if rel == "." {
			scope = pkg
		}
		imports := importNames(file)
		if dir == "" && pkg != "main" {
			for _, target := range typeAliases(file, imports) {
				facade[target] = true
			}
		}
		declared := map[token.Pos]bool{}
		exempt := slices.Contains(testOnlyPackages, dir) || strings.Contains("/"+rel+"/", "/benchmark/")
		if dir != "" && !exempt {
			if _, ok := firstFile[dir]; !ok {
				firstFile[dir] = i
			}
		}
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || exempt {
				continue
			}
			declared[fn.Name.Pos()] = true
			name := fn.Name.Name
			if fn.Name.IsExported() && dir == "" || fn.Recv == nil && (name == "init" || name == "main" || name == "_") {
				continue
			}
			prefix := pkg
			if !fn.Name.IsExported() {
				prefix = scope
			}
			sd := surfaceDecl{key: prefix + "." + name, name: name, dir: dir, pos: fn.Name.Pos()}
			if fn.Recv != nil {
				sd.recv = pkg + "." + receiverName(fn.Recv.List[0].Type)
				sd.key = prefix + "." + receiverName(fn.Recv.List[0].Type) + "." + name
			}
			decls = append(decls, sd)
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				selected[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					used[imports[x.Name]+"."+n.Sel.Name] = true
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if !declared[n.Pos()] {
					used[pkg+"."+n.Name] = true
					local[scope+"."+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(file, visit)
	}

	var out []vetFinding
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, vetFinding{pos: fset.Position(pos), rule: "HV013", sev: "error", msg: fmt.Sprintf(format, args...)})
	}
	declaredKeys := map[string]bool{} // dir + " " + key
	for _, d := range decls {
		declaredKeys[d.dir+" "+d.key] = true
		if d.recv != "" && implicitMethods[d.name] {
			continue
		}
		var referenced bool
		switch {
		case d.recv != "":
			referenced = selected[d.name]
		case ast.IsExported(d.name):
			referenced = used[d.key]
		default:
			referenced = local[d.key]
		}
		list := allowlistOf(d.key)
		switch {
		case list == "publicAPIAllowlist" && !facade[d.recv]:
			report(d.pos, "publicAPIAllowlist entry %s is a method of a type the facade does not alias: drop the entry", d.key)
		case list != "" && referenced:
			report(d.pos, "%s entry %s has a non-test caller now: drop the entry", list, d.key)
		case list != "" || referenced: // kept
		case !ast.IsExported(d.name):
			report(d.pos, "unexported %s is referenced by no non-test file: delete it or move it into the tests that use it", d.key)
		case facade[d.recv]:
			report(d.pos, "exported %s, a method of a facade-aliased type, is referenced by no non-test file: give it a caller, delete it, or allowlist it in publicAPIAllowlist with the reason a facade user needs it", d.key)
		default:
			report(d.pos, "exported %s is referenced by no non-test file: delete it, move it into the tests that use it, or allowlist it as a reference twin with a reason", d.key)
		}
	}
	// An entry naming nothing in its linted package has gone stale.
	type staleEntry struct{ dir, key string }
	var stale []staleEntry
	for dir, i := range firstFile {
		pkg := files[i].Name.Name
		if path.Base(dir) != pkg {
			continue
		}
		for _, list := range []map[string]string{deadSurfaceAllowlist, publicAPIAllowlist} {
			for key := range list {
				if strings.HasPrefix(key, pkg+".") && !declaredKeys[dir+" "+key] {
					stale = append(stale, staleEntry{dir, key})
				}
			}
		}
	}
	sort.Slice(stale, func(i, j int) bool {
		return stale[i].key < stale[j].key || stale[i].key == stale[j].key && stale[i].dir < stale[j].dir
	})
	for _, e := range stale {
		report(files[firstFile[e.dir]].Name.Pos(), "%s entry %s names no declaration: drop the entry", allowlistOf(e.key), e.key)
	}
	return out
}

// allowlistOf names the allowlist holding key, or returns "".
func allowlistOf(key string) string {
	if _, ok := deadSurfaceAllowlist[key]; ok {
		return "deadSurfaceAllowlist"
	}
	if _, ok := publicAPIAllowlist[key]; ok {
		return "publicAPIAllowlist"
	}
	return ""
}

// receiverName returns the type name of a method receiver: T for T,
// *T, T[P] and *T[P].
func receiverName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverName(e.X)
	case *ast.IndexExpr:
		return receiverName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}
