package main

import (
	"fmt"
	"go/ast"
	"go/token"
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

// implicitMethods are the methods of the standard interfaces the tree
// implements (fmt.Stringer, error, json.Marshaler, sort.Interface): the
// standard library calls them through the interface, so no selector
// names them.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "Len": true, "Less": true, "Swap": true,
}

// surfaceDecl is one exported function or method of an internal package.
type surfaceDecl struct {
	key  string // pkg.Func or pkg.Type.Method
	recv string // pkg.Type for a method; "" for a function
	name string
	pos  token.Pos
}

// lintDeadSurface applies HV013 across the file set: an exported
// function or method declared in a non-test file of an internal package
// that no non-test file references. A function is referenced by its
// bare name inside its own package (its declaration aside) or as
// pkg.Name anywhere; a method by any selector .Name. Like HV011, it
// names packages by their package clause. Methods of types the facade
// aliases (type X = pkg.T in a library package outside internal/) are
// public API; they, the implicitMethods and the testOnlyPackages are
// exempt.
func lintDeadSurface(fset *token.FileSet, files []*ast.File, paths []string) []vetFinding {
	var decls []surfaceDecl
	firstFile := map[string]int{} // package -> its first non-test file
	facade := map[string]bool{}   // pkg.Type the facade aliases
	used := map[string]bool{}     // pkg.Name referenced, bare or qualified
	selected := map[string]bool{} // names used as a selector
	for i, file := range files {
		path := filepath.ToSlash(paths[i])
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		dir := internalPackage(filepath.ToSlash(filepath.Dir(path)))
		pkg := file.Name.Name
		imports := importNames(file)
		if dir == "" && pkg != "main" {
			for _, target := range typeAliases(file, imports) {
				facade[target] = true
			}
		}
		declared := map[token.Pos]bool{}
		if dir != "" && !slices.Contains(testOnlyPackages, dir) {
			if _, ok := firstFile[pkg]; !ok {
				firstFile[pkg] = i
			}
			for _, d := range file.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				declared[fn.Name.Pos()] = true
				if !fn.Name.IsExported() {
					continue
				}
				sd := surfaceDecl{key: pkg + "." + fn.Name.Name, name: fn.Name.Name, pos: fn.Name.Pos()}
				if fn.Recv != nil {
					sd.recv = pkg + "." + receiverName(fn.Recv.List[0].Type)
					sd.key = sd.recv + "." + sd.name
				}
				decls = append(decls, sd)
			}
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
	declaredKeys := map[string]bool{}
	for _, d := range decls {
		declaredKeys[d.key] = true
		if d.recv != "" && (implicitMethods[d.name] || facade[d.recv]) {
			continue
		}
		referenced := used[d.key]
		if d.recv != "" {
			referenced = selected[d.name]
		}
		_, allowed := deadSurfaceAllowlist[d.key]
		switch {
		case allowed && referenced:
			report(d.pos, "deadSurfaceAllowlist entry %s has a non-test caller now: drop the entry", d.key)
		case !allowed && !referenced:
			report(d.pos, "exported %s is referenced by no non-test file: delete it, move it into the tests that use it, or allowlist it as a reference twin with a reason", d.key)
		}
	}
	// An entry naming nothing in a linted package has gone stale.
	var stale []string
	for key := range deadSurfaceAllowlist {
		if _, ok := firstFile[key[:strings.Index(key, ".")]]; ok && !declaredKeys[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		report(files[firstFile[key[:strings.Index(key, ".")]]].Name.Pos(), "deadSurfaceAllowlist entry %s names no declaration: drop the entry", key)
	}
	return out
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
