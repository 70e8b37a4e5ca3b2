package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
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
	"internal/merge.Graphs":            "literal Algorithm 1: merge_test's TestFrontHalfMatchesPairwiseFold and deploy's footprint oracle hold the one-pass front half to it",
	"internal/analyzer.MetadataFields": "field-set twin of EdgeMetadataBytes: deploy's footprint oracle compares the fields it names against its set reference",
	"internal/fields.Set.Union":        "deploy's footprint oracle builds its set reference of delivered metadata with it",
	"internal/fields.Set.Overlaps":     "deploy's footprint oracle classifies its reference dependencies with it",
	"internal/fields.Set.TotalBytes":   "deploy's footprint oracle sizes its reference edges and headers with it",
}

// publicAPIAllowlist names the methods of facade-aliased types HV013
// keeps although no non-test file calls them, each with its reason. An
// entry is legal only for a method a user of the hermes facade
// plausibly needs; an entry that names no declaration, whose receiver
// the facade does not alias, or whose target has gained a non-test
// caller is itself a finding.
var publicAPIAllowlist = map[string]string{
	"internal/tdg.Graph.Edges":                    "the TDG's one (From, To)-sorted edge listing, for a facade user printing or diffing a graph; the reference twins of merge, tdg and deploy rebuild their graphs in its order",
	"internal/tdg.Graph.AddEdge":                  "name-checked twin of AppendEdge: a facade user building a TDG by hand names its MATs, and the hand-built fixtures of ten packages do",
	"internal/tdg.Graph.Clone":                    "an independent copy a facade user can edit (AddEdge) without touching the graph a plan or deployment holds; the tests of seven packages mutate copies made with it",
	"internal/tdg.Graph.Edge":                     "the by-name edge lookup for a facade user reading a TDG (AddEdge's inverse); the tests of five packages look edges up with it",
	"internal/network.Schedule.Format":            "writes the text form hermes.ParseFaultSchedule reads back: a facade user saves a generated fault schedule with it to replay it later",
	"internal/network.TrafficMatrix.Format":       "writes the file `hermes -traffic FILE` and hermes.ParseTraffic read: a facade user saves a generated matrix with it",
	"internal/program.Builder.Rule":               "installs a rule in the MAT being built: a facade user's hand-built program gets table entries only through it",
	"internal/deploy/rollout.ServingView.EpochOf": "answers the question the view documents, which epoch serves a program, for a facade user watching a rollout from its Hook",
}

// surfaceDecl is one function or method HV013 checks.
type surfaceDecl struct {
	key  string // path.Func or path.Type.Method, path the package's path in the module
	fn   *types.Func
	recv *types.TypeName // the receiver's type for a method; nil for a function
}

// lintDeadSurface applies HV013 over the typed index: a function or
// method declared in a non-test file that no non-test file references.
// Exported ones are checked in internal packages, unexported ones in
// every package but benchmark/; the testOnlyPackages are exempt. A
// reference is a use go/types resolves to the declaration itself (a
// method of a generic type through any instantiation); a method that
// implements a method of an interface the program declares or loads,
// or that fmt or encoding/json look for, may be called through it and
// counts as referenced. Only the allowlisted entries are kept without
// a caller, so a method of a type the facade aliases (type X = pkg.T in
// a library package outside internal/) needs a caller or a
// publicAPIAllowlist reason.
func lintDeadSurface(x *useIndex) []vetFinding {
	var decls []surfaceDecl
	facade := map[*types.TypeName]bool{} // the types the facade aliases
	linted := map[string]*ast.File{}     // package path in the module -> its first non-test file
	typeDecls := map[string]bool{}       // path.Type of every type a linted package declares
	for _, pkg := range x.pkgs {
		dir := internalPackage(pkg.dir)
		if dir == "" && pkg.types.Name() != "main" {
			scope := pkg.types.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
					if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
						facade[named.Obj()] = true
					}
				}
			}
		}
		if slices.Contains(testOnlyPackages, dir) || strings.Contains("/"+pkg.dir+"/", "/benchmark/") {
			continue
		}
		linted[modPath(pkg.types)] = pkg.files[0]
		scope := pkg.types.Scope()
		for _, name := range scope.Names() {
			if _, ok := scope.Lookup(name).(*types.TypeName); ok {
				typeDecls[key(pkg.types, name)] = true
			}
		}
		for _, file := range pkg.files {
			for _, d := range file.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				name := fn.Name.Name
				if fn.Name.IsExported() && dir == "" || fn.Recv == nil && (name == "init" || name == "main" || name == "_") {
					continue
				}
				obj, ok := pkg.info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				sd := surfaceDecl{key: key(pkg.types, name), fn: obj}
				if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
					named, ok := receiverType(recv.Type())
					if !ok {
						continue
					}
					sd.recv = named.Obj()
					sd.key = key(pkg.types, sd.recv.Name(), name)
				}
				decls = append(decls, sd)
			}
		}
	}

	var out []vetFinding
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, vetFinding{pos: x.fset.Position(pos), rule: "HV013", sev: "error", msg: fmt.Sprintf(format, args...)})
	}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		referenced := x.used(d.fn)
		if !referenced && d.recv != nil && x.implements(d.recv.Type(), d.fn.Name()) {
			continue
		}
		list := allowlistOf(d.key)
		switch {
		case list == "publicAPIAllowlist" && !facade[d.recv]:
			report(d.fn.Pos(), "publicAPIAllowlist entry %s is a method of a type the facade does not alias: drop the entry", d.key)
		case list != "" && referenced:
			report(d.fn.Pos(), "%s entry %s has a non-test caller now: drop the entry", list, d.key)
		case list != "" || referenced: // kept
		case !d.fn.Exported():
			report(d.fn.Pos(), "unexported %s is referenced by no non-test file: delete it or move it into the tests that use it", d.key)
		case facade[d.recv]:
			report(d.fn.Pos(), "exported %s, a method of a facade-aliased type, is referenced by no non-test file: give it a caller, delete it, or allowlist it in publicAPIAllowlist with the reason a facade user needs it", d.key)
		default:
			report(d.fn.Pos(), "exported %s is referenced by no non-test file: delete it, move it into the tests that use it, or allowlist it as a reference twin with a reason", d.key)
		}
	}
	// An entry naming nothing in its linted package has gone stale. A
	// method's entry is checked only where the file set declares its
	// receiver type, so a fixture declaring a package need not declare
	// every allowlisted method of the package's other types.
	var stale []string
	for _, list := range []map[string]string{deadSurfaceAllowlist, publicAPIAllowlist} {
		for k := range list {
			_, ok := linted[entryPackage(k)]
			if recv, method := entryReceiver(k); method {
				ok = typeDecls[recv]
			}
			if ok && !declared[k] {
				stale = append(stale, k)
			}
		}
	}
	sort.Strings(stale)
	for _, k := range stale {
		report(linted[entryPackage(k)].Name.Pos(), "%s entry %s names no declaration: drop the entry", allowlistOf(k), k)
	}
	return out
}

// receiverType returns the named type of a method receiver, T for T
// and *T.
func receiverType(t types.Type) (*types.Named, bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	return named, ok
}

// entryPackage returns the package an allowlist key names: its text up
// to the first dot after the last slash.
func entryPackage(key string) string {
	slash := strings.LastIndex(key, "/") + 1
	dot := strings.Index(key[slash:], ".")
	if dot < 0 {
		return key
	}
	return key[:slash+dot]
}

// entryReceiver returns the receiver type an allowlist key of a method
// names, as path.Type, and whether the key names a method at all.
func entryReceiver(key string) (string, bool) {
	pkg := entryPackage(key)
	name, ok := strings.CutPrefix(key, pkg+".")
	if !ok {
		return "", false
	}
	recv, _, method := strings.Cut(name, ".")
	return pkg + "." + recv, method
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
