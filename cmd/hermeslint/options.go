package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"
)

// solverStructs are the option-carrying types whose names do not end in
// "Options": the placement solvers' configuration fields.
var solverStructs = map[string]bool{"Greedy": true, "ShardedGreedy": true, "Exact": true}

// unsetOptionAllowlist names the option fields HV011 keeps although no
// production code sets them, each with its reason.
var unsetOptionAllowlist = map[string]string{
	"hermes.DeployOptions.Ctx":        "facade input: library callers cancel a deploy through it",
	"hermes.DeployOptions.Prior":      "facade input: library callers roll out from a serving deployment",
	"placement.RouteOptions.K":        "OptimizeRoutes's public contract",
	"placement.RouteOptions.Stretch":  "OptimizeRoutes's public contract",
	"supervisor.MonitorOptions.Probe": "seam that lets tests substitute a fake health probe",
	"supervisor.Options.RolloutHook":  "seam that lets tests substitute a fake rollout step",
}

// optionField is one declared option field.
type optionField struct {
	key  string // pkg.Type.Field
	path string // declaring file
	pos  token.Pos
}

// lintUnsetOptions applies HV011 across the file set: an exported field
// of an exported *Options struct (or of a solver struct) that no
// non-test, non-example file outside the declaring file sets — by a
// keyed composite literal, a selector assignment or a taken address —
// is a knob nobody turns. Matching is syntactic: a literal of a named
// type (resolving `type A = pkg.B` aliases) sets pkg.Type.Field, while
// a literal with an elided type, an assignment x.F = … and &x.F set
// every field named F, which keeps false positives out at the price of
// the odd missed finding.
func lintUnsetOptions(fset *token.FileSet, files []*ast.File, paths []string) []vetFinding {
	var decls []optionField
	aliases := map[string]string{}
	typed := map[string][]string{}  // pkg.Type.Field -> setting files
	byName := map[string][]string{} // Field -> setting files
	for i, file := range files {
		path := filepath.ToSlash(paths[i])
		test := strings.HasSuffix(path, "_test.go")
		imports := importNames(file)
		pkg := file.Name.Name
		if !test {
			decls = append(decls, optionDecls(file, path, imports, aliases)...)
		}
		if test || isExample(path) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				typ := literalType(n.Type, pkg, imports)
				for _, el := range n.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok {
						continue
					}
					if typ == "" {
						byName[key.Name] = append(byName[key.Name], path)
					} else {
						k := typ + "." + key.Name
						typed[k] = append(typed[k], path)
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						byName[sel.Sel.Name] = append(byName[sel.Sel.Name], path)
					}
				}
			case *ast.UnaryExpr:
				if sel, ok := n.X.(*ast.SelectorExpr); ok && n.Op == token.AND {
					byName[sel.Sel.Name] = append(byName[sel.Sel.Name], path)
				}
			}
			return true
		})
	}
	// Resolve setters written through an alias to the aliased type.
	for k, ps := range typed {
		dot := strings.LastIndex(k, ".")
		if target, ok := aliases[k[:dot]]; ok {
			typed[target+k[dot:]] = append(typed[target+k[dot:]], ps...)
		}
	}

	setElsewhere := func(ps []string, decl string) bool {
		for _, p := range ps {
			if p != decl {
				return true
			}
		}
		return false
	}
	var out []vetFinding
	for _, d := range decls {
		if _, ok := unsetOptionAllowlist[d.key]; ok {
			continue
		}
		field := d.key[strings.LastIndex(d.key, ".")+1:]
		if setElsewhere(typed[d.key], d.path) || setElsewhere(byName[field], d.path) {
			continue
		}
		out = append(out, vetFinding{
			pos: fset.Position(d.pos), rule: "HV011", sev: "error",
			msg: fmt.Sprintf("option field %s is set by no non-test, non-example code: delete it with the code path it selects, or allowlist it with a reason", d.key),
		})
	}
	return out
}

// optionDecls returns the exported fields of the file's exported option
// structs, and records its `type A = pkg.B` aliases into aliases.
func optionDecls(file *ast.File, path string, imports map[string]string, aliases map[string]string) []optionField {
	// A test-only package (HV010) has its options set from tests by
	// construction.
	for _, dir := range testOnlyPackages {
		if strings.Contains(path, dir+"/") {
			return nil
		}
	}
	pkg := file.Name.Name
	var out []optionField
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts := spec.(*ast.TypeSpec)
			if ts.Assign.IsValid() {
				if target := literalType(ts.Type, pkg, imports); target != "" {
					aliases[pkg+"."+ts.Name.Name] = target
				}
				continue
			}
			name := ts.Name.Name
			st, ok := ts.Type.(*ast.StructType)
			if !ok || !ast.IsExported(name) || !strings.HasSuffix(name, "Options") && !solverStructs[name] {
				continue
			}
			for _, f := range st.Fields.List {
				names := f.Names
				if len(names) == 0 { // embedded: the field is named after its type
					if id := embeddedName(f.Type); id != nil {
						names = []*ast.Ident{id}
					}
				}
				for _, id := range names {
					if id.IsExported() {
						out = append(out, optionField{key: pkg + "." + name + "." + id.Name, path: path, pos: id.Pos()})
					}
				}
			}
		}
	}
	return out
}

// embeddedName returns the identifier an embedded field is named by.
func embeddedName(e ast.Expr) *ast.Ident {
	switch e := e.(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	case *ast.StarExpr:
		return embeddedName(e.X)
	}
	return nil
}

// literalType renders a composite literal's named type as pkg.Type — T
// resolves to the file's own package, p.T through the file's imports —
// or "" when the type is elided or not a plain name.
func literalType(e ast.Expr, pkg string, imports map[string]string) string {
	switch e := e.(type) {
	case *ast.Ident:
		return pkg + "." + e.Name
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok {
			if name, ok := imports[x.Name]; ok {
				return name + "." + e.Sel.Name
			}
		}
	}
	return ""
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

// isExample reports whether a file belongs to the runnable examples,
// which demonstrate options rather than choose them.
func isExample(path string) bool {
	return strings.HasPrefix(path, "examples/") || strings.Contains(path, "/examples/")
}
