package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"strings"
)

// fieldDecl is one unexported struct field HV014 checks.
type fieldDecl struct {
	key  string // dir.Type.field
	read string // dir.field: what a read of it is recorded as
	pos  token.Pos
}

// lintWriteOnlyFields applies HV014 across the file set: an unexported
// field of a named struct type, declared in a non-test file outside
// benchmark/, that no non-test file of its package (its directory)
// reads. A read is any selector .field that is not itself the target
// of an assignment or an increment: x.f on the right of an assignment,
// as an argument, under & or an index, or as the receiver of a method
// value (x.f.M) all count. Composite-literal keys are not selectors, so
// a field that is only ever set by T{f: v} or x.f = v is write-only.
// Matching is by field name within the package, so a read of any
// field or method of the same name keeps the field: the rule may miss a
// write-only field, never flag a read one.
func lintWriteOnlyFields(fset *token.FileSet, files []*ast.File, paths []string) []vetFinding {
	var decls []fieldDecl
	read := map[string]bool{}
	for i, file := range files {
		path := filepath.ToSlash(paths[i])
		if strings.HasSuffix(path, "_test.go") || strings.Contains("/"+path, "/benchmark/") {
			continue
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		written := map[*ast.SelectorExpr]bool{}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, f := range st.Fields.List {
					for _, name := range f.Names {
						if !name.IsExported() && name.Name != "_" {
							decls = append(decls, fieldDecl{
								key:  dir + "." + n.Name.Name + "." + name.Name,
								read: dir + "." + name.Name,
								pos:  name.Pos(),
							})
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
						written[sel] = true
					}
				}
			case *ast.IncDecStmt:
				if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
					written[sel] = true
				}
			}
			return true
		})
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && !written[sel] {
				read[dir+"."+sel.Sel.Name] = true
			}
			return true
		})
	}

	var out []vetFinding
	for _, d := range decls {
		if !read[d.read] {
			out = append(out, vetFinding{
				pos: fset.Position(d.pos), rule: "HV014", sev: "error",
				msg: fmt.Sprintf("field %s is written but never read by a non-test file of its package: delete it", d.key),
			})
		}
	}
	return out
}
