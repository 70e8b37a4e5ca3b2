package main

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// lintWriteOnlyFields applies HV014 over the typed index: an unexported
// field of a named struct type, declared in a non-test file outside
// benchmark/, that no non-test file reads. A read is any use of that
// field, resolved by go/types, that is not the target of an assignment
// or an increment nor the key of a composite literal: x.f on the right
// of an assignment, as an argument, under & or an index, or as the
// receiver of a method value (x.f.M) all count, and a read of another
// type's field of the same name does not. A field only ever set by
// T{f: v} or x.f = v is write-only.
func lintWriteOnlyFields(x *useIndex) []vetFinding {
	var out []vetFinding
	for _, pkg := range x.pkgs {
		if strings.Contains("/"+pkg.dir+"/", "/benchmark/") {
			continue
		}
		for _, file := range pkg.files {
			ast.Inspect(file, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || ts.Assign.IsValid() {
					return true
				}
				tn, ok := pkg.info.Defs[ts.Name].(*types.TypeName)
				if !ok {
					return true
				}
				st, ok := tn.Type().Underlying().(*types.Struct)
				if !ok {
					return true
				}
				for i := range st.NumFields() {
					f := st.Field(i)
					if f.Exported() || f.Embedded() || f.Name() == "_" || x.read(f) {
						continue
					}
					out = append(out, vetFinding{
						pos: x.fset.Position(f.Pos()), rule: "HV014", sev: "error",
						msg: fmt.Sprintf("field %s is written but never read by a non-test file of its package: delete it", key(pkg.types, tn.Name(), f.Name())),
					})
				}
				return true
			})
		}
	}
	return out
}
