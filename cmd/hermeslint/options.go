package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
)

// solverStructs are the option-carrying types whose names do not end in
// "Options": the placement solvers' configuration fields.
var solverStructs = map[string]bool{"Greedy": true, "ShardedGreedy": true, "Exact": true}

// unsetOptionAllowlist names the option fields HV011 keeps although no
// production code sets them, each with its reason.
var unsetOptionAllowlist = map[string]string{
	"hermes.DeployOptions.Ctx":                 "facade input: library callers cancel a deploy through it",
	"hermes.DeployOptions.Prior":               "facade input: library callers roll out from a serving deployment",
	"internal/placement.RouteOptions.K":        "OptimizeRoutes's public contract",
	"internal/placement.RouteOptions.Stretch":  "OptimizeRoutes's public contract",
	"internal/supervisor.MonitorOptions.Probe": "seam that lets tests substitute a fake health probe",
	"internal/supervisor.Options.RolloutHook":  "seam that lets tests substitute a fake rollout step",
}

// lintUnsetOptions applies HV011 over the typed index: an exported
// field of an exported *Options struct (or of a solver struct) that no
// non-test, non-example file outside the declaring file sets — by a
// keyed composite literal, an assignment or an increment, or a taken
// address — is a knob nobody turns. A setter is a use go/types resolves
// to the field itself, so a literal of an alias or with an elided type
// sets it and an assignment to another type's field of the same name
// does not. Inside the declaring package, a keyed element F: x.F that
// copies the same field only passes a value through and sets nothing;
// the same copy from another package is a setter (the facade choosing
// to forward its own input).
func lintUnsetOptions(x *useIndex) []vetFinding {
	var out []vetFinding
	for _, pkg := range x.pkgs {
		if slices.Contains(testOnlyPackages, internalPackage(pkg.dir)) {
			continue // a test-only package (HV010) has its options set from tests by construction
		}
		for _, file := range pkg.files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					name := ts.Name.Name
					if ts.Assign.IsValid() || !ast.IsExported(name) || !strings.HasSuffix(name, "Options") && !solverStructs[name] {
						continue
					}
					tn, ok := pkg.info.Defs[ts.Name].(*types.TypeName)
					if !ok {
						continue
					}
					st, ok := tn.Type().Underlying().(*types.Struct)
					if !ok {
						continue
					}
					for i := range st.NumFields() {
						f := st.Field(i)
						k := key(pkg.types, name, f.Name())
						if _, ok := unsetOptionAllowlist[k]; !f.Exported() || ok || x.setElsewhere(f) {
							continue
						}
						out = append(out, vetFinding{
							pos: x.fset.Position(f.Pos()), rule: "HV011", sev: "error",
							msg: fmt.Sprintf("option field %s is set by no non-test, non-example code: delete it with the code path it selects, or allowlist it with a reason", k),
						})
					}
				}
			}
		}
	}
	return out
}

// setElsewhere reports whether a non-test, non-example file other than
// the one declaring f sets it.
func (x *useIndex) setElsewhere(f *types.Var) bool {
	decl := filepath.ToSlash(x.fset.Position(f.Pos()).Filename)
	if u := x.uses[f]; u != nil {
		for _, p := range u.setters {
			if p != decl && !isExample(p) {
				return true
			}
		}
	}
	return false
}

// isExample reports whether a file belongs to the runnable examples,
// which demonstrate options rather than choose them.
func isExample(path string) bool {
	return strings.HasPrefix(path, "examples/") || strings.Contains(path, "/examples/")
}
