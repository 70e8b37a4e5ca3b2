package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"sync"
)

// modulePath is the import path of the linted module: an import under
// it resolves to the directory of the file set it names.
const modulePath = "github.com/hermes-net/hermes"

// stdImporter reads standard-library packages from compiler export
// data, each package's file looked up in stdExports. Every lintSources
// call shares both, so a process lists and imports each standard
// package once; stdMu serializes their use.
var (
	stdMu       sync.Mutex
	stdExports  = map[string]string{} // import path -> export data file, "" if it has none
	stdImporter = importer.ForCompiler(token.NewFileSet(), "gc", func(p string) (io.ReadCloser, error) {
		if f := stdExports[p]; f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", p)
	})
)

// listExports fills stdExports for the import paths it lacks, with
// their dependencies, from one `go list -deps -export` run (the go
// command must be on PATH). A path go list cannot load gets no file,
// so importing it fails.
func listExports(paths []string) error {
	var missing []string
	for _, p := range paths {
		if _, ok := stdExports[p]; !ok && p != "unsafe" && !slices.Contains(missing, p) {
			missing = append(missing, p)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	cmd := exec.Command("go", append([]string{"list", "-e", "-deps", "-export", "-f", "{{.ImportPath}} {{.Export}}"}, missing...)...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go list -export: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		p, f, _ := strings.Cut(line, " ")
		stdExports[p] = f
	}
	for _, p := range missing {
		if _, ok := stdExports[p]; !ok {
			stdExports[p] = ""
		}
	}
	return nil
}

// dynamicPackages hold interfaces the standard library looks for on
// any value it is handed (fmt.Stringer, json.Marshaler, ...): a method
// implementing one of them is called without a selector naming it.
var dynamicPackages = []string{"fmt", "encoding/json"}

// typedPackage is one directory's non-test files, type-checked.
type typedPackage struct {
	path  string // import path
	dir   string // slash-separated directory, as the file set names it
	files []*ast.File
	names []string // each file's path
	types *types.Package
	info  *types.Info
}

// useSet is what the non-test files do with one object.
type useSet struct {
	read    bool     // called, read, passed, or its address taken
	setters []string // files that set it: an assignment, increment or literal key other than a pass-through copy, or an address taken
}

// useIndex is the typed index HV011, HV013, HV014 and HV005's plan
// reads query: the module's packages and, for each of their objects,
// its non-test uses. A use of a generic type's field or method is
// recorded on its uninstantiated declaration.
type useIndex struct {
	fset       *token.FileSet
	pkgs       []*typedPackage // in the order of their first file
	uses       map[types.Object]*useSet
	interfaces map[string][]*types.Interface // method name -> interfaces declaring it
	filed      map[*types.Interface]bool
}

// used reports whether a non-test file refers to obj at all.
func (x *useIndex) used(obj types.Object) bool { return x.uses[obj] != nil }

// read reports whether a non-test file reads obj.
func (x *useIndex) read(obj types.Object) bool {
	u := x.uses[obj]
	return u != nil && u.read
}

// implements reports whether a method named method of the type t
// implements a method of an interface the program declares or loads:
// it may be called through that interface, so it counts as used.
func (x *useIndex) implements(t types.Type, method string) bool {
	for _, iface := range x.interfaces[method] {
		if types.Implements(types.NewPointer(t), iface) {
			return true
		}
	}
	return false
}

// modPath names a package by its path within the module, the root
// package by its name.
func modPath(pkg *types.Package) string {
	if p, ok := strings.CutPrefix(pkg.Path(), modulePath+"/"); ok {
		return p
	}
	return pkg.Name()
}

// key names a declaration of pkg for findings and allowlists: the
// package's modPath, then the receiver type of a method or the struct
// type of a field, then its name.
func key(pkg *types.Package, names ...string) string {
	return modPath(pkg) + "." + strings.Join(names, ".")
}

// buildIndex type-checks the non-test files of the set, package by
// package, and records every use they make of the module's objects.
// Type errors are tolerated (a fixture may import a package the set
// lacks); a standard-library import that fails is an error.
func buildIndex(fset *token.FileSet, files []*ast.File, paths []string) (*useIndex, error) {
	x := &useIndex{fset: fset, uses: map[types.Object]*useSet{},
		interfaces: map[string][]*types.Interface{}, filed: map[*types.Interface]bool{}}
	byPath := map[string]*typedPackage{}
	for i, file := range files {
		name := filepath.ToSlash(paths[i])
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		dir := path.Dir(path.Clean(name))
		p := importPath(dir)
		pkg := byPath[p]
		if pkg == nil {
			pkg = &typedPackage{path: p, dir: dir}
			byPath[p] = pkg
			x.pkgs = append(x.pkgs, pkg)
		}
		pkg.files = append(pkg.files, file)
		pkg.names = append(pkg.names, name)
	}

	stdMu.Lock()
	defer stdMu.Unlock()
	// The standard packages the set imports, listed in one go command.
	std := slices.Clone(dynamicPackages)
	for _, pkg := range x.pkgs {
		for _, file := range pkg.files {
			for _, spec := range file.Imports {
				if p := strings.Trim(spec.Path.Value, `"`); p != modulePath && !strings.HasPrefix(p, modulePath+"/") {
					std = append(std, p)
				}
			}
		}
	}
	if err := listExports(std); err != nil {
		return nil, err
	}
	var stdErr error
	var imp importerFunc
	var check func(pkg *typedPackage)
	imp = func(p string) (*types.Package, error) {
		if p != modulePath && !strings.HasPrefix(p, modulePath+"/") {
			pkg, err := stdImporter.Import(p)
			if err != nil && stdErr == nil {
				stdErr = fmt.Errorf("importing %s: %w", p, err)
			}
			return pkg, err
		}
		pkg := byPath[p]
		if pkg == nil {
			return nil, fmt.Errorf("package %s is not in the file set", p)
		}
		check(pkg)
		if pkg.types == nil {
			return nil, fmt.Errorf("import cycle through %s", p)
		}
		return pkg.types, nil
	}
	check = func(pkg *typedPackage) {
		if pkg.info != nil {
			return
		}
		pkg.info = &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp, Error: func(error) {}}
		pkg.types, _ = conf.Check(pkg.path, fset, pkg.files, pkg.info)
	}
	var loaded []*types.Package // the roots of every package the program loads
	for _, pkg := range x.pkgs {
		check(pkg)
		loaded = append(loaded, pkg.types)
	}
	for _, p := range dynamicPackages {
		if std, err := imp(p); err == nil {
			loaded = append(loaded, std)
		}
	}
	if stdErr != nil {
		return nil, stdErr
	}

	for _, pkg := range x.pkgs {
		for i, file := range pkg.files {
			x.record(pkg, file, pkg.names[i])
		}
		for _, obj := range pkg.info.Defs {
			if m, ok := obj.(*types.Func); ok {
				if recv := m.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					x.addInterface(recv.Type().Underlying().(*types.Interface))
				}
			}
		}
	}
	x.addInterface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && types.IsInterface(tn.Type()) {
				x.addInterface(tn.Type().Underlying().(*types.Interface))
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range loaded {
		walk(p)
	}
	return x, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// importPath returns the import path of the package in dir, a
// slash-separated directory relative to the module root (leading ".."
// elements aside).
func importPath(dir string) string {
	for dir == ".." || strings.HasPrefix(dir, "../") {
		dir = strings.TrimPrefix(strings.TrimPrefix(dir, ".."), "/")
	}
	if dir == "" || dir == "." {
		return modulePath
	}
	return modulePath + "/" + dir
}

// addInterface files an interface under its method names.
func (x *useIndex) addInterface(iface *types.Interface) {
	if x.filed[iface] {
		return
	}
	x.filed[iface] = true
	for i := range iface.NumMethods() {
		m := iface.Method(i)
		x.interfaces[m.Name()] = append(x.interfaces[m.Name()], iface)
	}
}

// record adds one non-test file's uses of the module's objects to the
// index. An assignment or increment target and a composite-literal key
// are writes, not reads; every other use, an address taken included,
// reads. A write sets the object unless it is a pass-through copy: a
// key F: x.F in a literal written in F's own package.
func (x *useIndex) record(pkg *typedPackage, file *ast.File, name string) {
	const (
		write = 1 + iota
		copied
		address
	)
	kind := map[*ast.Ident]int{} // filled by a node before its identifiers are visited
	target := func(e ast.Expr) *ast.Ident {
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			return e.Sel
		case *ast.Ident:
			return e
		}
		return nil
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id := target(lhs); id != nil {
					kind[id] = write
				}
			}
		case *ast.IncDecStmt:
			if id := target(n.X); id != nil {
				kind[id] = write
			}
		case *ast.UnaryExpr:
			if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok && n.Op == token.AND {
				kind[sel.Sel] = address
			}
		case *ast.KeyValueExpr:
			id, _ := n.Key.(*ast.Ident)
			field, ok := pkg.info.Uses[id].(*types.Var)
			if id == nil || !ok || !field.IsField() {
				return true
			}
			kind[id] = write
			if sel, ok := ast.Unparen(n.Value).(*ast.SelectorExpr); ok && field.Pkg() == pkg.types && origin(pkg.info.Uses[sel.Sel]) == field.Origin() {
				kind[id] = copied
			}
		case *ast.Ident:
			obj := origin(pkg.info.Uses[n])
			if obj == nil || obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), modulePath) {
				return true
			}
			u := x.uses[obj]
			if u == nil {
				u = &useSet{}
				x.uses[obj] = u
			}
			k := kind[n]
			if k == 0 || k == address {
				u.read = true
			}
			if (k == write || k == address) && (len(u.setters) == 0 || u.setters[len(u.setters)-1] != name) {
				u.setters = append(u.setters, name)
			}
		}
		return true
	})
}

// origin maps a field or method of an instantiated generic type, or an
// instantiated function, to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Var:
		return o.Origin()
	case *types.Func:
		return o.Origin()
	}
	return obj
}
