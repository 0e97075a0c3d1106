// Command deadexports enforces the rule that every exported package-level
// object, method and struct field of an importable package of the module
// (the root package, pkg/ and internal/) is used by non-test code
// somewhere in the module (a cmd/ binary, the root package, pkg/, another
// internal package, its own package), by an Example of its own package or
// by benchmark/. A field is used when non-test code sets or reads it.
//
// Run from the module root:
//
//	go run ./scripts/deadexports
//
// It type-checks every package of the module from its non-test files,
// collects the uses, counts every selector name in benchmark/*.go (its
// own module, so not type-checked here) as a use of every object with that
// name, counts every identifier in the body of an Example function (a
// documented call whose output go test pins) as a use of every object of
// that name in the Example's package, and skips methods that satisfy an
// interface declared in the module or in a standard-library package the
// module imports. What is left must be in allow.txt, one "path.Name —
// reason" line each (path.Type.Field for a field): names tests use as a
// fixture or an observer. The check fails on an unused name that is not
// listed, and on a listed name that is used, that no longer exists or that
// no test file mentions, so the list only shrinks.
package main

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const allowFile = "scripts/deadexports/allow.txt"

func main() {
	dead, err := check(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadexports:", err)
		os.Exit(2)
	}
	for _, line := range dead {
		fmt.Println(line)
	}
	if len(dead) > 0 {
		os.Exit(1)
	}
}

// loader type-checks module packages from source, non-test files only,
// and hands everything else to the standard library's source importer.
type loader struct {
	root, module string
	fset         *token.FileSet
	std          types.Importer
	info         *types.Info
	pkgs         map[string]*types.Package
	files        map[string][]*ast.File
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path != l.module && !strings.HasPrefix(path, l.module+"/") {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	l.pkgs[path] = nil // being loaded
	defer func() {
		if l.pkgs[path] == nil {
			delete(l.pkgs, path)
		}
	}()
	dir := filepath.Join(l.root, strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/"))
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	p, err := (&types.Config{Importer: l}).Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	l.files[path] = files
	return p, nil
}

// check returns one line per violation of the rule in the module at root.
func check(root string) ([]string, error) {
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := &loader{
		root: root, module: module, fset: token.NewFileSet(),
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)

	// Every directory of the module with non-test Go files; benchmark/
	// is a module of its own and is read by name below. Test files are
	// read by name: all of them for the allowlist, and the bodies of
	// Example functions, by the import path of their directory, as uses.
	testNames := map[string]bool{}
	exampleNames := map[string]map[string]bool{}
	importPath := func(dir string) string {
		rel, _ := filepath.Rel(root, dir)
		if rel == "." {
			return module
		}
		return module + "/" + filepath.ToSlash(rel)
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name[0] == '.' || name == "testdata" || name == "benchmark") {
				return filepath.SkipDir
			}
			_, err = l.Import(importPath(path))
			if noGo := (*build.NoGoError)(nil); errors.As(err, &noGo) {
				return nil
			}
			return err
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		identNames(f, testNames, false)
		ip := importPath(filepath.Dir(path))
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Example") {
				if exampleNames[ip] == nil {
					exampleNames[ip] = map[string]bool{}
				}
				identNames(fd.Body, exampleNames[ip], false)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	benchNames := map[string]bool{}
	benchFiles, _ := filepath.Glob(filepath.Join(root, "benchmark", "*.go"))
	for _, path := range benchFiles {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		identNames(f, benchNames, true)
	}

	// A use inside the object's own declaration (a recursive function) is
	// not a caller.
	own := map[types.Object][2]token.Pos{}
	for _, files := range l.files {
		for _, f := range files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok {
					own[l.info.Defs[fd.Name]] = [2]token.Pos{fd.Pos(), fd.End()}
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for id, obj := range l.info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if r, ok := own[obj]; ok && r[0] <= id.Pos() && id.Pos() < r[1] {
			continue
		}
		used[obj] = true
	}

	// Interfaces a method may exist to satisfy: error, the module's own and
	// those of every standard-library package it imports, indexed by method
	// name.
	errorType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	ifaces := map[string][]*types.Interface{"Error": {errorType}}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i).Name()
					ifaces[m] = append(ifaces[m], it)
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range l.pkgs {
		visit(p)
	}
	satisfies := func(recv types.Type, method string) bool {
		// errors.Is, As and Unwrap find these on an error by name.
		if method == "Unwrap" || method == "Is" || method == "As" {
			return types.Implements(recv, errorType) || types.Implements(types.NewPointer(recv), errorType)
		}
		for _, it := range ifaces[method] {
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}

	allow, err := readAllow(filepath.Join(root, allowFile))
	if err != nil {
		return nil, err
	}
	var out []string
	var examples map[string]bool // the names the current package's Examples use
	report := func(obj types.Object, key, name string) {
		listed := allow[key]
		delete(allow, key)
		isUsed := used[obj] || benchNames[name] || examples[name]
		switch {
		case isUsed && listed:
			out = append(out, fmt.Sprintf("%s: %s is listed in %s but has a non-test use; delete the line", l.fset.Position(obj.Pos()), key, allowFile))
		case !isUsed && !listed:
			out = append(out, fmt.Sprintf("%s: %s has no non-test use; delete it, or list it in %s with the reason tests need it", l.fset.Position(obj.Pos()), key, allowFile))
		case listed && !testNames[name]:
			out = append(out, fmt.Sprintf("%s: %s is listed in %s but no test mentions it; delete both", l.fset.Position(obj.Pos()), key, allowFile))
		}
	}
	for path, p := range l.pkgs {
		if p.Name() == "main" {
			continue
		}
		rel := strings.TrimPrefix(path, module+"/")
		examples = exampleNames[path]
		for _, name := range p.Scope().Names() {
			obj := p.Scope().Lookup(name)
			if obj.Exported() {
				report(obj, rel+"."+name, name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			// A field counts as used when non-test code names it: a
			// selector reads or sets it, a keyed literal sets it.
			// Embedded fields are a composition, not a knob.
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() && !f.Embedded() {
						report(f, rel+"."+name+"."+f.Name(), f.Name())
					}
				}
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !satisfies(named, m.Name()) {
					report(m, rel+"."+name+"."+m.Name(), m.Name())
				}
			}
		}
	}
	for key := range allow {
		out = append(out, fmt.Sprintf("%s: %s names nothing the check looks at; delete the line", allowFile, key))
	}
	sort.Strings(out)
	return out, nil
}

// identNames adds to set the identifiers under node: every identifier, or
// only the selected names (x.Name) when selectorsOnly.
func identNames(node ast.Node, set map[string]bool, selectorsOnly bool) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			set[n.Sel.Name] = true
		case *ast.Ident:
			if !selectorsOnly {
				set[n.Name] = true
			}
		}
		return true
	})
}

// readAllow parses "path.Name — reason" lines; blank lines and lines
// starting with # are skipped, and a line without a reason is an error.
func readAllow(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]bool{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, ok := strings.Cut(line, " — ")
		if key = strings.TrimSpace(key); !ok || key == "" || strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: want \"path.Name — reason\"", path, n)
		}
		if allow[key] {
			return nil, fmt.Errorf("%s:%d: %s is listed twice", path, n, key)
		}
		allow[key] = true
	}
	return allow, sc.Err()
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}
