package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"
)

// TestOnlyAnalyzer keeps production surface honest: every function,
// method, type, const and var declared under internal/ must be reached,
// through non-test code, from a main package (cmd/, examples/, bench/) or
// from an exported name of a package outside internal/ (the facade). The
// loader parses GoFiles only, so a declaration only _test.go files call is
// reported: delete it with the tests that exercised only it, move it to an
// export_test.go, or — when a test of surviving behaviour in another
// package needs it — say which in a //geomancy:allow testonly.
//
// Reachability is by mention, not by call graph: a declaration reaches
// every package-level object and method its source names, and a reached
// type reaches those of its methods that make it satisfy an interface the
// module's source or imports name — judged by method names alone, since a
// type checked from source and an interface read from export data never
// share parameter types. Both err toward "used", the safe side here.
var TestOnlyAnalyzer = &Analyzer{
	Name: "testonly",
	Doc: "every declaration under internal/ must be reached from a main package " +
		"or the facade's exported API through non-test code",
	Filter: func(pkgPath string) bool { return !strings.Contains(pkgPath, "/internal/analysis") },
	Run:    runTestOnly,
	Flush:  flushTestOnly,
}

const testOnlyRoot = "" // the source node of every root edge

// testOnlyResult is one package's slice of the module-wide use graph.
type testOnlyResult struct {
	decls   map[string]token.Pos         // reportable declarations (internal/ packages only)
	uses    map[string][]string          // declaration → the objects its source mentions
	methods map[string]map[string]string // named type → method name → that method's key, promoted ones included
	ifaces  map[string][]string          // method names of every non-empty interface in sight
}

// underInternal reports whether the package is subject to the rule; a
// fixture package is judged by its path below testdata/src/.
func underInternal(pkgPath string) bool {
	if _, after, ok := strings.Cut(pkgPath, "/testdata/src/"); ok {
		pkgPath = after
	}
	return strings.Contains("/"+pkgPath, "/internal/")
}

// objectKey names a package-level object or a method the same in source
// and export-data views; "" for locals, fields, builtins and init.
func objectKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok && receiverType(fn) != nil {
		if key, ok := FuncKey(fn); ok {
			return key.String()
		}
		return ""
	}
	if obj == nil || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() || obj.Name() == "init" {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

func runTestOnly(pass *Pass) (any, error) {
	res := &testOnlyResult{
		decls:   make(map[string]token.Pos),
		uses:    make(map[string][]string),
		methods: make(map[string]map[string]string),
		// error, and the three package errors finds through unnamed interfaces.
		ifaces: map[string][]string{"Error": {"Error"}, "Unwrap": {"Unwrap"}, "Is": {"Is"}, "As": {"As"}},
	}
	// declare records one declared name and everything node mentions.
	declare := func(name *ast.Ident, node ast.Node) {
		if name.Name == "_" {
			return // a compile-time assertion runs nothing and keeps nothing alive
		}
		obj := pass.TypesInfo.Defs[name]
		key := objectKey(obj)
		switch {
		case key == "" || pass.Pkg.Name() == "main": // init, and all of a main package, run unconditionally
			key = testOnlyRoot
		case underInternal(pass.Pkg.Path()):
			res.decls[key] = name.Pos()
		case name.IsExported():
			res.uses[testOnlyRoot] = append(res.uses[testOnlyRoot], key)
		}
		ast.Inspect(node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if used := objectKey(pass.TypesInfo.Uses[n]); used != "" && used != key {
					res.uses[key] = append(res.uses[key], used)
				}
			case *ast.InterfaceType:
				res.addInterface(pass.TypesInfo.TypeOf(n))
			}
			return true
		})
		if tn, ok := obj.(*types.TypeName); ok && !types.IsInterface(tn.Type()) {
			set := types.NewMethodSet(types.NewPointer(tn.Type()))
			byName := make(map[string]string, set.Len())
			for i := 0; i < set.Len(); i++ {
				byName[set.At(i).Obj().Name()] = objectKey(set.At(i).Obj())
			}
			res.methods[key] = byName
		}
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				declare(d.Name, d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						declare(s.Name, s)
					case *ast.ValueSpec:
						for _, name := range s.Names {
							declare(name, s)
						}
					}
				}
			}
		}
	}
	for _, pkg := range pass.Pkg.Imports() { // the package's own interfaces were met as ast.InterfaceType
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				res.addInterface(tn.Type())
			}
		}
	}
	return res, nil
}

// addInterface records t's method names if t is a non-empty interface
// (the empty one would make every method of every type a use).
func (res *testOnlyResult) addInterface(t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
		names := make([]string, it.NumMethods())
		for i := range names {
			names[i] = it.Method(i).Name()
		}
		res.ifaces[strings.Join(names, ",")] = names
	}
}

// flushTestOnly walks the merged graph from the roots and reports what it missed.
func flushTestOnly(results []Result) []Diagnostic {
	uses, methods, ifaces := make(map[string][]string), make(map[string]map[string]string), make(map[string][]string)
	rooted := false
	for _, r := range results {
		res := r.Value.(*testOnlyResult)
		rooted = rooted || !underInternal(r.Pkg.PkgPath)
		for k, v := range res.uses {
			uses[k] = append(uses[k], v...)
		}
		maps.Copy(methods, res.methods)
		maps.Copy(ifaces, res.ifaces)
	}
	if !rooted { // a partial load (geomancy-vet ./internal/policy/) cannot tell used from unused
		return nil
	}
	reached := make(map[string]bool)
	for work := []string{testOnlyRoot}; len(work) > 0; {
		key := work[len(work)-1]
		work = work[:len(work)-1]
		if reached[key] {
			continue
		}
		reached[key] = true
		work = append(work, uses[key]...)
		for _, names := range ifaces {
			var satisfying []string
			for _, name := range names {
				if m := methods[key][name]; m != "" {
					satisfying = append(satisfying, m)
				}
			}
			if len(satisfying) == len(names) {
				work = append(work, satisfying...)
			}
		}
	}
	var out []Diagnostic
	for _, r := range results {
		for key, pos := range r.Value.(*testOnlyResult).decls {
			if !reached[key] {
				out = append(out, Diagnostic{Pos: r.Pkg.Fset.Position(pos), Analyzer: "testonly", Message: key[strings.LastIndex(key, "/")+1:] +
					" is reached by no main package and no exported facade name through non-test code: delete it with its tests or move it to an export_test.go"})
			}
		}
	}
	return out
}
