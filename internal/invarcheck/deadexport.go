package invarcheck

// deadexport: ROADMAP's "least code" aim has a size gate (`make size`)
// but a size gate cannot say which code is dead. The rule: a function or
// method declared in a non-test file under internal/ (exported or not)
// must be referenced from some non-test file of the module, outside its
// own declaration. Code only tests reach is either dead (delete it with
// its tests) or a test helper (move it into a _test.go file).
//
// Not findings: main/init, and a method whose receiver type satisfies an
// interface that has a method of the same name — those are reached
// through the interface (Stringer, error, sort.Interface, pfs.Store, the
// mpi transport worlds), which a reference count cannot see. What only
// the nested bench/ module imports, the faultinject constructors and the
// paper's planning model are allowed line-level with
// `//repro:allow deadexport: <reason>`; docs/lint.md lists the three
// accepted reasons.
//
// The analyzer reuses scratchconfine's type-checked packages. Every
// package is checked on its own against export data, so one function is
// a different types.Object in each importer's view; declarations and
// references are matched by types.Func.FullName instead.

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

func (r *runner) deadExport() ([]Finding, error) {
	if err := r.typeCheck(); err != nil {
		return nil, err
	}
	// Pass 1: every reference to a function or method from a non-test
	// file, except a function's references to itself.
	used := map[string]bool{}
	for _, p := range r.pkgs {
		for _, abs := range p.GoFiles {
			for _, d := range p.files[abs].Decls {
				self := ""
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = funcKey(p.info.Defs[fd.Name])
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if k := funcKey(p.info.Uses[id]); k != "" && k != self {
							used[k] = true
						}
					}
					return true
				})
			}
		}
	}
	// Pass 2: declarations under internal/ nothing in pass 1 reached.
	ifaces := r.interfaces()
	var fs []Finding
	for _, p := range r.pkgs {
		if !strings.Contains(p.ImportPath, "/internal/") || p.types == nil {
			continue
		}
		for _, abs := range p.GoFiles {
			for _, d := range p.files[abs].Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "main" || fd.Name.Name == "init" {
					continue
				}
				fn, _ := p.info.Defs[fd.Name].(*types.Func)
				if fn == nil || used[funcKey(fn)] || satisfiesInterface(fn, ifaces) {
					continue
				}
				kind := "function"
				if fd.Recv != nil {
					kind = "method"
				}
				file, line := r.position(fd.Name.Pos())
				fs = append(fs, Finding{file, line, "deadexport",
					fmt.Sprintf("%s %s is referenced from no non-test file; delete it with the tests that only exercise it, or move it into a _test.go file", kind, fn.FullName())})
			}
		}
	}
	return fs, nil
}

// funcKey names a function or method independently of which package's
// type-check produced obj ("" for anything else). Methods of instantiated
// generic types resolve to their generic origin.
func funcKey(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok {
		return ""
	}
	return fn.Origin().FullName()
}

// interfaces collects every interface type the loaded packages can
// name: each interface written in a non-test file (declared or anonymous,
// as in an optional-interface assertion), the package-level interfaces of
// everything transitively imported, and the universe's error.
func (r *runner) interfaces() []*types.Interface {
	out := []*types.Interface{errorType}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					out = append(out, it)
				}
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, p := range r.pkgs {
		if p.types == nil {
			continue
		}
		seen[p.types] = true // its interfaces come from the syntax below
		for _, imp := range p.types.Imports() {
			walk(imp)
		}
		for _, abs := range p.GoFiles {
			ast.Inspect(p.files[abs], func(n ast.Node) bool {
				if e, ok := n.(*ast.InterfaceType); ok {
					if it, ok := p.info.Types[e].Type.(*types.Interface); ok {
						out = append(out, it)
					}
				}
				return true
			})
		}
	}
	return out
}

var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// satisfiesInterface reports whether fn is a method whose receiver type
// (or a pointer to it) implements one of ifaces through a method of fn's
// name. The errors package finds Is, As and Unwrap through interfaces it
// never names, so on an error type those count too.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	implements := func(it *types.Interface) bool {
		return types.Implements(t, it) || types.Implements(types.NewPointer(t), it)
	}
	switch fn.Name() {
	case "Is", "As", "Unwrap":
		if implements(errorType) {
			return true
		}
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && implements(it) {
				return true
			}
		}
	}
	return false
}
