package invarcheck

// scratchconfine: docs/ownership.md rule 3 — every *Scratch and every
// workers.Pool belongs to one rank and serves one dispatch at a time.
// The sanctioned way to fan work out is a prebound closure dispatched
// through workers.Pool.Run; a scratch (or pool) captured by a `go`
// statement closure, or passed as a spawned call's argument, escapes that
// confinement and is exactly the shape of bug the chaos/race suites can
// only catch probabilistically. Test files are analyzed too: stray
// goroutine captures in test helpers race just as well.
//
// The analyzer type-checks each package (go/types with export data from
// `go list -export`, resolved through go/importer) and inspects every
// `go` statement: free variables of the spawned closure and arguments of
// the spawned call whose type is `*Scratch`-suffixed or workers.Pool are
// findings. A deliberate cross-goroutine handoff (there are none today)
// is suppressed line-level with `//repro:allow scratchconfine: reason`.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/types"
	"io"
	"os"
	"strings"
)

func (r *runner) scratchConfine() ([]Finding, error) {
	if err := r.typeCheck(); err != nil {
		return nil, err
	}
	var fs []Finding
	for _, p := range r.pkgs {
		for _, abs := range p.sortedFiles() {
			fs = append(fs, r.checkGoStmts(p.files[abs], p.info)...)
		}
	}
	return fs, nil
}

// typeCheck type-checks every loaded package once per Run (scratchconfine
// and deadexport share the result): go/types over the parsed files, with
// imports resolved from `go list -export` data through go/importer. Each
// package keeps its types.Info and its checked *types.Package.
func (r *runner) typeCheck() error {
	if r.typed {
		return nil
	}
	exports, err := r.exportData()
	if err != nil {
		return err
	}
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("invarcheck: no export data for %q", path)
		}
		return os.Open(f)
	}
	r.typed = true
	base := importer.ForCompiler(r.fset, "gc", lookup)
	for _, p := range r.pkgs {
		p.info = &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		// Pass 1: the package proper plus its in-package test files — one
		// type-checked unit, exactly how `go test` compiles them.
		var srcFiles, xtestFiles []*ast.File
		for _, abs := range p.sortedFiles() {
			af := p.files[abs]
			if af.Name.Name == p.Name+"_test" {
				xtestFiles = append(xtestFiles, af)
			} else {
				srcFiles = append(srcFiles, af)
			}
		}
		conf := types.Config{Importer: base, Error: func(error) {}, FakeImportC: true}
		p.types, _ = conf.Check(p.ImportPath, r.fset, srcFiles, p.info)
		// Pass 2: external test files import the package under test; hand
		// them the in-memory (test-variant) package from pass 1.
		if len(xtestFiles) > 0 {
			xconf := types.Config{
				Importer:    &overrideImporter{base: base, path: p.ImportPath, pkg: p.types},
				Error:       func(error) {},
				FakeImportC: true,
			}
			xconf.Check(p.ImportPath+"_test", r.fset, xtestFiles, p.info)
		}
	}
	return nil
}

// overrideImporter resolves one import path to an in-memory package and
// delegates the rest to the export-data importer.
type overrideImporter struct {
	base types.Importer
	path string
	pkg  *types.Package
}

// Import implements types.Importer.
func (o *overrideImporter) Import(path string) (*types.Package, error) {
	if path == o.path && o.pkg != nil {
		return o.pkg, nil
	}
	return o.base.Import(path)
}

// checkGoStmts flags scratch/pool values crossing a `go` statement in af.
func (r *runner) checkGoStmts(af *ast.File, info *types.Info) []Finding {
	var fs []Finding
	flag := func(n ast.Node, kind, name string) {
		file, line := r.position(n.Pos())
		fs = append(fs, Finding{file, line, "scratchconfine",
			fmt.Sprintf("%s %q crosses a go statement; scratches and worker pools are per-rank, single-dispatch (docs/ownership.md rule 3) — fan out through a prebound workers.Pool.Run instead", kind, name)})
	}
	ast.Inspect(af, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		call := g.Call
		// Arguments of the spawned call (closure or named function).
		for _, arg := range call.Args {
			if tv, ok := info.Types[arg]; ok && isConfinedType(tv.Type) {
				flag(arg, "argument", exprString(arg))
			}
		}
		// A spawned method call hands its receiver across too.
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if tv, ok := info.Types[sel.X]; ok && isConfinedType(tv.Type) {
				flag(sel, "receiver", exprString(sel.X))
			}
		}
		// Free variables captured by a spawned closure.
		if lit, ok := call.Fun.(*ast.FuncLit); ok {
			seen := map[types.Object]bool{}
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				id, ok := m.(*ast.Ident)
				if !ok {
					return true
				}
				obj := info.Uses[id]
				v, ok := obj.(*types.Var)
				if !ok || seen[v] || v.IsField() {
					return true
				}
				seen[v] = true
				// Captured means: declared outside the literal but not at
				// package scope (package-level pools guard themselves with
				// their own locks and are not a per-dispatch capture).
				if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
					return true
				}
				if v.Parent() != nil && v.Parent().Parent() == types.Universe {
					return true // package-level
				}
				if isConfinedType(v.Type()) {
					flag(id, "captured variable", id.Name)
				}
				return true
			})
		}
		return true
	})
	return fs
}

// isConfinedType reports whether t (through pointers) is a per-rank
// scratch — any named type ending in "Scratch" — or a workers.Pool.
func isConfinedType(t types.Type) bool {
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if strings.HasSuffix(obj.Name(), "Scratch") {
		return true
	}
	if obj.Name() == "Pool" && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "internal/workers") {
		return true
	}
	return false
}
