// Command doccheck is the repository's missing-godoc lint: it fails,
// listing every offender, when an exported identifier in the given package
// directories lacks a doc comment. `make check` runs it over the packages
// whose documented surface the docs layer depends on, so the godoc
// coverage established in PR 5 cannot rot.
//
// Usage:
//
//	doccheck ./internal/mpiio ./internal/render ...
//
// Checked declarations: exported top-level funcs, exported methods on
// exported receiver types, exported types, and exported const/var specs.
// A const/var group is covered by its group comment (the usual Go idiom
// for iota enums), and _test.go files are ignored. The tool deliberately
// does not require doc comments on struct fields or interface methods —
// the type's comment is expected to carry that weight.
//
// On success it prints the number of exported identifiers it checked — the
// "exported symbols" figure `make size` reports.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doccheck <package dir> [...]")
		os.Exit(2)
	}
	var missing []string
	exported := 0
	for _, dir := range os.Args[1:] {
		m, n, err := checkDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
			os.Exit(2)
		}
		missing = append(missing, m...)
		exported += n
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		fmt.Fprintln(os.Stderr, "doccheck: exported identifiers without doc comments:")
		for _, m := range missing {
			fmt.Fprintf(os.Stderr, "  %s\n", m)
		}
		os.Exit(1)
	}
	fmt.Printf("doccheck: %d exported identifiers, all documented\n", exported)
}

// checkDir parses every non-test Go file of one package directory and
// returns the undocumented exported declarations as "file:line: name"
// strings, plus the number of exported declarations it checked.
func checkDir(dir string) ([]string, int, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, 0, err
	}
	var missing []string
	exported := 0
	visit := func(pos token.Pos, name string, documented bool) {
		exported++
		if !documented {
			p := fset.Position(pos)
			missing = append(missing, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(p.Filename), p.Line, name))
		}
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && exportedReceiver(d) {
						visit(d.Pos(), funcName(d), d.Doc != nil)
					}
				case *ast.GenDecl:
					checkGenDecl(d, visit)
				}
			}
		}
	}
	return missing, exported, nil
}

// exportedReceiver reports whether a func decl is a plain function or a
// method whose receiver type is exported (methods on unexported types are
// not part of the package API).
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true // unusual receiver: err toward checking
		}
	}
}

// funcName renders "Recv.Name" for methods and "Name" for functions.
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	var b strings.Builder
	t := d.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	if id, ok := t.(*ast.Ident); ok {
		b.WriteString(id.Name)
		b.WriteString(".")
	}
	b.WriteString(d.Name.Name)
	return b.String()
}

// checkGenDecl visits the exported specs of a type/const/var declaration,
// saying whether each is documented. A group comment on the declaration
// covers every spec in the group (the iota-enum idiom); an individual doc
// or trailing line comment covers its spec.
func checkGenDecl(d *ast.GenDecl, visit func(token.Pos, string, bool)) {
	switch d.Tok {
	case token.TYPE:
		for _, spec := range d.Specs {
			ts := spec.(*ast.TypeSpec)
			if ts.Name.IsExported() {
				visit(ts.Pos(), ts.Name.Name, d.Doc != nil || ts.Doc != nil)
			}
		}
	case token.CONST, token.VAR:
		for _, spec := range d.Specs {
			vs := spec.(*ast.ValueSpec)
			for _, name := range vs.Names {
				if name.IsExported() {
					visit(name.Pos(), name.Name, d.Doc != nil || vs.Doc != nil || vs.Comment != nil)
				}
			}
		}
	}
}
