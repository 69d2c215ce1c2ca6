package invarcheck

// allocfree: the AllocsPerRun gates prove the steady-state hot paths
// allocate nothing, but when one regresses they only say *that* 225
// allocations appeared — never which line. This analyzer closes the gap
// with the compiler's own escape analysis: a function whose doc comment
// carries a `//repro:allocfree` line is compiled with
// `go build -gcflags=-m` and every "escapes to heap" / "moved to heap"
// diagnostic inside its body becomes a finding with the exact file:line.
//
// Two classes of diagnostic are cold by contract and skipped:
//
//   - boxing on a line covered by an error/panic construction call
//     (fmt.Errorf and friends, errors.New, panic): error paths do not
//     run at steady state, and the AllocsPerRun gates prove it;
//   - a constant literal escaping (the compiler reports the panic/error
//     message of an *inlined* callee at the caller's line, where no
//     fmt call is visible in the source).
//
// Everything else — lazy init, amortized buffer growth, retained
// allocating reference paths — must be visibly suppressed on its line
// with `//repro:allow allocfree: reason`, which doubles as documentation
// of why that allocation does not count against the steady state.

import (
	"fmt"
	"go/ast"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// AllocFreeAnnotation is the doc-comment line that opts a function into
// the escape-analysis check.
const AllocFreeAnnotation = "//repro:allocfree"

// annotatedFunc is one //repro:allocfree function: where its body spans
// and which package to compile for it.
type annotatedFunc struct {
	file       string // root-relative
	name       string
	start, end int // body line span, inclusive
}

func (r *runner) allocFree() ([]Finding, error) {
	var funcs []annotatedFunc
	errLines := map[string]map[int]bool{} // rel file -> lines covered by error-construction calls
	pkgDirs := map[string]bool{}
	for _, p := range r.pkgs {
		for _, abs := range p.sortedFiles() {
			if p.isTestFile(abs) {
				continue // go build does not compile test files
			}
			af := p.files[abs]
			rel := r.rel(abs)
			for _, d := range af.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !hasAllocFreeAnnotation(fd) {
					continue
				}
				_, start := r.position(fd.Body.Pos())
				_, end := r.position(fd.Body.End())
				funcs = append(funcs, annotatedFunc{
					file:  rel,
					name:  funcName(fd),
					start: start,
					end:   end,
				})
				pkgDirs[r.rel(p.Dir)] = true
			}
			if lines := errCallLines(r, af); len(lines) > 0 {
				if errLines[rel] == nil {
					errLines[rel] = map[int]bool{}
				}
				for l := range lines {
					errLines[rel][l] = true
				}
			}
		}
	}
	if len(funcs) == 0 {
		return nil, nil
	}
	diags, err := r.escapeDiagnostics(pkgDirs)
	if err != nil {
		return nil, err
	}
	var fs []Finding
	for _, d := range diags {
		af := findAnnotated(funcs, d.file, d.line)
		if af == nil {
			continue
		}
		if errLines[d.file][d.line] {
			continue // error/panic construction: cold by contract
		}
		if isConstLiteral(d.what) {
			continue // inlined panic/error message boxing
		}
		fs = append(fs, Finding{d.file, d.line, "allocfree",
			fmt.Sprintf("heap allocation in //repro:allocfree function %s: %s", af.name, d.what)})
	}
	return fs, nil
}

// hasAllocFreeAnnotation reports whether the function's doc comment
// carries a //repro:allocfree line.
func hasAllocFreeAnnotation(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == AllocFreeAnnotation {
			return true
		}
	}
	return false
}

// funcName renders "Recv" / "(*File).ReadAllInto" for messages.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return "(" + exprString(fd.Recv.List[0].Type) + ")." + fd.Name.Name
}

// escDiag is one parsed escape-analysis diagnostic.
type escDiag struct {
	file string
	line int
	what string // "x escapes to heap" / "moved to heap: x"
}

var escRe = regexp.MustCompile(`^([^\s:]+\.go):(\d+):\d+: (.+)$`)

// escapeDiagnostics compiles the packages holding annotated functions
// with -gcflags=-m and parses the allocation-relevant diagnostics. The
// build cache replays compiler output, so warm runs cost no recompile.
func (r *runner) escapeDiagnostics(pkgDirs map[string]bool) ([]escDiag, error) {
	args := []string{"build", "-gcflags=-m"}
	for _, d := range sortedKeys(pkgDirs) {
		args = append(args, "./"+d+"/")
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = r.cfg.Root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("invarcheck: go build -gcflags=-m: %v\n%s", err, out)
	}
	var diags []escDiag
	for _, line := range strings.Split(string(out), "\n") {
		m := escRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		msg := m[3]
		if !strings.HasSuffix(msg, "escapes to heap") && !strings.HasPrefix(msg, "moved to heap:") {
			continue
		}
		n, _ := strconv.Atoi(m[2])
		diags = append(diags, escDiag{file: m[1], line: n, what: msg})
	}
	return diags, nil
}

// findAnnotated returns the annotated function whose body covers
// file:line, or nil.
func findAnnotated(funcs []annotatedFunc, file string, line int) *annotatedFunc {
	for i := range funcs {
		f := &funcs[i]
		if f.file == file && line >= f.start && line <= f.end {
			return f
		}
	}
	return nil
}

// errCallLines returns every source line covered by a call to an
// error/panic construction function in af.
func errCallLines(r *runner, af *ast.File) map[int]bool {
	lines := map[int]bool{}
	ast.Inspect(af, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isErrConstruction(call) {
			return true
		}
		_, start := r.position(call.Pos())
		_, end := r.position(call.End())
		for l := start; l <= end; l++ {
			lines[l] = true
		}
		return true
	})
	return lines
}

// isErrConstruction matches panic(...), errors.New and the fmt
// formatting constructors whose argument boxing only runs on error paths.
func isErrConstruction(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch pkg.Name {
		case "fmt":
			switch fun.Sel.Name {
			case "Errorf", "Sprintf", "Sprint", "Sprintln", "Fprintf", "Fprintln", "Appendf":
				return true
			}
		case "errors":
			return fun.Sel.Name == "New" || fun.Sel.Name == "Join"
		}
	}
	return false
}

// isConstLiteral reports whether the escaping expression in an
// "<expr> escapes to heap" diagnostic is a bare constant (string or
// number) — inlined panic/error message boxing attributed to the caller.
func isConstLiteral(msg string) bool {
	expr := strings.TrimSuffix(msg, " escapes to heap")
	expr = strings.TrimSpace(expr)
	if len(expr) >= 2 && expr[0] == '"' && expr[len(expr)-1] == '"' {
		return true
	}
	if _, err := strconv.ParseFloat(expr, 64); err == nil {
		return true
	}
	return false
}

// sortedKeys returns m's keys in sorted order.
func sortedKeys(m map[string]bool) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
