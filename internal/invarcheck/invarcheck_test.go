package invarcheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixture runs one analyzer over its testdata packages and compares the
// rendered findings against the golden "file:line: [analyzer] msg" lines.
// The bad fixtures prove the rule fires with exact positions; the clean
// fixtures (scanned in the same run) prove the sanctioned idioms and the
// //repro:allow suppressions stay silent.
func fixture(t *testing.T, cfg Config, want []string) {
	t.Helper()
	cfg.Root = "../.."
	fs, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range fs {
		got = append(got, f.String())
	}
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d:\ngot:  %q\nwant: %q", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finding %d:\ngot:  %s\nwant: %s", i, got[i], want[i])
		}
	}
}

const fixtureDir = "internal/invarcheck/testdata/src/"

func TestCodecID(t *testing.T) {
	fixture(t, Config{
		Dirs: []string{
			fixtureDir + "codecid_bad",
			fixtureDir + "codecid_noband",
			fixtureDir + "codecid_clean",
		},
		Analyzers:  []string{"codecid"},
		CodecBands: map[string][2]uint16{"codecid_bad": {10, 15}, "codecid_clean": {10, 15}},
	}, []string{
		fixtureDir + "codecid_bad/codecid_bad.go:16: [codecid] codec id 10 already registered at " + fixtureDir + "codecid_bad/codecid_bad.go:15 (repro/internal/invarcheck/testdata/src/codecid_bad); ids are process-global wire format",
		fixtureDir + "codecid_bad/codecid_bad.go:17: [codecid] codec id 20 outside the band [10, 15] reserved for repro/internal/invarcheck/testdata/src/codecid_bad",
		fixtureDir + "codecid_bad/codecid_bad.go:18: [codecid] codec id is not a package-local integer constant; ids are wire format and must be auditable at the call site",
		fixtureDir + "codecid_noband/codecid_noband.go:10: [codecid] package repro/internal/invarcheck/testdata/src/codecid_noband has no reserved codec-id band; reserve one in mpi.CodecID's table and invarcheck's DefaultCodecBands",
	})
}

func TestScratchConfine(t *testing.T) {
	const msg = " crosses a go statement; scratches and worker pools are per-rank, single-dispatch (docs/ownership.md rule 3) — fan out through a prebound workers.Pool.Run instead"
	fixture(t, Config{
		Dirs: []string{
			fixtureDir + "scratchconfine_bad",
			fixtureDir + "scratchconfine_clean",
		},
		Analyzers: []string{"scratchconfine"},
	}, []string{
		fixtureDir + "scratchconfine_bad/scratchconfine_bad.go:20: [scratchconfine] captured variable \"s\"" + msg,
		fixtureDir + "scratchconfine_bad/scratchconfine_bad.go:22: [scratchconfine] argument \"s\"" + msg,
		fixtureDir + "scratchconfine_bad/scratchconfine_bad.go:23: [scratchconfine] receiver \"s\"" + msg,
		fixtureDir + "scratchconfine_bad/scratchconfine_bad.go:25: [scratchconfine] captured variable \"p\"" + msg,
	})
}

func TestAllocFree(t *testing.T) {
	fixture(t, Config{
		Dirs: []string{
			fixtureDir + "allocfree_bad",
			fixtureDir + "allocfree_clean",
		},
		Analyzers: []string{"allocfree"},
	}, []string{
		fixtureDir + "allocfree_bad/allocfree_bad.go:12: [allocfree] heap allocation in //repro:allocfree function Leak: moved to heap: x",
		fixtureDir + "allocfree_bad/allocfree_bad.go:21: [allocfree] heap allocation in //repro:allocfree function Grow: make([]byte, n) escapes to heap",
	})
}

func TestErrClass(t *testing.T) {
	fixture(t, Config{
		Dirs: []string{
			fixtureDir + "errclass_bad",
			fixtureDir + "errclass_clean",
		},
		Analyzers:    []string{"errclass"},
		ErrClassPkgs: []string{"errclass_bad", "errclass_clean"},
	}, []string{
		fixtureDir + "errclass_bad/errclass_bad.go:15: [errclass] " + errClassMsg,
		fixtureDir + "errclass_bad/errclass_bad.go:17: [errclass] " + errClassMsg,
	})
}

func TestDeadExport(t *testing.T) {
	const pkg = "repro/internal/invarcheck/testdata/src/deadexport_bad"
	const msg = " is referenced from no non-test file; delete it with the tests that only exercise it, or move it into a _test.go file"
	fixture(t, Config{
		Dirs: []string{
			fixtureDir + "deadexport_bad",
			fixtureDir + "deadexport_clean",
		},
		Analyzers: []string{"deadexport"},
	}, []string{
		fixtureDir + "deadexport_bad/deadexport_bad.go:9: [deadexport] function " + pkg + ".Dead" + msg,
		fixtureDir + "deadexport_bad/deadexport_bad.go:11: [deadexport] function " + pkg + ".deadHelper" + msg,
		fixtureDir + "deadexport_bad/deadexport_bad.go:13: [deadexport] method (*" + pkg + ".counter).Bump" + msg,
		fixtureDir + "deadexport_bad/deadexport_bad.go:15: [deadexport] function " + pkg + ".Recurse" + msg,
		fixtureDir + "deadexport_bad/deadexport_bad.go:22: [deadexport] function " + pkg + ".TestOnly" + msg,
	})
}

// TestDeadExportAllowList pins the allow-list of the real tree: every
// `//repro:allow deadexport` carries one of the three reasons docs/lint.md
// accepts, and there are at most 20 of them.
func TestDeadExportAllowList(t *testing.T) {
	reasons := map[string]bool{"bench": true, "test injector": true, "paper §5, ROADMAP 2c": true}
	n := 0
	for _, root := range []string{"../../internal", "../../cmd", "../../examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.Contains(path, "testdata") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for i, line := range strings.Split(string(src), "\n") {
				reason, ok := strings.CutPrefix(strings.TrimSpace(line), "//repro:allow deadexport")
				if !ok {
					continue
				}
				n++
				if !reasons[strings.TrimPrefix(reason, ": ")] {
					t.Errorf("%s:%d: deadexport allowed for %q, not one of the accepted reasons", path, i+1, reason)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if n == 0 || n > 20 {
		t.Errorf("%d deadexport allows in the tree, want 1..20", n)
	}
}

// oracleName matches the names a frozen or retained reference body goes
// by in a test file: frozen*, *Legacy, reference*/*Reference, *PerCall and
// *Elementwise.
var oracleName = regexp.MustCompile(`^(frozen|reference)|(Legacy|Reference|PerCall|Elementwise)$`)

// testName matches a test, benchmark or fuzz target, with its subtest path.
var testName = regexp.MustCompile(`^(Test|Benchmark|Fuzz)[A-Z0-9_]\w*(/\S*)?$`)

// ledgerFindings holds the oracle ledger — the rows of docs/ci.md's
// "Oracle ledger" section — to the test files in src (path -> source). A
// row's first cell names a file and the reference functions in it. It
// reports every function or method of a test file whose name marks it as a
// reference (oracleName) and that no row of its file lists, every listed
// name its file does not declare, and every test the ledger names that no
// test file declares.
func ledgerFindings(t *testing.T, doc string, src map[string]string) []string {
	t.Helper()
	decls := map[string]map[string]bool{} // file -> declared funcs, methods, types
	tests := map[string]bool{}
	var refs []string // "file: name" of every reference-named function
	fset := token.NewFileSet()
	for path, text := range src {
		f, err := parser.ParseFile(fset, path, text, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		decls[path] = map[string]bool{}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				decls[path][name] = true
				if testName.MatchString(name) {
					tests[name] = true
				} else if oracleName.MatchString(name) {
					refs = append(refs, path+": "+name)
				}
			case *ast.GenDecl:
				for _, sp := range d.Specs {
					if ts, ok := sp.(*ast.TypeSpec); ok {
						decls[path][ts.Name.Name] = true
					}
				}
			}
		}
	}
	_, ledger, ok := strings.Cut(doc, "\n## Oracle ledger\n")
	if !ok {
		return []string{"docs/ci.md has no \"## Oracle ledger\" section"}
	}
	ledger, _, _ = strings.Cut(ledger, "\n## ")
	var out []string
	listed := map[string]bool{}
	for _, line := range strings.Split(ledger, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.HasPrefix(line, "|") {
			continue
		}
		names := ticked(cells[1])
		if len(names) == 0 || !strings.HasSuffix(names[0], "_test.go") {
			continue // the header and its rule
		}
		file := names[0]
		if decls[file] == nil {
			out = append(out, "ledger row for "+file+": no such test file")
			continue
		}
		for _, name := range names[1:] {
			listed[file+": "+name] = true
			if !decls[file][name] {
				out = append(out, "ledger lists "+file+": "+name+", which it does not declare")
			}
		}
	}
	for _, ref := range refs {
		if !listed[ref] {
			out = append(out, ref+" is a reference body the ledger does not list")
		}
	}
	for _, name := range ticked(ledger) {
		if testName.MatchString(name) && !tests[strings.SplitN(name, "/", 2)[0]] {
			out = append(out, "ledger names "+name+", which no test file declares")
		}
	}
	return out
}

// ticked returns the backquoted spans of s, in order.
func ticked(s string) []string {
	parts := strings.Split(s, "`")
	var out []string
	for i := 1; i < len(parts); i += 2 {
		out = append(out, parts[i])
	}
	return out
}

// TestOracleLedger holds docs/ci.md's oracle ledger to the tree: every
// frozen or retained reference body in a test file has a row, and the
// ledger names no body and no test that is gone.
func TestOracleLedger(t *testing.T) {
	doc, err := os.ReadFile("../../docs/ci.md")
	if err != nil {
		t.Fatal(err)
	}
	src := map[string]string{}
	err = filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || d.Name() == "bench" || strings.HasPrefix(d.Name(), ".") && path != "../..") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, "_test.go") {
			text, err := os.ReadFile(path)
			src[strings.TrimPrefix(path, "../../")] = string(text)
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range ledgerFindings(t, string(doc), src) {
		t.Error(f)
	}
}

// TestOracleLedgerFindings proves the ledger check fires: on an unlisted
// frozen or elementwise body, on a listed body or test that no longer
// exists, and on a row for a missing file — and stays silent on a ledger
// that matches.
func TestOracleLedgerFindings(t *testing.T) {
	src := map[string]string{"a/x_test.go": `package a
func frozenStep() {}
func (r *rig) stepReference() {}
func (r *rig) applyElementwise() {}
func TestStepMatchesFrozen() {}
type rig struct{}`}
	doc := func(rows ...string) string {
		return "# CI\n## Oracle ledger\n| reference | killed by |\n|---|---|\n" + strings.Join(rows, "\n") + "\n## Next\n| `a/x_test.go`: `frozenGone` |\n"
	}
	for _, tc := range []struct {
		name string
		doc  string
		want []string
	}{
		{"matches", doc("| `a/x_test.go`: `frozenStep`, `stepReference`, `applyElementwise`, `rig` | `TestStepMatchesFrozen` |"), nil},
		{"unlisted", doc("| `a/x_test.go`: `stepReference`, `applyElementwise` | `TestStepMatchesFrozen/case` |"),
			[]string{"a/x_test.go: frozenStep is a reference body the ledger does not list"}},
		{"unlisted-elementwise", doc("| `a/x_test.go`: `frozenStep`, `stepReference` | `TestStepMatchesFrozen` |"),
			[]string{"a/x_test.go: applyElementwise is a reference body the ledger does not list"}},
		{"gone", doc("| `a/x_test.go`: `frozenStep`, `stepReference`, `applyElementwise`, `frozenGone` | `TestGone` |"),
			[]string{"ledger lists a/x_test.go: frozenGone, which it does not declare", "ledger names TestGone, which no test file declares"}},
		{"no-file", doc("| `a/x_test.go`: `frozenStep`, `stepReference`, `applyElementwise` |", "| `a/y_test.go`: `frozenStep` |"),
			[]string{"ledger row for a/y_test.go: no such test file"}},
		{"no-section", "# CI\n", []string{`docs/ci.md has no "## Oracle ledger" section`}},
	} {
		got := ledgerFindings(t, tc.doc, src)
		if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
			t.Errorf("%s: findings %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestTreeClean runs the full default suite over the real tree — the same
// invocation `make lint` uses — and requires zero findings. Any invariant
// regression anywhere in the module fails here with its file:line.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go build/go list over the whole module")
	}
	fs, err := Run(Config{Root: "../.."})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		t.Errorf("unexpected finding: %s", f)
	}
}
