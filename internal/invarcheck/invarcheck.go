// Package invarcheck is the repository's invariant lint suite: a
// stdlib-only static analyzer (go/parser + go/types + go/importer, the
// same zero-dependency stance as cmd/doccheck) that machine-checks the
// conventions the zero-allocation steady state and the exactly-once
// network transport rest on. The rules themselves are documented in
// docs/ownership.md and docs/lint.md; this package turns them from prose
// into `make check` failures with exact file:line diagnostics.
//
// Six sub-analyzers, one per documented invariant:
//
//   - allocfree: functions annotated `//repro:allocfree` are checked
//     against the compiler's escape analysis (`go build -gcflags=-m`);
//     any heap allocation inside the annotated body is a finding, so an
//     AllocsPerRun regression comes with the exact line that escaped.
//   - codecid: every mpi.RegisterCodec call site must use an id that is
//     unique across the tree and inside its package's reserved band
//     (internal/mpi/codec.go documents the bands).
//   - decodealias: wire-codec Decode hooks must never retain the wire
//     byte slice (or a subslice of it) in a struct field, package
//     variable or return value — decoded payloads never alias the frame
//     scratch (docs/ownership.md "Serialization boundary").
//   - scratchconfine: `*Scratch` and workers.Pool values must not be
//     captured by (or passed to) `go` statement closures — scratches are
//     per-rank and single-dispatch (docs/ownership.md rule 3); fan-outs
//     go through prebound workers.Pool dispatch.
//   - errclass: errors constructed in the internal/pfs and
//     internal/mpiio I/O paths must wrap (%w) one of the typed sentinels
//     or an already-classified error, so new code cannot silently
//     default to unclassified-permanent (docs/faults.md).
//   - deadexport: a function or method declared under internal/ must be
//     referenced from some non-test file of the module (interface
//     implementations excepted), so code only tests reach cannot
//     accumulate (ROADMAP item 6).
//
// False positives are suppressed per line with a
// `//repro:allow <analyzer>: <reason>` comment on the offending line or
// the line directly above it; docs/lint.md catalogs the syntax and the
// legitimate reasons (lazy one-time init, amortized buffer growth,
// retained allocating reference paths).
package invarcheck

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position. File is relative
// to the module root, so findings print stably as "file:line: message".
type Finding struct {
	File     string
	Line     int
	Analyzer string
	Msg      string
}

// String renders the finding in the canonical "file:line: [analyzer] msg"
// shape golden tests and the CLI print.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Analyzer, f.Msg)
}

// Config selects what Run scans and which rule tables apply. The zero
// value is not usable: Root is required. Tests point Dirs at fixture
// packages and override the rule tables; the CLI runs the defaults over
// the whole tree.
type Config struct {
	// Root is the module root directory; `go build` / `go list` run here
	// and finding paths are reported relative to it.
	Root string

	// Dirs lists package directories (relative to Root) to scan. Empty
	// means every package of the module (`./...`).
	Dirs []string

	// Analyzers names the sub-analyzers to run (nil = all).
	Analyzers []string

	// CodecBands maps an import-path suffix to its inclusive reserved
	// [lo, hi] codec-id range. Nil uses DefaultCodecBands.
	CodecBands map[string][2]uint16

	// ErrClassPkgs lists import-path suffixes whose packages the errclass
	// analyzer applies to. Nil uses DefaultErrClassPkgs.
	ErrClassPkgs []string
}

// DefaultCodecBands mirrors the id reservation table documented on
// mpi.CodecID: builtin codecs, then one band per payload-owning package.
func DefaultCodecBands() map[string][2]uint16 {
	return map[string][2]uint16{
		"internal/mpi":        {1, 31},
		"internal/mpiio":      {32, 47},
		"internal/compositor": {48, 63},
		"internal/core":       {64, 95},
	}
}

// DefaultErrClassPkgs returns the packages whose error constructions must
// carry a pfs classification (docs/faults.md): the storage layer and the
// MPI-IO layer above it.
func DefaultErrClassPkgs() []string {
	return []string{"internal/pfs", "internal/mpiio"}
}

// AllAnalyzers lists every sub-analyzer in the order findings are
// reported by the CLI's usage text and docs/lint.md.
var AllAnalyzers = []string{"allocfree", "codecid", "decodealias", "scratchconfine", "errclass", "deadexport"}

// pkg is one loaded package: the `go list` metadata plus every parsed
// file (sources, in-package tests, external tests), keyed by absolute
// path.
type pkg struct {
	Dir          string
	ImportPath   string
	Name         string
	GoFiles      []string // absolute paths
	TestGoFiles  []string
	XTestGoFiles []string

	files map[string]*ast.File // all parsed files by absolute path

	// Set by typeCheck: the checked package and the Defs/Uses/Types of
	// every file above.
	types *types.Package
	info  *types.Info
}

// sortedFiles returns every parsed file's absolute path in sorted order,
// so analyzers that attribute "first seen" sites iterate deterministically.
func (p *pkg) sortedFiles() []string {
	var names []string
	for f := range p.files {
		names = append(names, f)
	}
	sort.Strings(names)
	return names
}

// isTestFile reports whether abs is one of the package's test files.
func (p *pkg) isTestFile(abs string) bool {
	base := filepath.Base(abs)
	for _, f := range p.TestGoFiles {
		if filepath.Base(f) == base {
			return true
		}
	}
	for _, f := range p.XTestGoFiles {
		if filepath.Base(f) == base {
			return true
		}
	}
	return false
}

// runner carries the shared state of one Run: config, file set, loaded
// packages and the per-file suppression tables.
type runner struct {
	cfg  Config
	fset *token.FileSet
	pkgs []*pkg

	// suppress maps root-relative file -> line -> analyzers allowed there.
	suppress map[string]map[int][]string

	exports     map[string]string // import path -> export data file
	exportsErr  error
	exportsOnce bool
	typed       bool // typeCheck has run
}

// Run loads the configured packages and applies every selected analyzer,
// returning the surviving (unsuppressed) findings sorted by position.
func Run(cfg Config) ([]Finding, error) {
	if abs, err := filepath.Abs(cfg.Root); err == nil {
		cfg.Root = abs
	}
	r := &runner{cfg: cfg, fset: token.NewFileSet(), suppress: map[string]map[int][]string{}}
	if err := r.load(); err != nil {
		return nil, err
	}
	want := map[string]bool{}
	if len(cfg.Analyzers) == 0 {
		for _, a := range AllAnalyzers {
			want[a] = true
		}
	} else {
		for _, a := range cfg.Analyzers {
			want[a] = true
		}
	}
	var fs []Finding
	add := func(more []Finding, err error) error {
		fs = append(fs, more...)
		return err
	}
	if want["codecid"] {
		if err := add(r.codecID()); err != nil {
			return nil, err
		}
	}
	if want["decodealias"] {
		if err := add(r.decodeAlias()); err != nil {
			return nil, err
		}
	}
	if want["errclass"] {
		if err := add(r.errClass()); err != nil {
			return nil, err
		}
	}
	if want["scratchconfine"] {
		if err := add(r.scratchConfine()); err != nil {
			return nil, err
		}
	}
	if want["deadexport"] {
		if err := add(r.deadExport()); err != nil {
			return nil, err
		}
	}
	if want["allocfree"] {
		if err := add(r.allocFree()); err != nil {
			return nil, err
		}
	}
	fs = r.filterSuppressed(fs)
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].File != fs[j].File {
			return fs[i].File < fs[j].File
		}
		if fs[i].Line != fs[j].Line {
			return fs[i].Line < fs[j].Line
		}
		return fs[i].Msg < fs[j].Msg
	})
	return fs, nil
}

// goList runs `go list -json` over the configured dirs and decodes the
// stream of package objects.
func (r *runner) load() error {
	args := []string{"list", "-json"}
	if len(r.cfg.Dirs) == 0 {
		args = append(args, "./...")
	} else {
		for _, d := range r.cfg.Dirs {
			args = append(args, "./"+filepath.ToSlash(filepath.Clean(d)))
		}
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = r.cfg.Root
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("invarcheck: go list: %v\n%s", err, errb.String())
	}
	dec := json.NewDecoder(&out)
	for dec.More() {
		var jp struct {
			Dir          string
			ImportPath   string
			Name         string
			GoFiles      []string
			TestGoFiles  []string
			XTestGoFiles []string
		}
		if err := dec.Decode(&jp); err != nil {
			return fmt.Errorf("invarcheck: decoding go list output: %v", err)
		}
		p := &pkg{Dir: jp.Dir, ImportPath: jp.ImportPath, Name: jp.Name, files: map[string]*ast.File{}}
		abs := func(names []string) []string {
			var a []string
			for _, n := range names {
				a = append(a, filepath.Join(jp.Dir, n))
			}
			return a
		}
		p.GoFiles = abs(jp.GoFiles)
		p.TestGoFiles = abs(jp.TestGoFiles)
		p.XTestGoFiles = abs(jp.XTestGoFiles)
		for _, f := range append(append(append([]string{}, p.GoFiles...), p.TestGoFiles...), p.XTestGoFiles...) {
			af, err := parser.ParseFile(r.fset, f, nil, parser.ParseComments)
			if err != nil {
				return fmt.Errorf("invarcheck: %v", err)
			}
			p.files[f] = af
			r.recordSuppressions(f, af)
		}
		r.pkgs = append(r.pkgs, p)
	}
	return nil
}

// rel converts an absolute source path to the root-relative form findings
// are reported in.
func (r *runner) rel(abs string) string {
	if p, err := filepath.Rel(r.cfg.Root, abs); err == nil {
		return filepath.ToSlash(p)
	}
	return filepath.ToSlash(abs)
}

// position resolves a token.Pos to (root-relative file, line).
func (r *runner) position(pos token.Pos) (string, int) {
	p := r.fset.Position(pos)
	return r.rel(p.Filename), p.Line
}

var allowRe = regexp.MustCompile(`^//repro:allow ([a-z]+)(?::.*)?$`)

// recordSuppressions harvests `//repro:allow <analyzer>[: reason]`
// comments; each suppresses findings of that analyzer on its own line and
// on the line directly below it.
func (r *runner) recordSuppressions(abs string, af *ast.File) {
	rel := r.rel(abs)
	for _, cg := range af.Comments {
		for _, c := range cg.List {
			m := allowRe.FindStringSubmatch(strings.TrimSpace(c.Text))
			if m == nil {
				continue
			}
			line := r.fset.Position(c.Pos()).Line
			t := r.suppress[rel]
			if t == nil {
				t = map[int][]string{}
				r.suppress[rel] = t
			}
			t[line] = append(t[line], m[1])
		}
	}
}

// filterSuppressed drops findings covered by a same-line or
// line-above suppression comment for their analyzer.
func (r *runner) filterSuppressed(fs []Finding) []Finding {
	keep := fs[:0]
	for _, f := range fs {
		if r.suppressed(f) {
			continue
		}
		keep = append(keep, f)
	}
	return keep
}

func (r *runner) suppressed(f Finding) bool {
	t := r.suppress[f.File]
	if t == nil {
		return false
	}
	for _, line := range []int{f.Line, f.Line - 1} {
		for _, a := range t[line] {
			if a == f.Analyzer {
				return true
			}
		}
	}
	return false
}

// exportData returns the import-path -> export-file table, produced once
// per Run by `go list -export -deps -test`. scratchconfine's type checker
// feeds it to the gc importer so module-local imports resolve without any
// non-stdlib dependency.
func (r *runner) exportData() (map[string]string, error) {
	if r.exportsOnce {
		return r.exports, r.exportsErr
	}
	r.exportsOnce = true
	args := []string{"list", "-export", "-deps", "-test", "-f", "{{.ImportPath}}\t{{.Export}}"}
	if len(r.cfg.Dirs) == 0 {
		args = append(args, "./...")
	} else {
		for _, d := range r.cfg.Dirs {
			args = append(args, "./"+filepath.ToSlash(filepath.Clean(d)))
		}
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = r.cfg.Root
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		r.exportsErr = fmt.Errorf("invarcheck: go list -export: %v\n%s", err, errb.String())
		return nil, r.exportsErr
	}
	m := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		path, exp, ok := strings.Cut(strings.TrimSpace(line), "\t")
		if !ok || exp == "" {
			continue
		}
		// Test variants list as "path [root.test]"; the plain path form is
		// what import statements use.
		if i := strings.IndexByte(path, ' '); i >= 0 {
			path = path[:i]
		}
		if _, dup := m[path]; !dup {
			m[path] = exp
		}
	}
	r.exports = m
	r.exportsErr = nil
	return m, nil
}
