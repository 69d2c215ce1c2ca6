package invarcheck

import (
	"io/fs"
	"os"
	"path/filepath"
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

func TestDecodeAlias(t *testing.T) {
	fixture(t, Config{
		Dirs: []string{
			fixtureDir + "decodealias_bad",
			fixtureDir + "decodealias_clean",
		},
		Analyzers: []string{"decodealias"},
	}, []string{
		fixtureDir + "decodealias_bad/decodealias_bad.go:24: [decodealias] decoded payload retains the wire buffer in field \"f.payload\"; copy — the reader reuses the frame scratch",
		fixtureDir + "decodealias_bad/decodealias_bad.go:25: [decodealias] decoded payload retains the wire buffer in package variable \"lastPayload\"; copy — the reader reuses the frame scratch",
		fixtureDir + "decodealias_bad/decodealias_bad.go:26: [decodealias] decoded payload returns an alias of the wire buffer; copy — the reader reuses the frame scratch",
		fixtureDir + "decodealias_bad/decodealias_bad.go:32: [decodealias] decoded payload returns an alias of the wire buffer; copy — the reader reuses the frame scratch",
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
