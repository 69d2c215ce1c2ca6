// Command invarcheck runs the repository's invariant lint suite
// (internal/invarcheck) over the module: six static analyzers that
// machine-check the ownership, codec, allocation-free,
// error-classification and reachability contracts documented in
// docs/ownership.md, docs/faults.md and docs/lint.md. `make lint` (and
// through it `make check` and CI) runs it from the module root; it exits 1
// with one "file:line: [analyzer] message" diagnostic per finding, 2 on
// internal failure.
//
// Usage:
//
//	invarcheck [-only analyzer[,analyzer...]] [module root]
//
// The module root defaults to the current directory. -only restricts the
// run to a comma-separated subset of analyzers (allocfree, codecid,
// decodealias, scratchconfine, errclass, deadexport) — handy while
// iterating on one rule.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/invarcheck"
)

func main() {
	only := flag.String("only", "", "comma-separated subset of analyzers to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: invarcheck [-only analyzer,...] [module root]\nanalyzers: %s\n",
			strings.Join(invarcheck.AllAnalyzers, ", "))
	}
	flag.Parse()
	root := "."
	if flag.NArg() > 1 {
		flag.Usage()
		os.Exit(2)
	}
	if flag.NArg() == 1 {
		root = flag.Arg(0)
	}
	cfg := invarcheck.Config{Root: root}
	if *only != "" {
		for _, a := range strings.Split(*only, ",") {
			a = strings.TrimSpace(a)
			known := false
			for _, k := range invarcheck.AllAnalyzers {
				known = known || a == k
			}
			if !known {
				fmt.Fprintf(os.Stderr, "invarcheck: unknown analyzer %q\n", a)
				os.Exit(2)
			}
			cfg.Analyzers = append(cfg.Analyzers, a)
		}
	}
	findings, err := invarcheck.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "invarcheck: %v\n", err)
		os.Exit(2)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "invarcheck: %d invariant violation(s):\n", len(findings))
		for _, f := range findings {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		os.Exit(1)
	}
}
