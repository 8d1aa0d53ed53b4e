// Command dualvdd-lint machine-checks the repo's determinism, context, and
// concurrency invariants with the analyzer suite in internal/analysis:
//
//	dualvdd-lint ./...
//
// It resolves go list patterns (default ./...) and runs every analyzer (see
// `dualvdd-lint -help` for the list) over the non-test files of each matched
// package, which is all the analyzers read: each skips _test.go files. Exit
// status is non-zero when any diagnostic is reported.
package main

import (
	"flag"
	"fmt"
	"os"

	"dualvdd/internal/analysis/driver"
	"dualvdd/internal/analysis/suite"
)

func main() {
	analyzers := suite.Analyzers()

	fs := flag.NewFlagSet("dualvdd-lint", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: dualvdd-lint [packages]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(fs.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	_ = fs.Parse(os.Args[1:])
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := driver.Load(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dualvdd-lint:", err)
		os.Exit(1)
	}
	findings, err := driver.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dualvdd-lint:", err)
		os.Exit(1)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "dualvdd-lint: %d finding(s)\n", len(findings))
		os.Exit(2)
	}
}
