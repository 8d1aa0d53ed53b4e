// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects one
// type-checked package at a time and reports position-anchored Diagnostics.
//
// The module is intentionally stdlib-only, so rather than importing x/tools
// this package defines the same shape of API (Analyzer, Pass, Diagnostic)
// against the standard go/ast and go/types packages. The one driver lives
// in internal/analysis/driver (a multichecker over `go list` output), and
// internal/analysis/analysistest runs it as a `// want`-comment test
// harness. The project-specific analyzers live under
// internal/analysis/passes.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one analysis pass: a named rule with a Run function
// applied independently to each loaded package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command line.
	// It must be a valid Go identifier.
	Name string

	// Doc is the one-paragraph description shown by `dualvdd-lint help`.
	Doc string

	// Run applies the analyzer to a single package. It may report
	// diagnostics via pass.Report/Reportf. A non-nil error aborts the
	// whole run (reserved for internal failures, not findings).
	Run func(*Pass) error
}

// Pass carries one type-checked package to an Analyzer's Run function.
type Pass struct {
	Analyzer *Analyzer

	Fset  *token.FileSet
	Files []*ast.File

	// Pkg is the type-checked package; Path() is the import path used by
	// the scope filters in internal/analysis/lintutil.
	Pkg *types.Package

	// TypesInfo holds the type-checking facts (Defs, Uses, Types,
	// Selections, Scopes) for Files.
	TypesInfo *types.Info

	// Report delivers a finding to the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Validate checks that the analyzers are well formed (unique, non-empty
// names and Run functions) before a driver runs them.
func Validate(analyzers []*Analyzer) error {
	seen := make(map[string]bool)
	for _, a := range analyzers {
		if a.Name == "" {
			return fmt.Errorf("analysis: analyzer with empty name")
		}
		if a.Run == nil {
			return fmt.Errorf("analysis: analyzer %q has no Run function", a.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("analysis: duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	return nil
}

// Inspect walks every file in the pass in depth-first order, calling f for
// each node. If f returns false the node's children are skipped. It is the
// moral equivalent of ast.Inspect over all pass files, provided here so the
// passes do not each reimplement the loop.
func (p *Pass) Inspect(f func(ast.Node) bool) {
	for _, file := range p.Files {
		ast.Inspect(file, f)
	}
}

// FileOf returns the *ast.File containing pos, or nil.
func (p *Pass) FileOf(pos token.Pos) *ast.File {
	for _, file := range p.Files {
		if file.FileStart <= pos && pos < file.FileEnd {
			return file
		}
	}
	return nil
}

// InTestFile reports whether pos falls in a _test.go file. The project's
// determinism and clock rules govern shipped code; tests are exempt (the
// repo-level errcheck run is likewise -ignoretests).
func (p *Pass) InTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	if f == nil {
		return false
	}
	name := f.Name()
	return len(name) >= len("_test.go") && name[len(name)-len("_test.go"):] == "_test.go"
}
