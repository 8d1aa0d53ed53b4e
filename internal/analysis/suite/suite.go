// Package suite enumerates the dualvdd analyzers in the order they are run
// and reported. cmd/dualvdd-lint and the analyzer integration tests share
// this list so the driver, its tests and CI can never drift.
package suite

import (
	"dualvdd/internal/analysis"
	"dualvdd/internal/analysis/passes/ctxflow"
	"dualvdd/internal/analysis/passes/detrange"
	"dualvdd/internal/analysis/passes/eventreg"
	"dualvdd/internal/analysis/passes/lockcheck"
	"dualvdd/internal/analysis/passes/nilness"
	"dualvdd/internal/analysis/passes/noclock"
	"dualvdd/internal/analysis/passes/shadow"
)

// Analyzers returns the full suite, alphabetical by name.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxflow.Analyzer,
		detrange.Analyzer,
		eventreg.Analyzer,
		lockcheck.Analyzer,
		nilness.Analyzer,
		noclock.Analyzer,
		shadow.Analyzer,
	}
}
