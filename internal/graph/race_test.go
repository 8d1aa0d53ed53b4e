//go:build race

package graph

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
