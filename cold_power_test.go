package dualvdd_test

import (
	"context"
	"math"
	"testing"

	"dualvdd"
	"dualvdd/internal/power"
)

// TestColdPowerMatchesFreshSimulation is the oracle behind cold pricing.
// Design.RunAlgorithm prices the scaled circuit from the prepared activity
// table (extended by Dscale's aliased converter entries) rather than
// simulating it, on the argument that no supply move, level converter or
// resize changes a logic value. Here every suite circuit's CVS, Dscale and
// Gscale results are re-measured by a fresh random-vector simulation of the
// returned scaled circuit, and must agree bit for bit.
func TestColdPowerMatchesFreshSimulation(t *testing.T) {
	points := []struct {
		name  string
		rails []float64
		long  bool
	}{
		{"paper", []float64{5.0, 4.3}, false},
		{"three-rail", []float64{5.0, 4.3, 3.3}, true},
		{"vddl-3.0", []float64{5.0, 3.0}, true},
	}
	ctx := context.Background()
	for _, p := range points {
		t.Run(p.name, func(t *testing.T) {
			if p.long && testing.Short() {
				t.Skip("the paper's point covers -short")
			}
			flow := dualvdd.New(dualvdd.WithRails(p.rails...))
			cfg := flow.Config()
			for _, name := range dualvdd.Benchmarks() {
				d, err := flow.PrepareBenchmark(ctx, name)
				if err != nil {
					t.Fatal(err)
				}
				for _, algo := range dualvdd.Algorithms() {
					res, err := d.RunAlgorithm(ctx, algo)
					if err != nil {
						t.Fatal(err)
					}
					want, _, err := power.EstimateRandom(ctx, res.Circuit, d.Lib, cfg.SimWords, cfg.Seed, cfg.Fclk)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(res.Power) != math.Float64bits(want) {
						t.Errorf("%s %s: cold power %v, fresh simulation %v", name, algo, res.Power, want)
					}
				}
			}
		})
	}
}
