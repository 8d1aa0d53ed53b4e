package dualvdd_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"dualvdd"
)

// TestGscaleInfSeparatorPoints runs Gscale cold at the rails where no gate on
// the critical-path network can be upsized within the area budget, so every
// separator node weighs Inf and the max flow once wrapped negative and
// panicked in graph.MinVertexCut. Each point must now finish with timing met,
// and its row is pinned bit for bit.
func TestGscaleInfSeparatorPoints(t *testing.T) {
	ctx := context.Background()
	var b strings.Builder
	for _, name := range []string{"C1355", "C499"} {
		for _, vlow := range []float64{3.64, 3.66, 3.68, 3.70, 3.72} {
			flow := dualvdd.New(dualvdd.WithVoltages(5.0, vlow))
			d, err := flow.PrepareBenchmark(ctx, name)
			if err != nil {
				t.Fatal(err)
			}
			r, err := d.RunAlgorithm(ctx, dualvdd.AlgoGscale)
			if err != nil {
				t.Fatalf("%s at %.2f V: %v", name, vlow, err)
			}
			if r.WorstSlack < -1e-6 {
				t.Errorf("%s at %.2f V: timing violated, slack %g", name, vlow, r.WorstSlack)
			}
			fmt.Fprintf(&b, "%s %.2f power=%016x improve=%.4f gates=%d low=%d lcs=%d sized=%d area=%016x slack=%016x sta=%d\n",
				name, vlow, math.Float64bits(r.Power), r.ImprovePct, r.Gates, r.LowGates, r.LCs, r.Sized,
				math.Float64bits(r.AreaIncrease), math.Float64bits(r.WorstSlack), r.STAEvals)
		}
	}
	checkGolden(t, "gscale_inf.golden", b.String())
}
