package dualvdd

import (
	"context"
	"fmt"
	"testing"
)

// TestRunAtSharesOneCVS measures the engine work behind one RunAt. The three
// algorithms begin with the same CVS clustering, which a warm point runs
// once, so the engine evaluates two CVS runs fewer than the results'
// STAEvals add up to, while each result still reports a standalone run's
// count. A single algorithm shares nothing: the engine does exactly its
// work.
func TestRunAtSharesOneCVS(t *testing.T) {
	ctx := context.Background()
	for _, circuit := range []string{"x2", "rot"} {
		wd, err := New(WithSimWords(16)).PrepareWarmBenchmark(ctx, circuit)
		if err != nil {
			t.Fatalf("prepare %s: %v", circuit, err)
		}
		for _, rails := range [][]float64{{5, 4.3}, {5, 3.7}} {
			label := fmt.Sprintf("%s at %v", circuit, rails)
			before := wd.inc.Evals()
			res, err := wd.RunAt(ctx, rails, nil, nil)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if res[0].Algorithm != string(AlgoCVS) || res[0].STAEvals == 0 {
				t.Fatalf("%s: first result %s with %d evaluations, want a CVS run that did work",
					label, res[0].Algorithm, res[0].STAEvals)
			}
			var sum int64
			for _, r := range res {
				sum += r.STAEvals
			}
			cvs := res[0].STAEvals
			if got, want := wd.inc.Evals()-before, sum-2*cvs; got != want {
				t.Errorf("%s: engine ran %d evaluations, want %d (results sum to %d, CVS %d)",
					label, got, want, sum, cvs)
			}

			before = wd.inc.Evals()
			res, err = wd.RunAt(ctx, rails, []Algorithm{AlgoGscale}, nil)
			if err != nil {
				t.Fatalf("%s Gscale: %v", label, err)
			}
			if got := wd.inc.Evals() - before; got != res[0].STAEvals {
				t.Errorf("%s: Gscale alone ran %d evaluations, reports %d", label, got, res[0].STAEvals)
			}
		}
	}
}
