package mapper

import (
	"testing"

	"dualvdd/internal/cell"
	"dualvdd/internal/logic"
	"dualvdd/internal/mcnc"
	"dualvdd/internal/sta"
)

// BenchmarkMap maps the 39-circuit suite at slack factor 1.2, the paper's
// setup, per op: covering, emission and area recovery. recover_evals is the
// per-gate timing evaluations area recovery's engines spend over the suite,
// from one more pass outside the timer.
func BenchmarkMap(b *testing.B) {
	lib := cell.Compass06()
	var nets []*logic.Network
	for _, name := range mcnc.Names() {
		n, err := mcnc.Generate(name)
		if err != nil {
			b.Fatal(err)
		}
		nets = append(nets, n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range nets {
			if _, err := Map(n, lib, 1.2); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	var evals int64
	for _, n := range nets {
		ckt, minDelay, err := minDelayCover(n, lib)
		if err != nil {
			b.Fatal(err)
		}
		inc, err := sta.NewIncremental(ckt, lib, minDelay*1.2)
		if err != nil {
			b.Fatal(err)
		}
		recoverOn(inc, timingEps)
		evals += inc.Evals()
	}
	b.ReportMetric(float64(evals), "recover_evals")
}
