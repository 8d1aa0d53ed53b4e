// Benchmarks regenerating the paper's evaluation. One benchmark per table:
//
//	go test -bench 'BenchmarkTable1' -benchtime 1x   # Table 1, all circuits
//	go test -bench 'BenchmarkTable2' -benchtime 1x   # Table 2 profiles
//	go test -bench 'Table1/C880' -benchtime 1x       # one circuit
//	go test -bench 'BenchmarkAblation' -benchtime 1x # design-choice ablations
//
// Each sub-benchmark reports the quantities of the corresponding table row
// as custom metrics (improvement %, low-voltage ratio, sized gates, area),
// so `-bench` output is the reproduction. Absolute power values depend on
// this repository's calibrated library; the trend shape is what matches the
// paper (see EXPERIMENTS.md).
package dualvdd_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"dualvdd"
	"dualvdd/internal/cell"
	"dualvdd/internal/netlist"
	"dualvdd/internal/report"
	"dualvdd/internal/sim"
	"dualvdd/internal/sta"
)

// smallSuite is the subset used where running all 39 circuits would be too
// slow for routine benching; the full suite runs via cmd/tables.
var smallSuite = []string{
	"z4ml", "mux", "C432", "C880", "alu2", "b9", "sct", "apex7", "my_adder", "C499",
}

// fullSuite toggles per-circuit benches between the 10-circuit subset and
// the full 39; `go test -bench Table1 -benchtime 1x -timeout 30m -run XXX
// -tags full` is not needed — the full table is cmd/tables' job.
var benchCircuits = smallSuite

// BenchmarkTable1 regenerates Table 1 rows: power improvement of CVS, Dscale
// and Gscale over the single-supply original.
func BenchmarkTable1(b *testing.B) {
	cfg := dualvdd.DefaultConfig()
	for _, name := range benchCircuits {
		b.Run(name, func(b *testing.B) {
			var row report.Row
			for i := 0; i < b.N; i++ {
				row = tableRows(b, cfg, 1, name)[0]
			}
			b.ReportMetric(row.OrgPwrUW, "orgPwr_uW")
			b.ReportMetric(row.CVSPct, "CVS_%")
			b.ReportMetric(row.DscalePct, "Dscale_%")
			b.ReportMetric(row.GscalePct, "Gscale_%")
			// Scaling-loop wall time per algorithm: the incremental-STA
			// speedup shows up here, independently of prepare/sim cost.
			b.ReportMetric(row.CVSSec*1e3, "CVS_ms")
			b.ReportMetric(row.DscaleSec*1e3, "Dscale_ms")
			b.ReportMetric(row.CPUSec*1e3, "Gscale_ms")
			b.ReportMetric(float64(row.DscaleEvals), "Dscale_staEvals")
			b.ReportMetric(float64(row.GscaleEvals), "Gscale_staEvals")
			// Candidate-cache effectiveness: the full-rescan equivalent is
			// gates × (rounds+1); the drop is the incremental win.
			b.ReportMetric(float64(row.DscaleCandEvals), "Dscale_candEvals")
		})
	}
}

// BenchmarkTable2 regenerates Table 2 rows: low-voltage gate counts/ratios
// per algorithm and Gscale's sizing profile.
func BenchmarkTable2(b *testing.B) {
	cfg := dualvdd.DefaultConfig()
	for _, name := range benchCircuits {
		b.Run(name, func(b *testing.B) {
			var row report.Row
			for i := 0; i < b.N; i++ {
				row = tableRows(b, cfg, 1, name)[0]
			}
			b.ReportMetric(float64(row.OrgGates), "gates")
			b.ReportMetric(row.CVSRatio, "CVS_lowRatio")
			b.ReportMetric(row.DscaleRatio, "Dscale_lowRatio")
			b.ReportMetric(row.GscRatio, "Gscale_lowRatio")
			b.ReportMetric(float64(row.Sized), "sized")
			b.ReportMetric(row.AreaInc, "areaInc")
		})
	}
}

// BenchmarkBatchSuite sweeps the routine subset through the tables path at
// increasing worker counts: the wall-clock ratio to workers=1 is the
// parallel-evaluation win, on results that are bit-identical by
// construction (TestBatchDeterminismAcrossWorkers).
func BenchmarkBatchSuite(b *testing.B) {
	cfg := dualvdd.DefaultConfig()
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var rows []report.Row
			for i := 0; i < b.N; i++ {
				rows = tableRows(b, cfg, workers, smallSuite...)
			}
			avg := report.Averages(rows)
			b.ReportMetric(avg.GscalePct, "Gscale_%")
			b.ReportMetric(float64(len(rows)), "circuits")
		})
	}
}

// BenchmarkAblationGreedyDscale compares Dscale's maximum-weight-independent-
// set selection (the paper's formulation) against a greedy baseline.
func BenchmarkAblationGreedyDscale(b *testing.B) {
	for _, greedy := range []bool{false, true} {
		label := "mwis"
		if greedy {
			label = "greedy"
		}
		b.Run(label, func(b *testing.B) {
			ctx, flow := context.Background(), dualvdd.New(dualvdd.WithGreedySelect(greedy))
			var pct float64
			for i := 0; i < b.N; i++ {
				d, err := flow.PrepareBenchmark(ctx, "C880")
				if err != nil {
					b.Fatal(err)
				}
				res, err := d.RunAlgorithm(ctx, dualvdd.AlgoDscale)
				if err != nil {
					b.Fatal(err)
				}
				pct = res.ImprovePct
			}
			b.ReportMetric(pct, "Dscale_%")
		})
	}
}

// BenchmarkAblationGreedySizing compares Gscale's minimum-weight separator
// (the paper's min-cut formulation, which it solves with Edmonds–Karp; the
// Dinic solver here finds the same cut) against sizing one gate at a time.
func BenchmarkAblationGreedySizing(b *testing.B) {
	for _, greedy := range []bool{false, true} {
		label := "separator"
		if greedy {
			label = "single-gate"
		}
		b.Run(label, func(b *testing.B) {
			ctx, flow := context.Background(), dualvdd.New(dualvdd.WithGreedySizing(greedy))
			var pct, ratio float64
			for i := 0; i < b.N; i++ {
				d, err := flow.PrepareBenchmark(ctx, "C499")
				if err != nil {
					b.Fatal(err)
				}
				res, err := d.RunAlgorithm(ctx, dualvdd.AlgoGscale)
				if err != nil {
					b.Fatal(err)
				}
				pct, ratio = res.ImprovePct, res.LowRatio
			}
			b.ReportMetric(pct, "Gscale_%")
			b.ReportMetric(ratio, "lowRatio")
		})
	}
}

// BenchmarkAblationVlowSweep explores the voltage pair choice around the
// paper's (5, 4.3): lower Vlow saves more per gate but its delay penalty
// shrinks the set of gates that can take it.
func BenchmarkAblationVlowSweep(b *testing.B) {
	for _, vlow := range []float64{4.7, 4.5, 4.3, 4.0, 3.7, 3.4} {
		b.Run(fmt.Sprintf("vlow=%.1f", vlow), func(b *testing.B) {
			ctx, flow := context.Background(), dualvdd.New(dualvdd.WithVoltages(5.0, vlow))
			var pct, ratio float64
			for i := 0; i < b.N; i++ {
				d, err := flow.PrepareBenchmark(ctx, "C880")
				if err != nil {
					b.Fatal(err)
				}
				res, err := d.RunAlgorithm(ctx, dualvdd.AlgoGscale)
				if err != nil {
					b.Fatal(err)
				}
				pct, ratio = res.ImprovePct, res.LowRatio
			}
			b.ReportMetric(pct, "Gscale_%")
			b.ReportMetric(ratio, "lowRatio")
		})
	}
}

// BenchmarkAblationMaxIter probes Gscale's sensitivity to the unsuccessful-
// push bound (the paper fixes maxIter = 10).
func BenchmarkAblationMaxIter(b *testing.B) {
	for _, maxIter := range []int{0, 1, 3, 10, 30} {
		b.Run(fmt.Sprintf("maxIter=%d", maxIter), func(b *testing.B) {
			ctx, flow := context.Background(), dualvdd.New(dualvdd.WithMaxIter(maxIter))
			var pct float64
			for i := 0; i < b.N; i++ {
				d, err := flow.PrepareBenchmark(ctx, "alu2")
				if err != nil {
					b.Fatal(err)
				}
				res, err := d.RunAlgorithm(ctx, dualvdd.AlgoGscale)
				if err != nil {
					b.Fatal(err)
				}
				pct = res.ImprovePct
			}
			b.ReportMetric(pct, "Gscale_%")
		})
	}
}

// BenchmarkSim pits the compiled simulation engine against the reference
// interpreter on the largest routine circuits, at the evaluation's word count
// (SimWords = 256): the tape's one serial pass (the acceptance target: ≥ 4x
// over reference on des-class circuits), whose activity table is
// bit-identical to the reference's (TestCompiledMatchesReferenceOnSuite).
func BenchmarkSim(b *testing.B) {
	ctx := context.Background()
	cfg := dualvdd.DefaultConfig()
	for _, name := range []string{"C880", "alu4", "des"} {
		d, err := dualvdd.New().PrepareBenchmark(ctx, name)
		if err != nil {
			b.Fatal(err)
		}
		words, seed := cfg.SimWords, cfg.Seed
		b.Run("reference/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunReference(d.Circuit, words, seed); err != nil {
					b.Fatal(err)
				}
			}
		})
		p, err := sim.Compile(d.Circuit)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("compiled/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.Run(ctx, words, seed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIncrementalSTA pits the incremental timing engine against a full
// re-analysis per mutation on the largest routine circuits: the per-move
// cost that dominates every scaling loop. The mutation trace alternates
// voltage flips and resizes across the circuit, mimicking what CVS/Dscale/
// Gscale apply.
func BenchmarkIncrementalSTA(b *testing.B) {
	for _, name := range []string{"C880", "alu2", "des"} {
		d, err := dualvdd.New().PrepareBenchmark(context.Background(), name)
		if err != nil {
			b.Fatal(err)
		}
		mutations := func(ckt *netlist.Circuit) []int {
			var gis []int
			for gi, g := range ckt.Gates {
				if !g.Dead && !g.IsLC {
					gis = append(gis, gi)
				}
			}
			return gis
		}
		b.Run("full/"+name, func(b *testing.B) {
			ckt := d.Circuit.Clone()
			gis := mutations(ckt)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gi := gis[i%len(gis)]
				g := ckt.Gates[gi]
				if g.Volt == cell.VHigh {
					g.Volt = cell.VLow
				} else {
					g.Volt = cell.VHigh
				}
				if _, err := sta.Analyze(ckt, d.Lib, d.Tspec); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("incremental/"+name, func(b *testing.B) {
			ckt := d.Circuit.Clone()
			gis := mutations(ckt)
			inc, err := sta.NewIncremental(ckt, d.Lib, d.Tspec)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gi := gis[i%len(gis)]
				if ckt.Gates[gi].Volt == cell.VHigh {
					inc.SetVolt(gi, cell.VLow)
				} else {
					inc.SetVolt(gi, cell.VHigh)
				}
				inc.Commit()
			}
			b.ReportMetric(float64(inc.Evals())/float64(b.N), "evals/op")
		})
	}
}

// BenchmarkWarmRunAt times one warm sweep point: all three algorithms on
// C880's shared prepared state at one low rail per op, walking the 3.00 to
// 4.80 V axis in 0.02 V steps. It is the go-test view of the engine work
// behind a `sweep` point: the CVS clustering once, then each algorithm's
// continuation under the post-CVS mark.
func BenchmarkWarmRunAt(b *testing.B) {
	ctx := context.Background()
	wd, err := dualvdd.New().PrepareWarmBenchmark(ctx, "C880")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vlow := float64(300+2*(i%91)) / 100
		if _, err := wd.RunAt(ctx, []float64{5.0, vlow}, nil, nil); err != nil {
			b.Fatalf("at %.2f V: %v", vlow, err)
		}
	}
}

// BenchmarkRunAlgorithm times the cold path perfbench's tables op runs per
// circuit after preparation: Design.RunAlgorithm for CVS, Dscale and Gscale,
// each on a fresh clone and a fresh timing engine, verified by a full
// analysis and measured by a power simulation. C880 is a mid-size circuit,
// des the largest. Run with -benchmem: every engine grows its undo journal
// from empty, so the journal's record size shows in the allocations.
func BenchmarkRunAlgorithm(b *testing.B) {
	ctx, flow := context.Background(), dualvdd.New()
	for _, name := range []string{"C880", "des"} {
		d, err := flow.PrepareBenchmark(ctx, name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, algo := range flow.Algorithms() {
					if _, err := d.RunAlgorithm(ctx, algo); err != nil {
						b.Fatalf("%s: %v", algo, err)
					}
				}
			}
		})
	}
}

// BenchmarkJobKey times a job's two addresses. Key and GroupKey validate the
// job, read its canonical BLIF from the process-wide memo and hash it;
// <job>/cold is Key on a memo emptied every iteration, so it also builds the
// circuit (the MCNC generator or the BLIF parser) and writes its canonical
// BLIF. z4ml and C880 bracket the service mix and des is the largest
// circuit; the blif: jobs are the service circuits submitted inline. Run
// with -benchmem: a miss allocates the network and the canonical bytes, a
// hit neither.
func BenchmarkJobKey(b *testing.B) {
	type input struct {
		name string
		job  dualvdd.Job
	}
	var inputs []input
	for _, name := range []string{"z4ml", "C880", "des"} {
		inputs = append(inputs, input{name, dualvdd.BenchmarkJob(name)})
	}
	for _, name := range []string{"x2", "pm1", "z4ml"} {
		canon, err := dualvdd.Canonical(dualvdd.BenchmarkJob(name))
		if err != nil {
			b.Fatal(err)
		}
		inputs = append(inputs, input{"blif:" + name, dualvdd.BLIFJob(string(canon))})
	}
	for _, in := range inputs {
		for _, addr := range []struct {
			name string
			fn   func() (string, error)
		}{{"Key", in.job.Key}, {"GroupKey", in.job.GroupKey}} {
			b.Run(in.name+"/"+addr.name, func(b *testing.B) {
				if _, err := addr.fn(); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := addr.fn(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(in.name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dualvdd.ResetCanonMemo()
				if _, err := in.job.Key(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSubstrates times the building blocks in isolation so regressions
// in the underlying engines are visible independently of the full flow.
func BenchmarkSubstrates(b *testing.B) {
	ctx, flow := context.Background(), dualvdd.New()
	d, err := flow.PrepareBenchmark(ctx, "alu4")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("PrepareC880", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := flow.PrepareBenchmark(ctx, "C880"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("CVS-alu4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := d.RunAlgorithm(ctx, dualvdd.AlgoCVS); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Dscale-alu4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := d.RunAlgorithm(ctx, dualvdd.AlgoDscale); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Gscale-alu4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := d.RunAlgorithm(ctx, dualvdd.AlgoGscale); err != nil {
				b.Fatal(err)
			}
		}
	})
}
