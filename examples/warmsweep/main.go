// Warmsweep is the warm-sweep self-check: the paper-style 9-point VDDL
// curve on rot/C7552/des, computed twice — once cold (every point a
// standalone Flow: map, simulate, analyze, relax from scratch) and once as a
// Sweep on a Local runner (one prepared state per circuit, every point
// re-converging only its own low rail on it). The program then enforces the
// two properties the runner's shared prepared state promises:
//
//  1. every sweep row is bit-identical to its cold row — same power, same
//     slack, same gate/LC/eval counts, down to the float bits, and
//  2. the combined evaluation count (simulation word-evals + full STA
//     gate-evals + incremental STA evals + candidate evals) shrinks by at
//     least -minx (default 5x).
//
// It prints the evaluation bill of both phases and exits non-zero on any
// violation, so CI can run it as a smoke under -race:
//
//	go run ./examples/warmsweep
//	go run -race ./examples/warmsweep -bench rot,C7552 -simwords 64
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dualvdd"
	"dualvdd/internal/sim"
	"dualvdd/internal/sta"
)

// counters is one phase's evaluation bill, as deltas of the process-wide
// counters plus the per-result eval totals the flow reports.
type counters struct {
	SimRuns      int64
	SimWordEvals int64
	FullAnalyses int64
	FullEvals    int64
	IncSTAEvals  int64
	CandEvals    int64
	WallMs       int64
}

// combined is the total evaluation count the reduction factor is computed
// over. Incremental STA and candidate evals are identical cold and warm (the
// algorithms do the same work either way) — including them keeps the factor
// honest instead of comparing only the work warm-start eliminates.
func (c counters) combined() int64 {
	return c.SimWordEvals + c.FullEvals + c.IncSTAEvals + c.CandEvals
}

// snapshot reads the process-wide eval counters.
func snapshot() (simRuns, simWords, fullA, fullE int64) {
	return sim.Runs(), sim.WordEvals(), sta.FullAnalyses(), sta.FullEvals()
}

// measure runs one phase, which returns each point's results, and bills it.
func measure(f func() ([][]*dualvdd.FlowResult, error)) ([][]*dualvdd.FlowResult, counters, error) {
	r0, w0, a0, e0 := snapshot()
	start := time.Now()
	results, err := f()
	wall := time.Since(start)
	r1, w1, a1, e1 := snapshot()
	c := counters{
		SimRuns: r1 - r0, SimWordEvals: w1 - w0,
		FullAnalyses: a1 - a0, FullEvals: e1 - e0,
		WallMs: wall.Milliseconds(),
	}
	for _, point := range results {
		for _, fr := range point {
			c.IncSTAEvals += fr.STAEvals
			c.CandEvals += fr.CandEvals
		}
	}
	return results, c, err
}

func bitEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// diffRows compares one point's cold and warm results field by field and
// reports the number of mismatches (printing each).
func diffRows(pt dualvdd.SweepPoint, cold, warm []*dualvdd.FlowResult) int {
	label := fmt.Sprintf("%s vddl=%.1f", pt.Circuit.Benchmark, pt.Config.Rails[1])
	if len(cold) != len(warm) {
		fmt.Printf("FAIL %s: %d cold results vs %d warm\n", label, len(cold), len(warm))
		return 1
	}
	bad := 0
	for i, c := range cold {
		w := warm[i]
		ok := c.Algorithm == w.Algorithm &&
			bitEq(c.Power, w.Power) && bitEq(c.ImprovePct, w.ImprovePct) &&
			bitEq(c.LowRatio, w.LowRatio) && bitEq(c.AreaIncrease, w.AreaIncrease) &&
			bitEq(c.WorstSlack, w.WorstSlack) &&
			c.Gates == w.Gates && c.LowGates == w.LowGates &&
			c.LCs == w.LCs && c.Sized == w.Sized &&
			c.STAEvals == w.STAEvals && c.CandEvals == w.CandEvals
		if !ok {
			fmt.Printf("FAIL %s/%s: cold %+v vs warm %+v\n", label, c.Algorithm, c, w)
			bad++
		}
	}
	return bad
}

func main() {
	bench := flag.String("bench", "rot,C7552,des", "comma-separated benchmarks")
	vddl := flag.String("vddl", "3.1,3.3,3.5,3.7,3.9,4.1,4.3,4.5,4.7", "VDDL axis (comma list, volts)")
	simwords := flag.Int("simwords", 256, "simulation words per power estimate")
	minx := flag.Float64("minx", 5, "minimum combined-eval reduction factor")
	timeout := flag.Duration("timeout", 15*time.Minute, "overall deadline")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	var vals []float64
	for _, p := range strings.Split(*vddl, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			log.Fatalf("bad -vddl entry %q: %v", p, err)
		}
		vals = append(vals, v)
	}
	var benches []string
	for _, b := range strings.Split(*bench, ",") {
		if b = strings.TrimSpace(b); b != "" {
			benches = append(benches, b)
		}
	}

	base := dualvdd.DefaultConfig()
	base.SimWords = *simwords
	sweep := dualvdd.Sweep{
		Circuits: dualvdd.SweepBenchmarks(benches...),
		Base:     base,
		Axes:     dualvdd.Axes{VDDL: vals},
	}
	points, err := sweep.Points()
	if err != nil {
		log.Fatal(err)
	}

	// Cold: every point is a standalone Flow run — the oracle the sweep rows
	// are diffed against.
	fmt.Printf("cold: %d standalone Flow runs (%d circuits x %d rails), %d sim words\n",
		len(points), len(benches), len(vals), *simwords)
	coldRes, coldC, err := measure(func() ([][]*dualvdd.FlowResult, error) {
		return dualvdd.BatchMap(ctx, dualvdd.Batch{}, len(points),
			func(ctx context.Context, i int) ([]*dualvdd.FlowResult, error) {
				pt := points[i]
				flow := dualvdd.New(dualvdd.FromConfig(pt.Config), dualvdd.WithAlgorithms(pt.Algorithms...))
				d, err := flow.PrepareBenchmark(ctx, pt.Circuit.Benchmark)
				if err != nil {
					return nil, err
				}
				return flow.Run(ctx, d)
			})
	})
	if err != nil {
		log.Fatalf("cold runs: %v", err)
	}

	// Warm: a Sweep on a Local, one prepared state per circuit.
	fmt.Println("sweep: shared prepared state per circuit")
	local := dualvdd.NewLocal(dualvdd.LocalWorkers(runtime.GOMAXPROCS(0)))
	warmRes, warmC, err := measure(func() ([][]*dualvdd.FlowResult, error) {
		rows, err := sweep.Run(ctx, local)
		out := make([][]*dualvdd.FlowResult, len(rows))
		for i, row := range rows {
			if row.Status != nil {
				out[i] = row.Status.Results
			}
		}
		return out, err
	})
	m := local.Metrics()
	cctx, ccancel := context.WithTimeout(context.Background(), time.Minute)
	_ = local.Close(cctx)
	ccancel()
	if err != nil {
		log.Fatalf("sweep: %v", err)
	}

	// Bit-identity, point by point.
	bad, rows := 0, 0
	for i := range coldRes {
		rows += len(coldRes[i])
		bad += diffRows(points[i], coldRes[i], warmRes[i])
	}
	if m.PrepBuilds != int64(len(benches)) || m.PrepReuses != int64(len(points)-len(benches)) {
		fmt.Printf("FAIL prep accounting: %d builds / %d reuses, want %d / %d\n",
			m.PrepBuilds, m.PrepReuses, len(benches), len(points)-len(benches))
		bad++
	}

	ratio := func(a, b int64) float64 {
		if b == 0 {
			return math.Inf(1)
		}
		return float64(a) / float64(b)
	}
	combinedX := ratio(coldC.combined(), warmC.combined())
	fmt.Printf("\n%-22s %15s %15s %9s\n", "evaluations", "cold", "warm", "factor")
	for _, r := range []struct {
		name       string
		cold, warm int64
	}{
		{"sim word-evals", coldC.SimWordEvals, warmC.SimWordEvals},
		{"sim runs", coldC.SimRuns, warmC.SimRuns},
		{"full STA gate-evals", coldC.FullEvals, warmC.FullEvals},
		{"full STA analyses", coldC.FullAnalyses, warmC.FullAnalyses},
		{"incremental STA evals", coldC.IncSTAEvals, warmC.IncSTAEvals},
		{"candidate evals", coldC.CandEvals, warmC.CandEvals},
		{"combined", coldC.combined(), warmC.combined()},
	} {
		fmt.Printf("%-22s %15d %15d %8.1fx\n", r.name, r.cold, r.warm, ratio(r.cold, r.warm))
	}
	fmt.Printf("wall clock: cold %dms, warm %dms (%d prep builds, %d reuses)\n",
		coldC.WallMs, warmC.WallMs, m.PrepBuilds, m.PrepReuses)

	if bad > 0 {
		log.Fatalf("%d mismatches between cold and warm rows", bad)
	}
	if combinedX < *minx {
		log.Fatalf("combined reduction %.2fx below the %.1fx floor", combinedX, *minx)
	}
	fmt.Printf("OK: %d rows bit-identical, %.1fx fewer combined evaluations\n", rows, combinedX)
}
