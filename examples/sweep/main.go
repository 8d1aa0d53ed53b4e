// Sweep reproduces the paper-style VDDL sensitivity experiment the fixed
// (5 V, 4.3 V) choice hides: a ≥ 8-point VDDL curve on three MCNC circuits,
// executed as one dualvdd.Sweep through the Runner API. The program then
// proves two properties the sweep engine guarantees:
//
//  1. every sweep point is bit-identical to a standalone Flow run of the
//     same Config (-verify, on by default), and
//  2. a second identical sweep is answered entirely from the runner's
//     content-addressed cache — zero new STA or candidate evaluations.
//
// By default the sweep runs in-process; -addr points it at a running
// `dualvdd serve` instead, exercising the identical code path over HTTP
// (CI runs it both ways). Exit status 0 means every check passed.
//
//	go run ./examples/sweep
//	go run ./examples/sweep -addr http://127.0.0.1:8080
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"dualvdd"
	"dualvdd/client"
	"dualvdd/internal/report"
)

func main() {
	addr := flag.String("addr", "", "base URL of a running dualvdd serve (empty = in-process)")
	bench := flag.String("bench", "rot,C7552,des", "comma-separated benchmarks")
	vddl := flag.String("vddl", "3.1,3.3,3.5,3.7,3.9,4.1,4.3,4.5,4.7", "VDDL axis (comma list, volts)")
	simwords := flag.Int("simwords", 256, "simulation words per power estimate")
	verify := flag.Bool("verify", true, "re-run every point as a standalone Flow and diff bit-for-bit")
	timeout := flag.Duration("timeout", 10*time.Minute, "overall deadline")
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
		Circuits:   dualvdd.SweepBenchmarks(benches...),
		Base:       base,
		Algorithms: []dualvdd.Algorithm{dualvdd.AlgoGscale},
		Axes:       dualvdd.Axes{VDDL: vals},
	}

	// One constructor swap decides local vs remote; the sweep code is
	// identical either way.
	var (
		runner  dualvdd.Runner
		metrics func() dualvdd.Metrics
	)
	if *addr != "" {
		c, err := client.New(*addr)
		if err != nil {
			log.Fatal(err)
		}
		if err := c.Health(ctx); err != nil {
			log.Fatal(err)
		}
		runner = c
		metrics = func() dualvdd.Metrics {
			m, err := c.Metrics(ctx)
			if err != nil {
				log.Fatal(err)
			}
			return m
		}
		fmt.Printf("sweeping via %s\n", *addr)
	} else {
		local := dualvdd.NewLocal(dualvdd.LocalWorkers(runtime.GOMAXPROCS(0)))
		defer func() {
			cctx, ccancel := context.WithTimeout(context.Background(), time.Minute)
			defer ccancel()
			_ = local.Close(cctx)
		}()
		runner = local
		metrics = local.Metrics
		fmt.Println("sweeping in-process")
	}

	results, err := sweep.Run(ctx, runner)
	if err != nil {
		log.Fatal(err)
	}
	rep := report.BuildSweep(results)

	// The VDDL sensitivity curve, one block per circuit: the quadratic
	// ceiling 1-(VDDL/VDDH)^2 rises as VDDL drops while the delay penalty
	// shrinks the low-voltage region — realised savings peak in between.
	byCircuit := map[string][]report.SweepRow{}
	var names []string
	for _, r := range rep.Rows {
		if _, ok := byCircuit[r.Circuit]; !ok {
			names = append(names, r.Circuit)
		}
		byCircuit[r.Circuit] = append(byCircuit[r.Circuit], r)
	}
	sort.Strings(names)
	for _, name := range names {
		rows := byCircuit[name]
		fmt.Printf("\n%s (%d gates, Gscale, %d VDDL points):\n", name, rows[0].Gates, len(rows))
		fmt.Printf("%6s %10s %8s %9s %5s %7s\n", "VDDL", "ideal-max%", "saved%", "slack(ns)", "LCs", "pareto")
		for _, r := range rows {
			ideal := (1 - (r.Vlow*r.Vlow)/(r.Vhigh*r.Vhigh)) * 100
			star := ""
			if r.Pareto {
				star = "*"
			}
			fmt.Printf("%6.2f %9.1f%% %8.2f %9.4f %5d %7s\n",
				r.Vlow, ideal, r.ImprovePct, r.WorstSlackNs, r.LCs, star)
		}
	}

	if *verify {
		fmt.Printf("\nverifying %d points against standalone Flow runs... ", len(results))
		bad := 0
		for _, pr := range results {
			flow := dualvdd.New(
				dualvdd.FromConfig(pr.Point.Config),
				dualvdd.WithAlgorithms(pr.Point.Algorithms...),
			)
			d, prepErr := flow.PrepareBenchmark(ctx, pr.Point.Circuit.Benchmark)
			if prepErr != nil {
				log.Fatal(prepErr)
			}
			want, runErr := flow.Run(ctx, d)
			if runErr != nil {
				log.Fatal(runErr)
			}
			bad += diffResults(pr.Point, pr.Status.Results, want)
		}
		if bad > 0 {
			log.Fatalf("%d field mismatches between sweep and standalone Flow", bad)
		}
		fmt.Println("all bit-identical")
	}

	// The identical sweep again: the content-addressed cache must answer
	// every point without a single new simulation or timing evaluation.
	before := metrics()
	again, err := sweep.Run(ctx, runner)
	if err != nil {
		log.Fatal(err)
	}
	after := metrics()
	for _, pr := range again {
		if !pr.Status.Cached {
			log.Fatalf("point %d (%s) recomputed on the second sweep", pr.Point.Index, pr.Point.Circuit.Benchmark)
		}
	}
	if after.STAEvals != before.STAEvals || after.CandEvals != before.CandEvals {
		log.Fatalf("second sweep recomputed: sta %d→%d cand %d→%d",
			before.STAEvals, after.STAEvals, before.CandEvals, after.CandEvals)
	}
	if hits := after.CacheHits - before.CacheHits; hits < int64(len(again)) {
		log.Fatalf("second sweep hit the cache only %d of %d times", hits, len(again))
	}
	bad := 0
	for i := range again {
		bad += diffResults(again[i].Point, again[i].Status.Results, results[i].Status.Results)
	}
	if bad > 0 {
		log.Fatalf("%d field mismatches between first and cached sweep", bad)
	}
	fmt.Printf("second sweep: %d/%d points served from cache, zero new STA or candidate evaluations\n",
		len(again), len(again))
}

// diffResults compares every deterministic FlowResult field bit-for-bit and
// reports the number of mismatches. The wall clock (Runtime) and the
// local-only Circuit legitimately differ.
func diffResults(pt dualvdd.SweepPoint, got, want []*dualvdd.FlowResult) int {
	if len(got) != len(want) {
		log.Fatalf("point %d: %d results, want %d", pt.Index, len(got), len(want))
	}
	bad := 0
	for i, w := range want {
		g := got[i]
		check := func(field string, a, b float64) {
			if math.Float64bits(a) != math.Float64bits(b) {
				fmt.Printf("MISMATCH point %d %s.%s: %v vs %v\n", pt.Index, w.Algorithm, field, a, b)
				bad++
			}
		}
		check("Power", g.Power, w.Power)
		check("ImprovePct", g.ImprovePct, w.ImprovePct)
		check("LowRatio", g.LowRatio, w.LowRatio)
		check("AreaIncrease", g.AreaIncrease, w.AreaIncrease)
		check("WorstSlack", g.WorstSlack, w.WorstSlack)
		if g.Algorithm != w.Algorithm || g.Gates != w.Gates || g.LowGates != w.LowGates ||
			g.LCs != w.LCs || g.Sized != w.Sized || g.STAEvals != w.STAEvals || g.CandEvals != w.CandEvals ||
			g.SimTime != w.SimTime {
			fmt.Printf("MISMATCH point %d %s counters\n", pt.Index, w.Algorithm)
			bad++
		}
	}
	return bad
}
