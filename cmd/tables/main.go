// Command tables regenerates the paper's evaluation: Table 1 (power
// improvement of CVS / Dscale / Gscale over the single-supply original) and
// Table 2 (low-voltage gate profiles and sizing overhead) across the
// 39-circuit MCNC stand-in suite, printing the published numbers alongside.
//
// The tables are one Sweep at the paper's configuration, one point per
// circuit, run on a cache-less Local whose worker pool is -parallel wide;
// row values are bit-identical at any -parallel setting because the flow is
// seeded and circuits share no state.
//
// Usage:
//
//	tables [-table 1|2|all] [-circuits name,name,...] [-parallel N]
//	       [-markdown] [-check] [-quiet]
//	       [-cpuprofile file] [-memprofile file]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"

	"dualvdd"
	"dualvdd/internal/report"
)

// die flushes any active CPU profile (os.Exit skips defers) and exits 1.
func die(args ...any) {
	pprof.StopCPUProfile()
	fmt.Fprintln(os.Stderr, append([]any{"tables:"}, args...)...)
	os.Exit(1)
}

func main() {
	table := flag.String("table", "all", "which table to print: 1, 2 or all")
	circuits := flag.String("circuits", "", "comma-separated circuit subset (default: all 39)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker count for the sweep")
	markdown := flag.Bool("markdown", false, "emit Markdown (for EXPERIMENTS.md)")
	check := flag.Bool("check", false, "run trend-shape assertions against the paper's claims")
	quiet := flag.Bool("quiet", false, "suppress per-circuit progress lines")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (post-sweep) to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			die(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			die(err)
		}
		defer pprof.StopCPUProfile()
	}

	var names []string
	if *circuits != "" {
		for _, name := range strings.Split(*circuits, ",") {
			names = append(names, strings.TrimSpace(name))
		}
	} else {
		names = dualvdd.Benchmarks()
	}

	// Progress: each finished point prints its three results and a count.
	// The observer runs on the sweep's workers, so serialize prints.
	opts := []dualvdd.SweepOption{dualvdd.SweepInFlight(*parallel)}
	if !*quiet {
		var mu sync.Mutex
		done := 0
		opts = append(opts, dualvdd.SweepObserver(func(ev dualvdd.Event) {
			e, ok := ev.(dualvdd.EventSweepPoint)
			if !ok {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			done++
			for _, r := range e.Results {
				fmt.Fprintf(os.Stderr, "        %-10s %-7s %6.2f%%  (%d low, %d sized, %d STA evals)\n",
					e.Circuit, r.Algorithm, r.ImprovePct, r.LowGates, r.Sized, r.STAEvals)
			}
			fmt.Fprintf(os.Stderr, "[%2d/%d] %s\n", done, e.Total, e.Circuit)
		}))
	}

	local := dualvdd.NewLocal(dualvdd.LocalWorkers(*parallel), dualvdd.LocalCacheEntries(0))
	results, err := dualvdd.Sweep{Circuits: dualvdd.SweepBenchmarks(names...)}.Run(context.Background(), local, opts...)
	if cerr := local.Close(context.Background()); err == nil {
		err = cerr
	}
	if err != nil {
		die(err)
	}
	rows, err := report.TableRows(results)
	if err != nil {
		die(err)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			die(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			die(err)
		}
		f.Close()
	}
	if *markdown {
		if err := report.WriteMarkdown(os.Stdout, rows); err != nil {
			die(err)
		}
	} else {
		if *table == "1" || *table == "all" {
			if err := report.WriteTable1(os.Stdout, rows); err != nil {
				die(err)
			}
			fmt.Println()
		}
		if *table == "2" || *table == "all" {
			if err := report.WriteTable2(os.Stdout, rows); err != nil {
				die(err)
			}
		}
	}
	if *check {
		fails := report.ShapeChecks(rows)
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "SHAPE CHECK FAILED:", f)
		}
		if len(fails) > 0 {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "all trend-shape checks hold")
	}
}
