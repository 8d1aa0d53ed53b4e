// Command dualvdd runs the paper's flow on a single circuit: read a
// technology-independent BLIF network (or generate a named MCNC stand-in),
// map it against the dual-voltage library with a relaxed timing constraint,
// apply one of the scaling algorithms, and report power. The scaled netlist
// can be exported as mapped BLIF with ".volt" annotations.
//
// Usage:
//
//	dualvdd -bench C880 -algo gscale
//	dualvdd -in circuit.blif -algo dscale -out scaled.blif
//	dualvdd -in circuit.blif -algo all -timeout 30s
//
// The serve subcommand runs the HTTP job service instead (submit jobs with
// the client package or plain curl; see the server package for endpoints):
//
//	dualvdd serve -listen 127.0.0.1:8080 -workers 4 -queue-depth 64
//
// The fleet subcommand serves the same HTTP API from a sharding coordinator
// over N worker services: jobs are placed by consistent hashing of their
// warm-prep group key, dead workers are detected and their jobs re-dispatched,
// and with -store the result CAS and job journal survive a restart, making
// interrupted sweeps resumable without recomputation:
//
//	dualvdd fleet -listen 127.0.0.1:8080 -worker http://127.0.0.1:9001 \
//	    -worker http://127.0.0.1:9002 -store /var/lib/dualvdd
//
// The sweep subcommand explores the design space: a grid of (VDDH, VDDL,
// slack, sim words, algorithm set) points per circuit, executed in-process
// or against a remote serve, with per-circuit Pareto extraction:
//
//	dualvdd sweep -bench rot,C7552,des -vddl 3.0:4.5:0.25 -pareto -out csv
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"dualvdd"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		runServe(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "fleet" {
		runFleet(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "sweep" {
		runSweep(os.Args[2:])
		return
	}
	def := dualvdd.DefaultConfig()
	in := flag.String("in", "", "input BLIF file (.names form)")
	bench := flag.String("bench", "", "MCNC benchmark name (alternative to -in)")
	algo := flag.String("algo", "all", "algorithm: cvs, dscale, gscale or all")
	out := flag.String("out", "", "write the scaled mapped netlist as BLIF")
	vhigh := flag.Float64("vhigh", def.Rails[0], "high supply voltage")
	vlow := flag.Float64("vlow", def.Rails[1], "low supply voltage")
	seed := flag.Uint64("seed", def.Seed, "random-simulation seed")
	slack := flag.Float64("slack", def.SlackFactor, "timing constraint relaxation over the minimum-delay mapping")
	simwords := flag.Int("simwords", def.SimWords, "64-vector words for random power estimation")
	fclk := flag.Float64("fclk", def.Fclk, "power-estimation clock frequency (Hz)")
	greedySelect := flag.Bool("greedy-select", false, "ablation: greedy Dscale selection instead of MWIS")
	greedySizing := flag.Bool("greedy-sizing", false, "ablation: single-gate Gscale sizing instead of the separator cut")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	progress := flag.Bool("progress", false, "stream per-round progress to stderr")
	flag.Parse()

	want := strings.ToLower(*algo)
	if want != "all" {
		known := false
		for _, name := range dualvdd.Algorithms() {
			known = known || want == strings.ToLower(string(name))
		}
		if !known {
			fatal(fmt.Errorf("unknown -algo %q (want cvs, dscale, gscale or all)", *algo))
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := []dualvdd.Option{
		dualvdd.WithVoltages(*vhigh, *vlow),
		dualvdd.WithSeed(*seed),
		dualvdd.WithSlackFactor(*slack),
		dualvdd.WithSimWords(*simwords),
		dualvdd.WithClock(*fclk),
		dualvdd.WithGreedySelect(*greedySelect),
		dualvdd.WithGreedySizing(*greedySizing),
	}
	if *progress {
		opts = append(opts, dualvdd.WithObserver(func(ev dualvdd.Event) {
			if e, ok := ev.(dualvdd.EventRoundDone); ok {
				fmt.Fprintf(os.Stderr, "%s round %d: %d moves, %d low gates, worst arrival %.4f ns\n",
					e.Algorithm, e.Round, e.Moves, e.LowGates, e.WorstArrival)
			}
		}))
	}
	flow := dualvdd.New(opts...)

	var (
		d   *dualvdd.Design
		err error
	)
	switch {
	case *in != "":
		f, ferr := os.Open(*in)
		if ferr != nil {
			fatal(ferr)
		}
		d, err = flow.LoadBLIF(ctx, f)
		f.Close()
	case *bench != "":
		d, err = flow.PrepareBenchmark(ctx, *bench)
	default:
		fmt.Fprintln(os.Stderr, "dualvdd: need -in file.blif or -bench <name>; known benchmarks:")
		fmt.Fprintln(os.Stderr, dualvdd.Benchmarks())
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s: %d PIs, %d POs, Tspec %.3f ns (min delay %.3f ns), original power %.2f uW\n",
		d.Name, len(d.Circuit.PIs), len(d.Circuit.POs), d.Tspec, d.MinDelay, d.OrgPower*1e6)

	var last *dualvdd.FlowResult
	for _, name := range dualvdd.Algorithms() {
		if want != "all" && want != strings.ToLower(string(name)) {
			continue
		}
		res, err := d.RunAlgorithm(ctx, name)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-7s power %8.2f uW  improvement %6.2f%%  low %d/%d (%.2f)  LCs %d  sized %d  area +%.1f%%  [%s]\n",
			res.Algorithm, res.Power*1e6, res.ImprovePct,
			res.LowGates, res.Gates, res.LowRatio, res.LCs, res.Sized,
			res.AreaIncrease*100, res.Runtime.Round(1e6))
		last = res
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		if err := dualvdd.WriteBLIF(f, last.Circuit); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%s result)\n", *out, last.Algorithm)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, errorLine(err))
	os.Exit(1)
}

// errorLine is the line fatal prints: the error with a "dualvdd: " prefix,
// unless its message already starts with one (the library's own errors do).
func errorLine(err error) string {
	msg := err.Error()
	if strings.HasPrefix(msg, "dualvdd: ") {
		return msg
	}
	return "dualvdd: " + msg
}
