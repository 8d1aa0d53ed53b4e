package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dualvdd"
	"dualvdd/client"
	"dualvdd/internal/report"
)

// runSweep is the `dualvdd sweep` subcommand: expand a grid of Config axes
// over one or more circuits, execute it through a Runner (in-process by
// default, a remote `dualvdd serve` with -addr), and report the results with
// per-circuit Pareto extraction.
//
//	dualvdd sweep -bench rot,C7552,des -vddl 3.0:4.5:0.25 -out csv
//	dualvdd sweep -bench C880 -vddl 3.9,4.3 -slack 1.1:1.4:0.1 -pareto
//	dualvdd sweep -bench des -addr http://127.0.0.1:8080 -progress
//	dualvdd sweep -bench C880 -rails "5.0,4.3;5.0,4.3,3.6"
//
// Points that share prepared state (one circuit under one high rail, slack
// factor and sim-words setting) run as a chain on the runner, which prepares
// the circuit once (mapping, baseline timing analysis, switching activities)
// and re-converges only the low rails per point — bit-identical to preparing
// every point from scratch, at a fraction of the work. Up to -inflight
// chains run at once; with fewer groups than that, long chains are cut into
// pieces that share the one prepared state.
//
// Axis flags accept either a comma list ("4.3,4.1,3.9") or an inclusive
// range "lo:hi:step"; -algos takes comma-separated sets whose members join
// with '+' ("cvs+dscale+gscale,gscale" sweeps two sets).
func runSweep(args []string) {
	def := dualvdd.DefaultConfig()
	fs := flag.NewFlagSet("dualvdd sweep", flag.ExitOnError)
	bench := fs.String("bench", "", "comma-separated MCNC benchmark names")
	in := fs.String("in", "", "input BLIF file (.names form; alternative to -bench)")
	vddl := fs.String("vddl", "", `VDDL axis: "lo:hi:step" or comma list (default: base vlow)`)
	vddh := fs.String("vddh", "", `VDDH axis: "lo:hi:step" or comma list (default: base vhigh)`)
	rails := fs.String("rails", "", `rail-table axis: tables separated by ';', rails by ',' descending (e.g. "5.0,4.3;5.0,4.3,3.6"); excludes -vddh/-vddl`)
	slack := fs.String("slack", "", `slack-factor axis: "lo:hi:step" or comma list`)
	simwords := fs.String("simwords", "", `sim-words axis: "lo:hi:step" or comma list of ints`)
	algos := fs.String("algos", "", `algorithm-set axis: sets separated by ',', members by '+' (e.g. "cvs+dscale,gscale")`)
	baseVhigh := fs.Float64("base-vhigh", def.Rails[0], "base high supply when -vddh is not swept")
	baseVlow := fs.Float64("base-vlow", def.Rails[1], "base low supply when -vddl is not swept")
	seed := fs.Uint64("seed", def.Seed, "random-simulation seed")
	pareto := fs.Bool("pareto", false, "report only the per-circuit Pareto frontier")
	out := fs.String("out", "table", "output format: table, json or csv")
	addr := fs.String("addr", "", "run against a remote dualvdd serve at this base URL instead of in-process")
	workers := fs.Int("workers", 0, "in-process job workers (0 = GOMAXPROCS); ignored with -addr")
	inflight := fs.Int("inflight", 0, "points submitted to the runner at once, one per chain (0 = GOMAXPROCS, at most 16)")
	progress := fs.Bool("progress", false, "stream per-point progress to stderr")
	timeout := fs.Duration("timeout", 0, "abort the sweep after this duration (0 = no limit)")
	fs.Parse(args)

	// Fail a bad output format before the sweep runs, not after minutes of
	// computation.
	switch *out {
	case "table", "json", "csv":
	default:
		fatal(fmt.Errorf("unknown -out %q (want table, json or csv)", *out))
	}

	sweep := dualvdd.Sweep{Base: def}
	sweep.Base.Rails = []float64{*baseVhigh, *baseVlow}
	sweep.Base.Seed = *seed
	switch {
	case *bench != "" && *in == "":
		sweep.Circuits = dualvdd.SweepBenchmarks(splitList(*bench)...)
	case *in != "" && *bench == "":
		model, err := os.ReadFile(*in)
		if err != nil {
			fatal(err)
		}
		sweep.Circuits = []dualvdd.SweepCircuit{{BLIF: string(model)}}
	default:
		fatal(fmt.Errorf("need exactly one of -bench <names> or -in file.blif"))
	}

	var err error
	if sweep.Axes.VDDL, err = parseFloatAxis(*vddl); err != nil {
		fatal(fmt.Errorf("-vddl: %w", err))
	}
	if sweep.Axes.VDDH, err = parseFloatAxis(*vddh); err != nil {
		fatal(fmt.Errorf("-vddh: %w", err))
	}
	if sweep.Axes.Rails, err = parseRailsAxis(*rails); err != nil {
		fatal(fmt.Errorf("-rails: %w", err))
	}
	if sweep.Axes.SlackFactor, err = parseFloatAxis(*slack); err != nil {
		fatal(fmt.Errorf("-slack: %w", err))
	}
	if sweep.Axes.SimWords, err = parseIntAxis(*simwords); err != nil {
		fatal(fmt.Errorf("-simwords: %w", err))
	}
	if sweep.Axes.AlgorithmSets, err = parseAlgoSets(*algos); err != nil {
		fatal(fmt.Errorf("-algos: %w", err))
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var runner dualvdd.Runner
	if *addr != "" {
		c, dialErr := client.New(*addr)
		if dialErr != nil {
			fatal(dialErr)
		}
		if err := c.Health(ctx); err != nil {
			fatal(err)
		}
		runner = c
	} else {
		local := dualvdd.NewLocal(dualvdd.LocalWorkers(localWorkers(*workers)))
		defer func() {
			cctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			_ = local.Close(cctx)
		}()
		runner = local
	}

	opts := []dualvdd.SweepOption{}
	if *inflight > 0 {
		opts = append(opts, dualvdd.SweepInFlight(*inflight))
	}
	if *progress {
		opts = append(opts, dualvdd.SweepObserver(func(ev dualvdd.Event) {
			switch e := ev.(type) {
			case dualvdd.EventSweepPoint:
				cached := ""
				if e.Cached {
					cached = " (cached)"
				}
				if len(e.Rails) > 0 {
					parts := make([]string, len(e.Rails))
					for i, r := range e.Rails {
						parts[i] = strconv.FormatFloat(r, 'g', -1, 64)
					}
					fmt.Fprintf(os.Stderr, "point %d/%d %s rails=%s slack=%.2f%s\n",
						e.Index+1, e.Total, e.Circuit, strings.Join(parts, ","), e.SlackFactor, cached)
				} else {
					fmt.Fprintf(os.Stderr, "point %d/%d %s vddh=%.2f vddl=%.2f slack=%.2f%s\n",
						e.Index+1, e.Total, e.Circuit, e.Vhigh, e.Vlow, e.SlackFactor, cached)
				}
			case dualvdd.EventSweepDone:
				fmt.Fprintf(os.Stderr, "sweep done: %d points (%d cached) on %d circuits\n",
					e.Points, e.Cached, e.Circuits)
			}
		}))
	}

	results, err := sweep.Run(ctx, runner, opts...)
	if err != nil {
		fatal(err)
	}
	res := report.BuildSweep(results)
	if *pareto {
		res = &report.SweepResult{Schema: res.Schema, Points: res.Points, Rows: res.ParetoRows()}
	}
	switch *out {
	case "json":
		err = res.WriteJSON(os.Stdout)
	case "csv":
		err = res.WriteCSV(os.Stdout)
	default:
		err = report.WriteSweepTable(os.Stdout, res)
	}
	if err != nil {
		fatal(err)
	}
}

// localWorkers resolves the -workers default.
func localWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// splitList splits a comma list, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseFloatAxis parses an axis flag: "" (axis not swept, nil), a comma list
// ("4.3,4.1"), or an inclusive range "lo:hi:step". Ranges must ascend with a
// positive step — an inverted or zero-step range is an error, not an empty
// axis.
func parseFloatAxis(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	if strings.Contains(s, ":") {
		return expandRange(s)
	}
	var out []float64
	for _, part := range splitList(s) {
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty axis %q", s)
	}
	return out, nil
}

// expandRange expands "lo:hi:step" into the value list lo, lo+step, …,
// walking only on-grid points up to hi. When step divides the range (up to
// float accumulation error) the endpoint is emitted as exactly hi — never a
// one-ulp neighbour, so "1.0:3.0:0.25" ends at precisely 3.0 and the
// endpoint's content address matches a list-specified 3.0. A hi that is not
// on the grid is simply not sampled ("3.0:4.0:0.3" stops at 3.9): no grid
// point is ever silently replaced.
func expandRange(s string) ([]float64, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("range %q must be lo:hi:step", s)
	}
	var v [3]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("range %q: bad number %q", s, p)
		}
		v[i] = f
	}
	lo, hi, step := v[0], v[1], v[2]
	switch {
	case math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) ||
		math.IsNaN(step) || math.IsInf(step, 0):
		return nil, fmt.Errorf("range %q: bounds and step must be finite", s)
	case step <= 0:
		return nil, fmt.Errorf("range %q: step must be positive", s)
	case hi < lo:
		return nil, fmt.Errorf("range %q is inverted: lo %g exceeds hi %g", s, lo, hi)
	}
	// tol (relative to one step) absorbs float accumulation error, not
	// grid misalignment.
	const tol = 1e-6
	steps := (hi - lo) / step
	n := int(math.Floor(steps + 0.5))
	if math.Abs(steps-float64(n)) > tol {
		// hi is off the grid: emit only the on-grid points below it.
		n = int(math.Floor(steps + tol))
	}
	out := make([]float64, 0, n+1)
	for i := 0; i <= n; i++ {
		val := lo + float64(float64(i)*step)
		if i == n && math.Abs(val-hi) <= step*tol {
			val = hi
		}
		out = append(out, val)
	}
	return out, nil
}

// parseRailsAxis parses the rail-table axis: tables separated by ';', rails
// within a table by ',' in descending voltage order. "5.0,4.3;5.0,4.3,3.6"
// sweeps the classic pair against a three-rail table. Validation beyond
// syntax (descending order, positivity, exclusivity with -vddh/-vddl) lives
// in Sweep.Points, which sees the whole axis set at once.
func parseRailsAxis(s string) ([][]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out [][]float64
	for _, tableSpec := range strings.Split(s, ";") {
		if strings.TrimSpace(tableSpec) == "" {
			continue
		}
		var table []float64
		for _, part := range splitList(tableSpec) {
			v, err := strconv.ParseFloat(part, 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q", part)
			}
			table = append(table, v)
		}
		if len(table) < 2 {
			return nil, fmt.Errorf("rail table %q needs at least two supplies", tableSpec)
		}
		out = append(out, table)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty axis %q", s)
	}
	return out, nil
}

// parseIntAxis is parseFloatAxis for integer axes; every expanded value must
// be a whole number.
func parseIntAxis(s string) ([]int, error) {
	fs, err := parseFloatAxis(s)
	if err != nil || fs == nil {
		return nil, err
	}
	out := make([]int, len(fs))
	for i, f := range fs {
		if f != math.Trunc(f) {
			return nil, fmt.Errorf("value %g is not an integer", f)
		}
		out[i] = int(f)
	}
	return out, nil
}

// parseAlgoSets parses the algorithm-set axis: sets separated by commas,
// members joined with '+', names case-insensitive. An explicitly empty set
// is an error — "run nothing" is never a sweep point.
func parseAlgoSets(s string) ([][]dualvdd.Algorithm, error) {
	if s == "" {
		return nil, nil
	}
	var sets [][]dualvdd.Algorithm
	for _, setSpec := range strings.Split(s, ",") {
		var set []dualvdd.Algorithm
		for _, name := range strings.Split(setSpec, "+") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			found := false
			for _, a := range dualvdd.Algorithms() {
				if strings.EqualFold(name, string(a)) {
					set = append(set, a)
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("unknown algorithm %q (want cvs, dscale or gscale)", name)
			}
		}
		if len(set) == 0 {
			return nil, fmt.Errorf("empty algorithm set in %q", s)
		}
		sets = append(sets, set)
	}
	return sets, nil
}
