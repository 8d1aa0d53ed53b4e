// Command perfbench is the repository benchmark. One invocation runs one
// named workload for a fixed time, checks every output against a reference,
// and prints its metrics as the last line of standard output:
//
//	perfbench --workload tables|sweep|service --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics of untraced passes; with
// --trace 1 it prints the per-layer metrics of a separate traced pass and
// writes that pass's spans to <dir>/trace-<workload>-<seed>.json.
//
//	perfbench --check-counters
//
// runs tables and sweep once at seed 1 and fails when a deterministic work
// counter drifts from counters.json. README.md defines every metric.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // scratch directory for stores, probes and the span file
}

// outcome is what one run of a workload measured and checked.
type outcome struct {
	attempted int
	failed    int // ops that panicked, errored or returned a wrong output
	wrong     int // ops whose output mismatched its reference

	passes []timedPass

	layers map[string]float64 // traced runs: per-layer metrics
	spans  [][]span           // traced runs: every traced pass's spans
}

// timedPass is one timed pass of a run.
type timedPass struct {
	wall, cpu float64   // s of wall time and of process CPU time
	rssMB     float64   // peak resident set size
	ops       int       // successful ops
	latMs     []float64 // each successful op's latency
}

// fail records a failed op; wrong marks it as a wrong output too.
func (o *outcome) fail(wrong bool, format string, args ...any) {
	o.failed++
	if wrong {
		o.wrong++
	}
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// workloads maps each workload name to its run and set-up functions.
var workloads = map[string]struct {
	run   func(ctx context.Context, o options) (*outcome, error)
	setup func(ctx context.Context, o options) (teardown func(), err error)
}{
	"tables":  {runTables, setupTrivial},
	"sweep":   {runSweep, setupTrivial},
	"service": {runService, setupServiceProbe},
}

// setupTrivial is the set-up of the in-process workloads: nothing beyond
// starting the process, so the probe measures exec to first op.
func setupTrivial(context.Context, options) (func(), error) { return func() {}, nil }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	var probe string
	var checkCounters bool
	flag.StringVar(&o.workload, "workload", "", "workload to run: tables, sweep or service")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 15, "how long to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced pass and prints per-layer metrics")
	flag.StringVar(&o.dir, "dir", ".bench_build", "scratch directory for stores, probes and spans")
	flag.StringVar(&probe, "probe", "", "internal: set up the named workload, report readiness, exit")
	flag.BoolVar(&checkCounters, "check-counters", false, "check the deterministic counters against counters.json and exit")
	flag.Parse()
	o.trace = traceFlag == 1

	ctx := context.Background()
	if probe != "" {
		os.Exit(runProbe(ctx, probe, o))
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		fatal(err)
	}
	if checkCounters {
		if err := checkCounterGate(ctx); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fatal(fmt.Errorf("usage: --workload tables|sweep|service --seed N --seconds S --trace 0|1"))
	}

	setup, err := measureSetup(ctx, o, setupProbes)
	if err != nil {
		fatal(fmt.Errorf("set-up probe: %w", err))
	}
	total0, steal0 := cpuTicks()
	out, err := w.run(ctx, o)
	if err != nil {
		fatal(err)
	}
	// Time the hypervisor gave to other guests stretches wall-clock metrics
	// without showing in this process's CPU time; say how much there was.
	if total, steal := cpuTicks(); total > total0 {
		fmt.Fprintf(os.Stderr, "perfbench: %.1f%% of the machine's CPU time was stolen during the run\n",
			100*float64(steal-steal0)/float64(total-total0))
	}
	res := result{
		Correct:   out.wrong == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	if o.trace {
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{out.layers[m.name], m.unit}
		}
		path := filepath.Join(o.dir, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
		if err := writeSpans(path, out.spans); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	} else {
		for name, v := range endToEnd(out, setup) {
			res.Metrics[name] = v
		}
	}
	if res.Attempted < 1 {
		fatal(errors.New("no op was attempted"))
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

// endToEnd derives the untraced metrics from a run's timed passes: each
// metric per pass, then the median over the passes.
func endToEnd(out *outcome, setupS float64) map[string]metric {
	var rates, cpu, rss, p50, tail []float64
	for i, p := range out.passes {
		lat := append([]float64(nil), p.latMs...)
		sort.Float64s(lat)
		pct := tailPercentile(len(lat))
		fmt.Fprintf(os.Stderr, "perfbench: pass %d: %.3f s wall, %.3f s CPU, %.1f MB peak RSS, %d ops, %d latency samples, tail p%g\n",
			i, p.wall, p.cpu, p.rssMB, p.ops, len(lat), pct)
		rates = append(rates, float64(p.ops)/p.wall)
		cpu = append(cpu, p.cpu)
		rss = append(rss, p.rssMB)
		p50 = append(p50, median(lat))
		tail = append(tail, quantile(lat, pct))
	}
	return map[string]metric{
		"setup_s":     {setupS, "s"},
		"ops_per_s":   {median(rates), "ops/s"},
		"op_p50_ms":   {median(p50), "ms"},
		"op_p99_ms":   {median(tail), "ms"},
		"cpu_s":       {median(cpu), "s"},
		"peak_rss_mb": {median(rss), "MB"},
	}
}

// setupProbes is how many set-up probes a run makes.
const setupProbes = 11

// measureSetup starts the benchmark n times as a set-up probe and returns
// the median time from exec until the probe reports that the workload's
// first op could be issued.
func measureSetup(ctx context.Context, o options, n int) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	times := make([]float64, n)
	for i := range times {
		if times[i], err = probeOnce(ctx, exe, o); err != nil {
			return 0, fmt.Errorf("probe %d: %w", i, err)
		}
	}
	return median(times), nil
}

// probeOnce runs one set-up probe and waits for it to exit.
func probeOnce(ctx context.Context, exe string, o options) (float64, error) {
	ctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-probe", o.workload, "-dir", o.dir, "-seed", fmt.Sprint(o.seed))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, readErr := bufio.NewReader(stdout).ReadString('\n')
	elapsed := time.Since(start).Seconds()
	waitErr := cmd.Wait()
	if readErr != nil || strings.TrimSpace(line) != "ready" {
		return 0, fmt.Errorf("no readiness report (%v, %v)", readErr, waitErr)
	}
	return elapsed, waitErr
}

// runProbe is the child side of measureSetup.
func runProbe(ctx context.Context, name string, o options) int {
	w, ok := workloads[name]
	if !ok {
		fmt.Fprintln(os.Stderr, "perfbench: unknown probe workload", name)
		return 2
	}
	teardown, err := w.setup(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: probe:", err)
		return 1
	}
	fmt.Println("ready")
	teardown()
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
