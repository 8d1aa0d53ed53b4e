// Command loadgen drives a dualvdd job service (a `dualvdd serve` or a
// `dualvdd fleet`) with a heavy-tailed stream of sweep points and reports
// throughput, latency percentiles and cache behavior as JSON — the BENCH_PR7
// artifact.
//
// The job mix is a Zipf draw over a (circuit × VDDL) grid, so a few hot
// points repeat often (exercising the result cache) while the tail stays
// cold (exercising real computation). With -kill-after N and -kill-pid P the
// generator SIGKILLs process P once N jobs have completed, mid-run — pointed
// at a fleet worker, that measures the coordinator's re-dispatch path: the
// run must still complete every job, and the report carries the number of
// points recomputed after the kill.
//
//	loadgen -addr http://127.0.0.1:8080 -jobs 64 -concurrency 8 \
//	    -kill-after 16 -kill-pid $WORKER_PID -out BENCH_PR7.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dualvdd"
	"dualvdd/client"
)

type pointResult struct {
	latency time.Duration
	cached  bool
	err     error
}

// benchReport is the BENCH_PR7.json schema.
type benchReport struct {
	Addr        string   `json:"addr"`
	Jobs        int      `json:"jobs"`
	Concurrency int      `json:"concurrency"`
	Seed        int64    `json:"seed"`
	Circuits    []string `json:"circuits"`
	VDDL        []string `json:"vddl"`
	GridPoints  int      `json:"grid_points"`

	Completed  int     `json:"completed"`
	Failed     int     `json:"failed"`
	WallSec    float64 `json:"wall_sec"`
	JobsPerSec float64 `json:"jobs_per_sec"`

	LatencyP50Ms  float64 `json:"latency_p50_ms"`
	LatencyP99Ms  float64 `json:"latency_p99_ms"`
	LatencyMeanMs float64 `json:"latency_mean_ms"`

	// CacheHitRate is client-observed: the fraction of completed jobs whose
	// terminal status carried Cached=true.
	CacheHitRate float64 `json:"cache_hit_rate"`

	// KilledPID is the worker SIGKILLed mid-run (0 = no kill), after
	// KillAfter completions. PointsRecomputedAfterKill is the service's
	// redispatch counter: jobs moved off the dead worker and recomputed on a
	// survivor.
	KilledPID                 int   `json:"killed_pid,omitempty"`
	KillAfter                 int   `json:"kill_after,omitempty"`
	PointsRecomputedAfterKill int64 `json:"points_recomputed_after_kill"`

	// Service is the /metricsz snapshot after the run.
	Service dualvdd.Metrics `json:"service"`
}

func main() {
	addr := flag.String("addr", "", "base URL of the job service (required)")
	jobs := flag.Int("jobs", 64, "total jobs to submit")
	concurrency := flag.Int("concurrency", 8, "concurrent in-flight jobs")
	seed := flag.Int64("seed", 1, "Zipf draw seed (the job mix is deterministic per seed)")
	benches := flag.String("bench", "x2,pm1,z4ml", "comma list of benchmark circuits")
	vddls := flag.String("vddl", "4.3,4.1,3.9,3.7", "comma list of VDDL sweep values")
	simWords := flag.Int("simwords", 32, "64-vector words per power estimation")
	algo := flag.String("algo", "cvs", "algorithm per job: cvs, dscale, gscale or all")
	tenant := flag.String("tenant", "", "tenant identity sent with every job")
	killAfter := flag.Int("kill-after", 0, "SIGKILL -kill-pid once this many jobs completed (0 = never)")
	killPID := flag.Int("kill-pid", 0, "process to SIGKILL mid-run (a fleet worker)")
	out := flag.String("out", "BENCH_PR7.json", "report path (- for stdout)")
	timeout := flag.Duration("timeout", 10*time.Minute, "overall run deadline")
	flag.Parse()

	if *addr == "" {
		fatal(fmt.Errorf("loadgen: -addr is required"))
	}
	circuits := splitList(*benches)
	voltages := splitList(*vddls)
	if len(circuits) == 0 || len(voltages) == 0 {
		fatal(fmt.Errorf("loadgen: -bench and -vddl must be non-empty"))
	}
	algos, err := parseAlgos(*algo)
	if err != nil {
		fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if *tenant != "" {
		ctx = dualvdd.WithTenant(ctx, *tenant)
	}

	c, err := client.New(*addr)
	if err != nil {
		fatal(err)
	}
	if err := c.Health(ctx); err != nil {
		fatal(fmt.Errorf("loadgen: service not healthy: %w", err))
	}

	// The grid and the Zipf draw over it: rank 0 (the hottest point) is the
	// first circuit at the first voltage; the tail is rarely repeated.
	def := dualvdd.DefaultConfig()
	type point struct {
		circuit string
		vddl    float64
	}
	var grid []point
	for _, b := range circuits {
		for _, v := range voltages {
			var vddl float64
			if _, err := fmt.Sscanf(v, "%g", &vddl); err != nil {
				fatal(fmt.Errorf("loadgen: bad -vddl value %q", v))
			}
			grid = append(grid, point{circuit: b, vddl: vddl})
		}
	}
	rng := rand.New(rand.NewSource(*seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(grid)-1))
	draws := make([]point, *jobs)
	for i := range draws {
		draws[i] = grid[zipf.Uint64()]
	}

	var (
		completed atomic.Int64
		killOnce  sync.Once
		results   = make([]pointResult, *jobs)
		work      = make(chan int)
		wg        sync.WaitGroup
	)
	maybeKill := func() {
		if *killAfter <= 0 || *killPID <= 0 {
			return
		}
		if int(completed.Load()) >= *killAfter {
			killOnce.Do(func() {
				proc, err := os.FindProcess(*killPID)
				if err == nil {
					err = proc.Kill()
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "loadgen: kill %d: %v\n", *killPID, err)
					return
				}
				fmt.Fprintf(os.Stderr, "loadgen: killed pid %d after %d jobs\n", *killPID, completed.Load())
			})
		}
	}

	start := time.Now()
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				p := draws[i]
				job := dualvdd.BenchmarkJob(p.circuit,
					dualvdd.WithVoltages(def.Rails[0], p.vddl),
					dualvdd.WithSimWords(*simWords),
					dualvdd.WithAlgorithms(algos...),
				)
				t0 := time.Now()
				id, err := c.Submit(ctx, job)
				if err != nil {
					results[i] = pointResult{err: err}
					continue
				}
				st, err := c.Result(ctx, id)
				if err != nil {
					results[i] = pointResult{err: err}
					continue
				}
				results[i] = pointResult{latency: time.Since(t0), cached: st.Cached}
				completed.Add(1)
				maybeKill()
			}
		}()
	}
	for i := 0; i < *jobs; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	wall := time.Since(start)

	var (
		latencies []time.Duration
		cached    int
		failed    int
	)
	for i, r := range results {
		if r.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "loadgen: job %d (%s@%.2f) failed: %v\n", i, draws[i].circuit, draws[i].vddl, r.err)
			continue
		}
		latencies = append(latencies, r.latency)
		if r.cached {
			cached++
		}
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })

	metrics, err := c.Metrics(ctx)
	if err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: metrics snapshot failed: %v\n", err)
	}

	rep := benchReport{
		Addr:        *addr,
		Jobs:        *jobs,
		Concurrency: *concurrency,
		Seed:        *seed,
		Circuits:    circuits,
		VDDL:        voltages,
		GridPoints:  len(grid),
		Completed:   len(latencies),
		Failed:      failed,
		WallSec:     wall.Seconds(),
		Service:     metrics,

		KilledPID:                 *killPID,
		KillAfter:                 *killAfter,
		PointsRecomputedAfterKill: metrics.Redispatches,
	}
	if *killAfter <= 0 || *killPID <= 0 {
		rep.KilledPID, rep.KillAfter = 0, 0
	}
	if wall > 0 {
		rep.JobsPerSec = float64(len(latencies)) / wall.Seconds()
	}
	if n := len(latencies); n > 0 {
		var sum time.Duration
		for _, d := range latencies {
			sum += d
		}
		rep.LatencyP50Ms = float64(percentile(latencies, 50)) / 1e6
		rep.LatencyP99Ms = float64(percentile(latencies, 99)) / 1e6
		rep.LatencyMeanMs = float64(sum) / float64(n) / 1e6
		rep.CacheHitRate = float64(cached) / float64(n)
	}

	b, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	b = append(b, '\n')
	if *out == "-" {
		os.Stdout.Write(b)
	} else if err := os.WriteFile(*out, b, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr,
		"loadgen: %d/%d jobs in %.1fs (%.2f jobs/s), p50 %.1fms p99 %.1fms, cache hit rate %.0f%%, %d recomputed after kill\n",
		rep.Completed, rep.Jobs, rep.WallSec, rep.JobsPerSec,
		rep.LatencyP50Ms, rep.LatencyP99Ms, rep.CacheHitRate*100, rep.PointsRecomputedAfterKill)
	if failed > 0 {
		os.Exit(1)
	}
}

// percentile reads the p-th percentile from an ascending latency slice by
// nearest-rank on the closed interval.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p/100*float64(len(sorted)-1) + 0.5)
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// parseAlgos maps the -algo flag onto the typed algorithm list.
func parseAlgos(s string) ([]dualvdd.Algorithm, error) {
	if strings.EqualFold(s, "all") {
		return dualvdd.Algorithms(), nil
	}
	var out []dualvdd.Algorithm
	for _, part := range splitList(s) {
		found := false
		for _, name := range dualvdd.Algorithms() {
			if strings.EqualFold(part, string(name)) {
				out = append(out, name)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("loadgen: unknown algorithm %q (want cvs, dscale, gscale or all)", part)
		}
	}
	return out, nil
}

// splitList splits a comma list, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
