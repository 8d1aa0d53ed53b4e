package chaos_test

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dualvdd"
	"dualvdd/client"
	"dualvdd/fleet"
	"dualvdd/internal/chaos"
	"dualvdd/internal/store"
	"dualvdd/server"
)

// The chaos harness: a full 27-point design-space sweep driven through a
// real fleet (coordinator + HTTP workers) under five distinct randomized
// fault schedules — store errors, worker crashes, network partitions, slow
// workers with mid-response resets, and a coordinator kill + resume. The
// invariants each schedule must uphold:
//
//   - Bit-identical results: every row matches the fault-free baseline to
//     the last float bit (Power, STAEvals, LowGates).
//   - No lost acked jobs: every accepted submission reaches a terminal
//     state (PointsInFlight drains to zero; Sweep.Run returns every row).
//   - Bounded recovery: the whole sweep completes inside the schedule's
//     deadline instead of wedging on a dead worker or a torn partition.
//   - The schedule actually fired: injector counters are asserted nonzero,
//     so a mis-wired injector cannot silently produce a fault-free pass.
//
// The fault schedule derives from one seed, CHAOS_SEED (default 1): CI pins
// it for reproducibility, the nightly run randomizes it, and a nightly
// failure is replayed by exporting the seed it logs.

// chaosSeed reads CHAOS_SEED and logs it so any failure names its replay.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	seed := int64(1)
	if raw := os.Getenv("CHAOS_SEED"); raw != "" {
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", raw, err)
		}
		seed = n
	}
	t.Logf("chaos seed %d (replay with CHAOS_SEED=%d)", seed, seed)
	return seed
}

// chaosSweep is the 27-point grid: 3 circuits × 3 low rails × 3 slack
// factors, one algorithm, short simulations — big enough that faults land
// mid-sweep, small enough to run five times in CI.
func chaosSweep() dualvdd.Sweep {
	base := dualvdd.DefaultConfig()
	base.SimWords = 32
	return dualvdd.Sweep{
		Circuits:   dualvdd.SweepBenchmarks("x2", "mux", "pm1"),
		Base:       base,
		Algorithms: []dualvdd.Algorithm{dualvdd.AlgoCVS},
		Axes: dualvdd.Axes{
			VDDL:        []float64{4.3, 4.1, 3.9},
			SlackFactor: []float64{1.1, 1.2, 1.3},
		},
	}
}

// chaosWorker is one worker service plus the URL the coordinator dials.
type chaosWorker struct {
	local *dualvdd.Local
	ts    *httptest.Server
}

func newChaosWorker(t *testing.T, opts ...dualvdd.LocalOption) *chaosWorker {
	t.Helper()
	local := dualvdd.NewLocal(opts...)
	ts := httptest.NewServer(server.New(local, server.WithRequestTimeout(5*time.Second)))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = local.Close(ctx)
	})
	return &chaosWorker{local: local, ts: ts}
}

func workerURLs(workers []*chaosWorker) []string {
	urls := make([]string, len(workers))
	for i, w := range workers {
		urls[i] = w.ts.URL
	}
	return urls
}

// forkWorker derives a worker's injector stream labeled by the worker's index
// in urls, never by its URL: httptest ports are random, so a URL label would
// give every run a different schedule and CHAOS_SEED could not replay it.
func forkWorker(src *chaos.Source, prefix string, urls []string, url string) *chaos.Source {
	return src.Fork(prefix + strconv.Itoa(slices.Index(urls, url)))
}

// checkRows holds got to the fault-free baseline bit for bit.
func checkRows(t *testing.T, got, want []dualvdd.SweepPointResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("sweep returned %d rows, baseline %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i].Status.Results[0], want[i].Status.Results[0]
		if math.Float64bits(g.Power) != math.Float64bits(w.Power) ||
			g.STAEvals != w.STAEvals || g.LowGates != w.LowGates {
			t.Fatalf("point %d diverged under faults: power %v vs %v, evals %d vs %d",
				i, g.Power, w.Power, g.STAEvals, w.STAEvals)
		}
	}
}

// runSchedule drives the sweep through the coordinator under a recovery
// deadline and checks the shared invariants; fired asserts the schedule hit.
func runSchedule(t *testing.T, co *fleet.Coordinator, want []dualvdd.SweepPointResult, fired func() bool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	got, err := chaosSweep().Run(ctx, co)
	if err != nil {
		t.Fatalf("sweep did not survive the fault schedule: %v", err)
	}
	checkRows(t, got, want)
	m := co.Metrics()
	if m.PointsInFlight != 0 {
		t.Fatalf("%d acked jobs never reached a terminal state", m.PointsInFlight)
	}
	if !fired() {
		t.Fatal("the fault schedule never fired — the run was fault-free and proves nothing")
	}
}

// TestChaosSweepSchedules is the harness: one fault-free baseline, then the
// same 27 points through each fault schedule.
func TestChaosSweepSchedules(t *testing.T) {
	seed := chaosSeed(t)
	ctx := context.Background()

	baseline := dualvdd.NewLocal()
	want, err := chaosSweep().Run(ctx, baseline)
	if err != nil {
		t.Fatal(err)
	}
	baseEvals := baseline.Metrics().STAEvals
	_ = baseline.Close(ctx)
	if len(want) != 27 {
		t.Fatalf("grid expanded to %d rows, want 27", len(want))
	}

	// fastDial is the plain snappy client used where the schedule injects
	// elsewhere (store faults, wrapped workers).
	fastDial := func(url string) (fleet.WorkerClient, error) {
		return client.New(url, client.WithRetry(2, 10*time.Millisecond, 50*time.Millisecond))
	}
	closeFleet := func(t *testing.T, co *fleet.Coordinator) {
		t.Helper()
		cctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = co.Close(cctx)
	}

	t.Run("store-errors", func(t *testing.T) {
		// Both coordinator stores misbehave: cache reads and writes fail like
		// a dying disk, journal appends fail like a full one. Results must
		// come out identical — a lost cache write costs recomputation, never
		// correctness — and the failures must land on StoreErrors.
		src := chaos.NewSource(seed).Fork("store-errors")
		cache := chaos.NewCache(dualvdd.NewMemoryCache(256), src.Fork("cache"),
			chaos.StoreFaults{PGetErr: 0.25, PPutErr: 0.25})
		journal := chaos.NewJournal(dualvdd.NewMemoryJournal(), src.Fork("journal"),
			chaos.StoreFaults{PAppendErr: 0.5})
		workers := []*chaosWorker{newChaosWorker(t), newChaosWorker(t)}
		co, err := fleet.New(workerURLs(workers),
			fleet.WithDialer(fastDial),
			fleet.WithResultCache(cache), fleet.WithJobStore(journal))
		if err != nil {
			t.Fatal(err)
		}
		defer closeFleet(t, co)
		runSchedule(t, co, want, func() bool {
			return cache.InjectedGetErrors()+cache.InjectedPutErrors() > 0 &&
				journal.InjectedAppendErrors() > 0
		})
		if co.Metrics().StoreErrors == 0 {
			t.Fatal("injected store faults never reached the StoreErrors metric")
		}
	})

	t.Run("worker-crashes", func(t *testing.T) {
		// Workers crash under submissions and stay down for a window; the
		// breaker opens, the job re-dispatches, health probes drain the
		// crash and half-open lets the worker back in. Every job needs at
		// least one submit that reaches a live worker, so the busiest of the
		// 3 workers sees at least 9 of the 27 points and CrashEvery 8
		// crashes it at every seed, however the PCrash rolls fall.
		src := chaos.NewSource(seed).Fork("worker-crashes")
		workers := []*chaosWorker{newChaosWorker(t), newChaosWorker(t), newChaosWorker(t)}
		urls := workerURLs(workers)
		var mu sync.Mutex
		var injected []*chaos.Worker
		dial := func(url string) (fleet.WorkerClient, error) {
			inner, err := fastDial(url)
			if err != nil {
				return nil, err
			}
			w := chaos.NewWorker(inner, forkWorker(src, "worker:", urls, url),
				chaos.WorkerFaults{PCrash: 0.12, CrashEvery: 8, DownFor: 4})
			mu.Lock()
			injected = append(injected, w)
			mu.Unlock()
			return w, nil
		}
		co, err := fleet.New(urls,
			fleet.WithDialer(dial),
			fleet.WithHealth(25*time.Millisecond, time.Second, 2),
			fleet.WithRedispatchBudget(100), // crashes here are bad luck, not poison
			fleet.WithDispatchPatience(30*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		defer closeFleet(t, co)
		runSchedule(t, co, want, func() bool {
			var crashes int64
			mu.Lock()
			for _, w := range injected {
				crashes += w.InjectedCrashes()
			}
			mu.Unlock()
			return crashes > 0
		})
	})

	t.Run("partition", func(t *testing.T) {
		// Deterministic partition windows between the coordinator and every
		// worker: after each 14 delivered requests the next 4 vanish. Client
		// retries, dispatch patience and re-dispatch must carry every job
		// across the windows.
		src := chaos.NewSource(seed).Fork("partition")
		workers := []*chaosWorker{newChaosWorker(t), newChaosWorker(t), newChaosWorker(t)}
		urls := workerURLs(workers)
		var mu sync.Mutex
		var transports []*chaos.Transport
		dial := func(url string) (fleet.WorkerClient, error) {
			tr := chaos.NewTransport(nil, forkWorker(src, "net:", urls, url),
				chaos.TransportFaults{PartitionEvery: 14, PartitionLength: 4})
			mu.Lock()
			transports = append(transports, tr)
			mu.Unlock()
			return client.New(url,
				client.WithHTTPClient(&http.Client{Transport: tr}),
				client.WithRetry(5, 5*time.Millisecond, 25*time.Millisecond),
				client.WithJitterSeed(seed))
		}
		co, err := fleet.New(urls,
			fleet.WithDialer(dial),
			fleet.WithHealth(25*time.Millisecond, time.Second, 2),
			fleet.WithRedispatchBudget(100),
			fleet.WithDispatchPatience(30*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		defer closeFleet(t, co)
		runSchedule(t, co, want, func() bool {
			var drops int64
			mu.Lock()
			for _, tr := range transports {
				drops += tr.Injected()
			}
			mu.Unlock()
			return drops > 0
		})
	})

	t.Run("slow-workers", func(t *testing.T) {
		// Slow-loris workers: injected latency on a third of requests, plus
		// occasional dropped requests and mid-response resets that cut SSE
		// streams. Slowness must cost time, never correctness.
		src := chaos.NewSource(seed).Fork("slow-workers")
		workers := []*chaosWorker{newChaosWorker(t), newChaosWorker(t)}
		urls := workerURLs(workers)
		var mu sync.Mutex
		var transports []*chaos.Transport
		dial := func(url string) (fleet.WorkerClient, error) {
			tr := chaos.NewTransport(nil, forkWorker(src, "net:", urls, url),
				chaos.TransportFaults{
					Latency: 15 * time.Millisecond, PLatency: 0.3,
					PDrop: 0.05, PReset: 0.05,
				})
			mu.Lock()
			transports = append(transports, tr)
			mu.Unlock()
			return client.New(url,
				client.WithHTTPClient(&http.Client{Transport: tr}),
				client.WithRetry(5, 5*time.Millisecond, 25*time.Millisecond),
				client.WithJitterSeed(seed))
		}
		co, err := fleet.New(urls,
			fleet.WithDialer(dial),
			fleet.WithHealth(25*time.Millisecond, time.Second, 2),
			fleet.WithRedispatchBudget(100),
			fleet.WithDispatchPatience(30*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		defer closeFleet(t, co)
		runSchedule(t, co, want, func() bool {
			var faults int64
			mu.Lock()
			for _, tr := range transports {
				faults += tr.Injected()
			}
			mu.Unlock()
			return faults > 0
		})
	})

	t.Run("coordinator-kill", func(t *testing.T) {
		// The coordinator itself is the casualty: killed mid-sweep on durable
		// stores (commit-grade journal durability), restarted with brand-new
		// stateless workers. The second life must answer the finished points
		// from the CAS and compute exactly the rest — proven to the unit by
		// the eval counters — with rows bit-identical to the baseline.
		dir := t.TempDir()
		openStores := func() (*store.CAS, *store.Journal) {
			cas, err := store.OpenCAS(filepath.Join(dir, "cas"), store.CASSync())
			if err != nil {
				t.Fatal(err)
			}
			journal, err := store.OpenJournal(filepath.Join(dir, "jobs.log"), store.JournalSyncEvery(1))
			if err != nil {
				t.Fatal(err)
			}
			return cas, journal
		}
		points, err := chaosSweep().Points()
		if err != nil {
			t.Fatal(err)
		}

		cas1, journal1 := openStores()
		co1, err := fleet.New(workerURLs([]*chaosWorker{newChaosWorker(t), newChaosWorker(t)}),
			fleet.WithDialer(fastDial),
			fleet.WithResultCache(cas1), fleet.WithJobStore(journal1))
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range points[:13] {
			id, err := co1.Submit(ctx, pt.Job())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := co1.Result(ctx, id); err != nil {
				t.Fatal(err)
			}
		}
		firstEvals := co1.Metrics().STAEvals
		closeFleet(t, co1) // the kill: coordinator gone, workers' state gone
		if err := journal1.Close(); err != nil {
			t.Fatal(err)
		}
		if err := cas1.Close(); err != nil {
			t.Fatal(err)
		}

		cas2, journal2 := openStores()
		defer journal2.Close()
		co2, err := fleet.New(workerURLs([]*chaosWorker{newChaosWorker(t), newChaosWorker(t)}),
			fleet.WithDialer(fastDial),
			fleet.WithResultCache(cas2), fleet.WithJobStore(journal2))
		if err != nil {
			t.Fatal(err)
		}
		defer closeFleet(t, co2)
		runSchedule(t, co2, want, func() bool { return firstEvals > 0 })
		m := co2.Metrics()
		if m.CacheHits != 13 || m.CacheMisses != 14 {
			t.Fatalf("resume split %d hits / %d misses, want 13/14", m.CacheHits, m.CacheMisses)
		}
		if firstEvals+m.STAEvals != baseEvals {
			t.Fatalf("recomputation across the kill: %d + %d != %d evals",
				firstEvals, m.STAEvals, baseEvals)
		}
	})
}

// TestChaosPoisonQuarantine: a job whose submission kills every worker it
// touches is quarantined after its re-dispatch budget with ErrJobPoisoned —
// and the fleet, having watched two workers die, recovers and serves the
// next clean job.
func TestChaosPoisonQuarantine(t *testing.T) {
	seed := chaosSeed(t)
	ctx := context.Background()

	poison := dualvdd.BenchmarkJob("alu4", dualvdd.WithSimWords(32))
	poisonKey, err := poison.Key()
	if err != nil {
		t.Fatal(err)
	}
	src := chaos.NewSource(seed)
	workers := []*chaosWorker{newChaosWorker(t), newChaosWorker(t)}
	urls := workerURLs(workers)
	dial := func(url string) (fleet.WorkerClient, error) {
		inner, err := client.New(url, client.WithRetry(2, 10*time.Millisecond, 50*time.Millisecond))
		if err != nil {
			return nil, err
		}
		return chaos.NewWorker(inner, forkWorker(src, "worker:", urls, url),
			chaos.WorkerFaults{PoisonKeys: map[string]bool{poisonKey: true}}), nil
	}
	co, err := fleet.New(urls,
		fleet.WithDialer(dial),
		fleet.WithHealth(20*time.Millisecond, time.Second, 2),
		fleet.WithRedispatchBudget(2),
		fleet.WithDispatchPatience(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		cctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = co.Close(cctx)
	}()

	id, err := co.Submit(ctx, poison)
	if err != nil {
		t.Fatal(err)
	}
	st, err := co.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != dualvdd.JobFailed {
		t.Fatalf("poison job ended %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, fleet.ErrJobPoisoned.Error()) {
		t.Fatalf("poison job's terminal error %q does not name the quarantine", st.Error)
	}
	m := co.Metrics()
	if m.QuarantinedJobs != 1 {
		t.Fatalf("QuarantinedJobs = %d, want 1", m.QuarantinedJobs)
	}

	// The fleet heals: probes drain the crash windows, breakers half-open,
	// and a clean job completes on a recovered worker.
	clean := dualvdd.BenchmarkJob("x2", dualvdd.WithSimWords(32))
	id, err = co.Submit(ctx, clean)
	if err != nil {
		t.Fatal(err)
	}
	st, err = co.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != dualvdd.JobDone {
		t.Fatalf("clean job after quarantine ended %s: %s", st.State, st.Error)
	}
}

// metricsRunner is the slice of a service the dedup regression drives: any
// Runner that also exposes its counters (Local and fleet.Coordinator both do).
type metricsRunner interface {
	dualvdd.Runner
	Metrics() dualvdd.Metrics
}

// TestChaosRetriedSubmitDedup is the double-submit regression. The first
// POST /v1/jobs lands and the service admits the job — but the response dies
// mid-body with ECONNRESET, so the client cannot know and retries the POST.
// The service must recognize the in-flight twin by content address and answer
// with its live ID: one job queued, one computed, nothing charged twice.
// Proven through both service shapes behind the same HTTP front door: a
// worker (Local) and a fleet coordinator.
func TestChaosRetriedSubmitDedup(t *testing.T) {
	seed := chaosSeed(t)

	shapes := []struct {
		name  string
		build func(t *testing.T) metricsRunner
	}{
		{"local", func(t *testing.T) metricsRunner {
			l := dualvdd.NewLocal()
			t.Cleanup(func() {
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				_ = l.Close(ctx)
			})
			return l
		}},
		{"fleet", func(t *testing.T) metricsRunner {
			workers := []*chaosWorker{newChaosWorker(t)}
			co, err := fleet.New(workerURLs(workers), fleet.WithDialer(func(url string) (fleet.WorkerClient, error) {
				return client.New(url, client.WithRetry(2, 10*time.Millisecond, 50*time.Millisecond))
			}))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				_ = co.Close(ctx)
			})
			return co
		}},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			svc := shape.build(t)
			ts := httptest.NewServer(server.New(svc))
			defer ts.Close()

			// Cut exactly the first response, two bytes in: the submission
			// answer — not the request — is what dies in transit.
			tr := chaos.NewTransport(nil, chaos.NewSource(seed).Fork("dedup:"+shape.name),
				chaos.TransportFaults{PReset: 1, ResetAfter: 2, ResetBudget: 1})
			c, err := client.New(ts.URL,
				client.WithHTTPClient(&http.Client{Transport: tr}),
				client.WithRetry(4, 5*time.Millisecond, 25*time.Millisecond),
				client.WithJitterSeed(seed))
			if err != nil {
				t.Fatal(err)
			}

			// Slow enough that the retry lands while the first admission is
			// still in flight — the window the idempotency must cover.
			id, err := c.Submit(ctx, dualvdd.BenchmarkJob("des", dualvdd.WithSimWords(2048)))
			if err != nil {
				t.Fatalf("submit did not survive the cut response: %v", err)
			}
			st, err := c.Result(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != dualvdd.JobDone {
				t.Fatalf("job ended %s: %s", st.State, st.Error)
			}
			if tr.Injected() == 0 {
				t.Fatal("the reset never fired — the run was fault-free and proves nothing")
			}
			m := svc.Metrics()
			if m.SubmitDedups != 1 {
				t.Fatalf("SubmitDedups = %d, want 1 (the retry was not absorbed)", m.SubmitDedups)
			}
			if m.JobsDone != 1 || m.CacheMisses != 1 {
				t.Fatalf("done=%d misses=%d, want 1/1: the retried POST spawned a duplicate job",
					m.JobsDone, m.CacheMisses)
			}
		})
	}
}

// TestChaosDegradedStore is the ENOSPC end-to-end: a Local whose primary
// cache fails every write degrades to its in-memory fallback, keeps serving
// bit-identical results, reports StoreDegraded, and repeat submissions hit
// the fallback instead of recomputing.
func TestChaosDegradedStore(t *testing.T) {
	seed := chaosSeed(t)
	ctx := context.Background()

	cas, err := store.OpenCAS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	faulty := chaos.NewCache(cas, chaos.NewSource(seed), chaos.StoreFaults{PPutErr: 1})
	degrading := dualvdd.NewDegradingCache(faulty, 64, 2)
	local := dualvdd.NewLocal(dualvdd.LocalResultCache(degrading))
	defer local.Close(ctx)

	baseline := dualvdd.NewLocal()
	defer baseline.Close(ctx)

	job := dualvdd.BenchmarkJob("x2", dualvdd.WithSimWords(32))
	run := func(r dualvdd.Runner) *dualvdd.JobStatus {
		id, err := r.Submit(ctx, job)
		if err != nil {
			t.Fatal(err)
		}
		st, err := r.Result(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != dualvdd.JobDone {
			t.Fatalf("job ended %s: %s", st.State, st.Error)
		}
		return st
	}

	// Trip the degrade threshold: each completed job is one failed Put.
	st := run(local)
	want := run(baseline)
	if math.Float64bits(st.Results[0].Power) != math.Float64bits(want.Results[0].Power) {
		t.Fatal("result diverged under a failing store")
	}
	run2 := dualvdd.BenchmarkJob("mux", dualvdd.WithSimWords(32))
	if id, err := local.Submit(ctx, run2); err != nil {
		t.Fatal(err)
	} else if _, err := local.Result(ctx, id); err != nil {
		t.Fatal(err)
	}

	if !degrading.Degraded() {
		t.Fatalf("store did not degrade after %d consecutive ENOSPC failures", degrading.Errors())
	}
	if local.Metrics().StoreDegraded != 1 {
		t.Fatal("StoreDegraded gauge not set while degraded")
	}

	// The fallback serves: a repeat submission is a cache hit, not a recompute.
	before := local.Metrics()
	run(local)
	after := local.Metrics()
	if after.CacheHits != before.CacheHits+1 {
		t.Fatalf("repeat submission missed the fallback cache: %d hits then %d",
			before.CacheHits, after.CacheHits)
	}
	if faulty.InjectedPutErrors() == 0 {
		t.Fatal("the ENOSPC schedule never fired")
	}
}
