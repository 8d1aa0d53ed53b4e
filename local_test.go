package dualvdd_test

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"dualvdd"
	"dualvdd/internal/sim"
)

// mustClose drains a Local with a generous bound.
func mustClose(t *testing.T, l *dualvdd.Local) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := l.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// sameFlowResult compares every deterministic field bit-for-bit; wall clocks
// and the local-only Circuit are excluded.
func sameFlowResult(t *testing.T, label string, got, want *dualvdd.FlowResult) {
	t.Helper()
	if got.Algorithm != want.Algorithm || got.Gates != want.Gates ||
		got.LowGates != want.LowGates || got.LCs != want.LCs || got.Sized != want.Sized ||
		got.STAEvals != want.STAEvals || got.CandEvals != want.CandEvals {
		t.Fatalf("%s: counters differ:\n got %+v\nwant %+v", label, got, want)
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"Power", got.Power, want.Power},
		{"ImprovePct", got.ImprovePct, want.ImprovePct},
		{"LowRatio", got.LowRatio, want.LowRatio},
		{"AreaIncrease", got.AreaIncrease, want.AreaIncrease},
		{"WorstSlack", got.WorstSlack, want.WorstSlack},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Fatalf("%s: %s differs: %v vs %v", label, f.name, f.got, f.want)
		}
	}
}

func TestLocalRunnerMatchesFlow(t *testing.T) {
	ctx := context.Background()
	l := dualvdd.NewLocal(dualvdd.LocalWorkers(2))
	defer mustClose(t, l)

	id, err := l.Submit(ctx, dualvdd.BenchmarkJob("x2"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := l.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != dualvdd.JobDone {
		t.Fatalf("job ended %s: %s", st.State, st.Error)
	}
	if st.Design == nil || st.Design.Name != "x2" || st.Design.Gates == 0 {
		t.Fatalf("design info missing: %+v", st.Design)
	}

	flow := dualvdd.New()
	d, err := flow.PrepareBenchmark(ctx, "x2")
	if err != nil {
		t.Fatal(err)
	}
	want, err := flow.Run(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Results) != len(want) {
		t.Fatalf("runner returned %d results, flow %d", len(st.Results), len(want))
	}
	for i := range want {
		sameFlowResult(t, want[i].Algorithm, st.Results[i], want[i])
	}
}

func TestLocalWatchStreamsAndReplays(t *testing.T) {
	ctx := context.Background()
	l := dualvdd.NewLocal()
	defer mustClose(t, l)

	id, err := l.Submit(ctx, dualvdd.BenchmarkJob("mux", dualvdd.WithAlgorithms(dualvdd.AlgoCVS, dualvdd.AlgoDscale)))
	if err != nil {
		t.Fatal(err)
	}
	count := func() map[string]int {
		events, err := l.Watch(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[string]int{}
		var last dualvdd.Event
		for ev := range events {
			counts[dualvdd.EventKind(ev)]++
			last = ev
		}
		if _, ok := last.(dualvdd.EventResult); !ok {
			t.Fatalf("stream ended on %T, want EventResult", last)
		}
		return counts
	}
	live := count()
	if live[dualvdd.EventKindMapped] != 1 || live[dualvdd.EventKindResult] != 2 {
		t.Fatalf("live stream counts: %v", live)
	}
	// A second Watch after completion replays the identical history.
	replay := count()
	for kind, n := range live {
		if replay[kind] != n {
			t.Fatalf("replay %s = %d, live %d", kind, replay[kind], n)
		}
	}
}

func TestLocalCacheAnswersIdenticalSubmissions(t *testing.T) {
	ctx := context.Background()
	l := dualvdd.NewLocal()
	defer mustClose(t, l)

	job := dualvdd.BenchmarkJob("z4ml")
	id1, err := l.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	first, err := l.Result(ctx, id1)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first submission claims a cache hit")
	}
	before := l.Metrics()
	if before.CacheHits != 0 || before.CacheMisses != 1 || before.CacheEntries != 1 {
		t.Fatalf("metrics after miss: %+v", before)
	}

	// The identical job again — answered from the cache, no recomputation.
	id2, err := l.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id1 {
		t.Fatal("cache hit reused the job ID")
	}
	second, err := l.Result(ctx, id2)
	if err != nil {
		t.Fatal(err)
	}
	if second.State != dualvdd.JobDone || !second.Cached {
		t.Fatalf("cached job: state %s cached %v", second.State, second.Cached)
	}
	for i := range first.Results {
		sameFlowResult(t, first.Results[i].Algorithm, second.Results[i], first.Results[i])
	}
	after := l.Metrics()
	if after.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", after.CacheHits)
	}
	if after.STAEvals != before.STAEvals || after.CandEvals != before.CandEvals {
		t.Fatalf("cache hit recomputed: before %+v after %+v", before, after)
	}

	// The job surface never carries scaled netlists — neither the history
	// nor the cache may pin them, and local statuses match wire-decoded
	// ones in shape.
	if first.Results[0].Circuit != nil || second.Results[0].Circuit != nil {
		t.Fatal("job status retained a scaled circuit")
	}

	// A different seed is a different content address.
	id3, err := l.Submit(ctx, dualvdd.BenchmarkJob("z4ml", dualvdd.WithSeed(7)))
	if err != nil {
		t.Fatal(err)
	}
	third, err := l.Result(ctx, id3)
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Fatal("different config hit the cache")
	}
}

func TestJobKeyCanonicalization(t *testing.T) {
	// Formatting does not defeat the content address: the same model with
	// different layout hashes identically. (Cube order stays significant —
	// it can steer the technology mapper, so folding it away could serve a
	// wrong cached result.)
	a := ".model t\n.inputs a b\n.outputs f\n.names a b f\n11 1\n10 1\n.end\n"
	b := ".model t\n.inputs a \\\n  b\n.outputs f\n\n.names a b f\n11 1\n10 1\n.end\n"
	ka, err := dualvdd.BLIFJob(a).Key()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := dualvdd.BLIFJob(b).Key()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatalf("equivalent models hash apart:\n%s\n%s", ka, kb)
	}
	// Nil algorithms means all three — same key as the explicit list.
	full := dualvdd.BenchmarkJob("x2", dualvdd.WithAlgorithms(dualvdd.Algorithms()...))
	none := dualvdd.BenchmarkJob("x2")
	kf, _ := full.Key()
	kn, _ := none.Key()
	if kf != kn {
		t.Fatal("empty algorithm list hashes apart from the explicit default")
	}
	// Config changes the address.
	ks, err := dualvdd.BenchmarkJob("x2", dualvdd.WithSeed(9)).Key()
	if err != nil {
		t.Fatal(err)
	}
	if ks == kn {
		t.Fatal("seed change kept the same key")
	}
}

// slowJob is a des run stretched with a large simulation so the test can
// observe queued/running states deterministically. The seed varies the content
// address: identical submissions would dedup onto the in-flight job instead of
// occupying queue slots.
func slowJob(seed uint64) dualvdd.Job {
	return dualvdd.BenchmarkJob("des", dualvdd.WithSimWords(4096), dualvdd.WithSeed(seed))
}

// waitState polls until the job reaches the wanted state.
func waitState(t *testing.T, l *dualvdd.Local, id dualvdd.JobID, want dualvdd.JobState) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		st, err := l.Status(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

func TestLocalQueueBoundAndCancel(t *testing.T) {
	ctx := context.Background()
	l := dualvdd.NewLocal(dualvdd.LocalWorkers(1), dualvdd.LocalQueueDepth(1), dualvdd.LocalCacheEntries(0))
	defer func() {
		cctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		_ = l.Close(cctx) // cancels the leftovers; expiry expected
	}()

	running, err := l.Submit(ctx, slowJob(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, l, running, dualvdd.JobRunning)

	// One slot in the queue…
	queued, err := l.Submit(ctx, slowJob(2))
	if err != nil {
		t.Fatal(err)
	}
	// …and the next submission bounces.
	if _, err := l.Submit(ctx, slowJob(3)); !errors.Is(err, dualvdd.ErrQueueFull) {
		t.Fatalf("overfull submit returned %v, want ErrQueueFull", err)
	}

	// A resubmission of an in-flight job is not a third distinct job: it
	// adopts the live one instead of bouncing off the full queue.
	if id, err := l.Submit(ctx, slowJob(2)); err != nil || id != queued {
		t.Fatalf("resubmit of queued job returned (%s, %v), want (%s, nil)", id, err, queued)
	}

	// Cancel the queued job: terminal immediately, without running.
	if err := l.Cancel(ctx, queued); err != nil {
		t.Fatal(err)
	}
	st, err := l.Result(ctx, queued)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != dualvdd.JobCancelled {
		t.Fatalf("cancelled queued job is %s", st.State)
	}

	// Cancel the running job: its per-job context stops the loops.
	if err := l.Cancel(ctx, running); err != nil {
		t.Fatal(err)
	}
	st, err = l.Result(ctx, running)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != dualvdd.JobCancelled {
		t.Fatalf("cancelled running job is %s (err %q)", st.State, st.Error)
	}

	m := l.Metrics()
	if m.JobsCancelled != 2 {
		t.Fatalf("cancelled counter = %d, want 2", m.JobsCancelled)
	}
	if m.SubmitDedups != 1 {
		t.Fatalf("submit dedups = %d, want 1", m.SubmitDedups)
	}
}

// TestLocalCancelStopsPowerSimulation: a job cancelled while its power
// simulation runs ends cancelled at once, and Close then drains within its
// grace. A request may ask for up to MaxSimWords words. des's simulation at
// the cap runs about 10 s on one core (C880's under 1 s), far past the 2 s
// this test allows, so the job must stop at the simulation's next block.
// Every wait is bounded: a simulation that ignores its context fails the
// test instead of hanging it.
func TestLocalCancelStopsPowerSimulation(t *testing.T) {
	ctx := context.Background()
	l := dualvdd.NewLocal(dualvdd.LocalWorkers(1), dualvdd.LocalCacheEntries(0))
	runs := sim.Runs()
	id, err := l.Submit(ctx, dualvdd.BenchmarkJob("des",
		dualvdd.WithSimWords(dualvdd.MaxSimWords), dualvdd.WithAlgorithms(dualvdd.AlgoCVS)))
	if err != nil {
		t.Fatal(err)
	}
	// The simulation has started once the process-wide run count moves.
	for deadline := time.Now().Add(time.Minute); sim.Runs() == runs; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the power simulation never started")
		}
	}
	if err := l.Cancel(ctx, id); err != nil {
		t.Fatal(err)
	}
	rctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	st, err := l.Result(rctx, id)
	if err != nil {
		t.Fatalf("job cancelled during its power simulation did not end within 2 s: %v", err)
	}
	if st.State != dualvdd.JobCancelled {
		t.Fatalf("job cancelled during its power simulation is %s (%s)", st.State, st.Error)
	}
	closed := make(chan error, 1)
	go func() {
		cctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		closed <- l.Close(cctx)
	}()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close with a 2 s grace: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("close with a 2 s grace had not returned 10 s later")
	}
}

func TestLocalCloseDrainsQueuedJobs(t *testing.T) {
	ctx := context.Background()
	l := dualvdd.NewLocal(dualvdd.LocalWorkers(1), dualvdd.LocalQueueDepth(8))
	var ids []dualvdd.JobID
	for i := 0; i < 3; i++ {
		id, err := l.Submit(ctx, dualvdd.BenchmarkJob("z4ml", dualvdd.WithSeed(uint64(i+1))))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	mustClose(t, l)
	// Every job submitted before Close finished normally.
	for _, id := range ids {
		st, err := l.Status(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != dualvdd.JobDone {
			t.Fatalf("job %s drained to %s (%s)", id, st.State, st.Error)
		}
	}
	if _, err := l.Submit(ctx, dualvdd.BenchmarkJob("x2")); !errors.Is(err, dualvdd.ErrClosed) {
		t.Fatalf("post-close submit returned %v, want ErrClosed", err)
	}
}

func TestLocalJobHistoryEviction(t *testing.T) {
	ctx := context.Background()
	l := dualvdd.NewLocal(dualvdd.LocalJobHistory(1), dualvdd.LocalCacheEntries(0))
	defer mustClose(t, l)

	first, err := l.Submit(ctx, dualvdd.BenchmarkJob("z4ml"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Result(ctx, first); err != nil {
		t.Fatal(err)
	}
	second, err := l.Submit(ctx, dualvdd.BenchmarkJob("z4ml", dualvdd.WithSeed(2)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Result(ctx, second); err != nil {
		t.Fatal(err)
	}
	// The bound retains only the most recent terminal job.
	if _, err := l.Status(ctx, first); !errors.Is(err, dualvdd.ErrJobNotFound) {
		t.Fatalf("evicted job returned %v, want ErrJobNotFound", err)
	}
	if st, err := l.Status(ctx, second); err != nil || st.State != dualvdd.JobDone {
		t.Fatalf("recent job: %v / %+v", err, st)
	}
}

// stableGoroutines samples the goroutine count until it stops shrinking,
// giving exiting workers and abandoned watchers time to unwind.
func stableGoroutines(deadline time.Time, atMost int) int {
	n := runtime.NumGoroutine()
	for time.Now().Before(deadline) {
		if n <= atMost {
			return n
		}
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestLocalLifecycleNoGoroutineLeak hammers one Local with concurrent
// Submit/Cancel/Watch — including Watch subscribers that abandon their
// stream mid-flight — then closes it and asserts every service goroutine
// (worker pool, watch pumps) exited: the count returns to its baseline.
func TestLocalLifecycleNoGoroutineLeak(t *testing.T) {
	ctx := context.Background()
	before := runtime.NumGoroutine()

	l := dualvdd.NewLocal(dualvdd.LocalWorkers(4), dualvdd.LocalQueueDepth(32))
	const jobs = 12
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, err := l.Submit(ctx, dualvdd.BenchmarkJob("z4ml",
				dualvdd.WithSeed(uint64(i+1)), dualvdd.WithSimWords(64)))
			if err != nil {
				t.Error(err)
				return
			}
			switch i % 3 {
			case 0:
				// An abandoned Watch subscriber: attach, read at most one
				// event, walk away by cancelling the stream context.
				wctx, wcancel := context.WithCancel(ctx)
				defer wcancel()
				events, err := l.Watch(wctx, id)
				if err != nil {
					t.Error(err)
					return
				}
				<-events
				wcancel()
			case 1:
				// Concurrent cancel; racing the worker is the point — any
				// terminal state is fine.
				if err := l.Cancel(ctx, id); err != nil {
					t.Error(err)
				}
				if _, err := l.Result(ctx, id); err != nil {
					t.Error(err)
				}
			default:
				if _, err := l.Result(ctx, id); err != nil {
					t.Error(err)
				}
			}
		}(i)
	}
	wg.Wait()
	mustClose(t, l)

	// Abandoned watch pumps and pool workers unwind asynchronously; allow a
	// little slack for runtime bookkeeping goroutines.
	atMost := before + 2
	if n := stableGoroutines(time.Now().Add(10*time.Second), atMost); n > atMost {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines: %d before, %d after close\n%s",
			before, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestLocalCloseDuringSweepDrains proves Close during an in-flight sweep
// drains cleanly: points already submitted finish normally, later
// submissions fail with ErrClosed (which aborts the sweep deterministically
// rather than hanging it), and the service winds down to its baseline
// goroutine count.
func TestLocalCloseDuringSweepDrains(t *testing.T) {
	ctx := context.Background()
	before := runtime.NumGoroutine()
	l := dualvdd.NewLocal(dualvdd.LocalWorkers(1), dualvdd.LocalQueueDepth(32))

	base := dualvdd.DefaultConfig()
	base.SimWords = 512 // slow the points down so Close lands mid-sweep
	sweep := dualvdd.Sweep{
		Circuits:   dualvdd.SweepBenchmarks("z4ml"),
		Base:       base,
		Algorithms: []dualvdd.Algorithm{dualvdd.AlgoCVS},
		Axes:       dualvdd.Axes{VDDL: []float64{4.5, 4.3, 4.1, 3.9, 3.7, 3.5}},
	}
	type outcome struct {
		results []dualvdd.SweepPointResult
		err     error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := sweep.Run(ctx, l, dualvdd.SweepInFlight(2))
		done <- outcome{res, err}
	}()

	// Wait for the sweep to get work in flight, then close under it.
	deadline := time.Now().Add(time.Minute)
	for {
		m := l.Metrics()
		if m.JobsRunning > 0 || m.JobsDone > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep never started")
		}
		time.Sleep(time.Millisecond)
	}
	mustClose(t, l)

	out := <-done
	if out.err != nil && !errors.Is(out.err, dualvdd.ErrClosed) {
		t.Fatalf("sweep under close returned %v, want nil or ErrClosed", out.err)
	}
	// Every point that did complete drained normally and carries results.
	completed := 0
	for _, pr := range out.results {
		if pr.Status == nil {
			continue
		}
		if pr.Status.State != dualvdd.JobDone || len(pr.Status.Results) == 0 {
			t.Fatalf("drained point %d ended %s", pr.Point.Index, pr.Status.State)
		}
		completed++
	}
	if completed == 0 {
		t.Fatal("close drained zero points")
	}
	atMost := before + 2
	if n := stableGoroutines(time.Now().Add(10*time.Second), atMost); n > atMost {
		t.Fatalf("goroutines: %d before, %d after close", before, n)
	}
}

func TestLocalUnknownJobAndBadJob(t *testing.T) {
	ctx := context.Background()
	l := dualvdd.NewLocal()
	defer mustClose(t, l)

	for name, call := range map[string]func() error{
		"status": func() error { _, err := l.Status(ctx, "nonesuch"); return err },
		"result": func() error { _, err := l.Result(ctx, "nonesuch"); return err },
		"watch":  func() error { _, err := l.Watch(ctx, "nonesuch"); return err },
		"cancel": func() error { return l.Cancel(ctx, "nonesuch") },
	} {
		if err := call(); !errors.Is(err, dualvdd.ErrJobNotFound) {
			t.Fatalf("%s on unknown id returned %v, want ErrJobNotFound", name, err)
		}
	}

	if _, err := l.Submit(ctx, dualvdd.Job{}); err == nil {
		t.Fatal("empty job accepted")
	}
	both := dualvdd.Job{Benchmark: "x2", BLIF: ".model x\n.end\n", Config: dualvdd.DefaultConfig()}
	if _, err := l.Submit(ctx, both); err == nil {
		t.Fatal("job with both inputs accepted")
	}
	bad := dualvdd.BenchmarkJob("x2")
	bad.Algorithms = []dualvdd.Algorithm{"Qscale"}
	if _, err := l.Submit(ctx, bad); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := l.Submit(ctx, dualvdd.BenchmarkJob("nonesuch")); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}
