package fleet_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dualvdd"
	"dualvdd/client"
	"dualvdd/fleet"
	"dualvdd/internal/chaos"
	"dualvdd/internal/store"
	"dualvdd/server"
)

// testWorker is one fleet worker: a Local behind the real HTTP surface.
type testWorker struct {
	local *dualvdd.Local
	ts    *httptest.Server
}

func (w *testWorker) kill() {
	w.ts.CloseClientConnections()
	w.ts.Close()
}

// newWorker starts a worker service; cleanup is registered.
func newWorker(t *testing.T, opts ...dualvdd.LocalOption) *testWorker {
	t.Helper()
	local := dualvdd.NewLocal(opts...)
	ts := httptest.NewServer(server.New(local, server.WithRequestTimeout(5*time.Second)))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = local.Close(ctx)
	})
	return &testWorker{local: local, ts: ts}
}

// fastDial builds worker clients with a snappy retry policy so worker-death
// tests don't wait out the default backoff schedule.
func fastDial(url string) (fleet.WorkerClient, error) {
	return client.New(url, client.WithRetry(2, 10*time.Millisecond, 50*time.Millisecond))
}

// newFleet builds a coordinator over the given workers; cleanup registered.
func newFleet(t *testing.T, workers []*testWorker, opts ...fleet.Option) *fleet.Coordinator {
	t.Helper()
	urls := make([]string, len(workers))
	for i, w := range workers {
		urls[i] = w.ts.URL
	}
	opts = append([]fleet.Option{fleet.WithDialer(fastDial)}, opts...)
	co, err := fleet.New(urls, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = co.Close(ctx)
	})
	return co
}

// stubWorker is an in-process worker for WithDialer: a Local behind the
// WorkerClient surface, whose Submit passes gate (when set) first.
type stubWorker struct {
	*dualvdd.Local
	gate func(ctx context.Context) error
}

func (w *stubWorker) Health(context.Context) error { return nil }

func (w *stubWorker) Submit(ctx context.Context, job dualvdd.Job) (dualvdd.JobID, error) {
	if w.gate != nil {
		if err := w.gate(ctx); err != nil {
			return "", err
		}
	}
	return w.Local.Submit(ctx, job)
}

// stubFleet builds a one-worker coordinator over a stubWorker with the
// given gate; cleanup registered.
func stubFleet(t *testing.T, gate func(ctx context.Context) error, opts ...fleet.Option) *fleet.Coordinator {
	t.Helper()
	w := &stubWorker{Local: dualvdd.NewLocal(), gate: gate}
	dial := func(string) (fleet.WorkerClient, error) { return w, nil }
	co, err := fleet.New([]string{"stub"}, append([]fleet.Option{fleet.WithDialer(dial)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = co.Close(ctx)
		_ = w.Close(ctx)
	})
	return co
}

// resumeSweep is the small grid the resume and equivalence tests run on:
// one circuit, four low-rail points, one group — everything lands on one
// worker's warm arc.
func resumeSweep() dualvdd.Sweep {
	base := dualvdd.DefaultConfig()
	base.SimWords = 32
	return dualvdd.Sweep{
		Circuits:   dualvdd.SweepBenchmarks("x2"),
		Base:       base,
		Algorithms: []dualvdd.Algorithm{dualvdd.AlgoCVS},
		Axes:       dualvdd.Axes{VDDL: []float64{4.3, 4.1, 3.9, 3.7}},
	}
}

// TestFleetMatchesLocal holds the coordinator to the Runner contract's
// bit-identical promise: jobs and whole sweeps through a two-worker fleet
// return exactly what a Local returns, events stream, and a repeat
// submission is served from the coordinator's own cache.
func TestFleetMatchesLocal(t *testing.T) {
	ctx := context.Background()
	workers := []*testWorker{newWorker(t), newWorker(t)}
	co := newFleet(t, workers)

	local := dualvdd.NewLocal()
	defer local.Close(ctx)

	s := resumeSweep()
	want, err := s.Run(ctx, local)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Run(ctx, co)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("fleet sweep returned %d rows, local %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i].Status.Results[0], want[i].Status.Results[0]
		if math.Float64bits(g.Power) != math.Float64bits(w.Power) || g.STAEvals != w.STAEvals {
			t.Fatalf("point %d diverged across the fleet: power %v vs %v", i, g.Power, w.Power)
		}
	}

	// One group → one worker: the consistent-hash placement keeps the whole
	// sweep on a single warm arc, and the other worker computes nothing.
	var busy int
	for _, w := range workers {
		if w.local.Metrics().JobsDone > 0 {
			busy++
		}
	}
	if busy != 1 {
		t.Fatalf("one sweep group spread across %d workers, want 1", busy)
	}

	// Rerun: every point is a coordinator-cache hit; no worker sees a job.
	before := co.Metrics()
	if _, err := s.Run(ctx, co); err != nil {
		t.Fatal(err)
	}
	after := co.Metrics()
	if after.CacheHits != before.CacheHits+4 {
		t.Fatalf("rerun hit the cache %d times, want 4", after.CacheHits-before.CacheHits)
	}
	if after.STAEvals != before.STAEvals {
		t.Fatal("rerun recomputed despite the cache")
	}

	// Watch streams the relayed events for a finished job.
	id, err := co.Submit(ctx, dualvdd.BenchmarkJob("x2", dualvdd.WithSimWords(32)))
	if err != nil {
		t.Fatal(err)
	}
	events, err := co.Watch(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for ev := range events {
		kinds[dualvdd.EventKind(ev)]++
	}
	if kinds[dualvdd.EventKindMapped] == 0 || kinds[dualvdd.EventKindResult] == 0 {
		t.Fatalf("fleet watch lost the event stream: %v", kinds)
	}
}

// TestFleetRedispatchOnWorkerDeath kills the worker that owns a running job
// (connections severed, listener closed — the HTTP equivalent of SIGKILL)
// and asserts the coordinator moves the job to the surviving worker and
// still returns the bit-identical result.
func TestFleetRedispatchOnWorkerDeath(t *testing.T) {
	ctx := context.Background()
	workers := []*testWorker{newWorker(t), newWorker(t)}
	co := newFleet(t, workers)

	// A job slow enough to be mid-flight when its worker dies: des runs for
	// a few hundred milliseconds, alu4 (since area recovery got fast) for
	// about as long as the owner search takes.
	job := dualvdd.BenchmarkJob("des", dualvdd.WithSimWords(4096), dualvdd.WithAlgorithms(dualvdd.AlgoCVS))
	id, err := co.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}

	// Find the owner: the worker whose Local has accepted the job.
	var owner, survivor *testWorker
	deadline := time.Now().Add(10 * time.Second)
	for owner == nil {
		if time.Now().After(deadline) {
			t.Fatal("no worker ever accepted the job")
		}
		for i, w := range workers {
			m := w.local.Metrics()
			if m.JobsQueued+m.JobsRunning+int(m.JobsDone) > 0 {
				owner, survivor = w, workers[1-i]
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	owner.kill()

	st, err := co.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != dualvdd.JobDone {
		t.Fatalf("job ended %s after worker death: %s", st.State, st.Error)
	}

	// The survivor computed it; the result matches a local run bit for bit.
	local := dualvdd.NewLocal()
	defer local.Close(ctx)
	lid, err := local.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	lst, err := local.Result(ctx, lid)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(st.Results[0].Power) != math.Float64bits(lst.Results[0].Power) {
		t.Fatal("re-dispatched result diverged from a local run")
	}
	if survivor.local.Metrics().JobsDone == 0 {
		t.Fatal("survivor never ran the re-dispatched job")
	}
	m := co.Metrics()
	if m.Redispatches == 0 {
		t.Fatalf("no re-dispatch recorded: %+v", m)
	}
	if m.WorkersDead == 0 {
		t.Fatalf("dead worker not marked: %+v", m)
	}
}

// TestFleetResumableSweep is the tentpole acceptance test: a coordinator on
// durable stores is killed after completing part of a sweep; a fresh
// coordinator on the same directory — with brand-new workers holding no
// state at all — re-runs the whole sweep and must (a) answer the already
// computed points from the disk CAS with zero recomputation, (b) compute
// exactly the missing points, and (c) produce rows bit-identical to an
// uninterrupted local run. The eval counters are the proof: evals(first
// life) + evals(second life) == evals(uninterrupted), to the unit.
func TestFleetResumableSweep(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s := resumeSweep()
	points, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("test grid has %d points, want 4", len(points))
	}

	// Uninterrupted baseline on a plain Local.
	baseline := dualvdd.NewLocal()
	want, err := s.Run(ctx, baseline)
	if err != nil {
		t.Fatal(err)
	}
	baseEvals := baseline.Metrics().STAEvals
	_ = baseline.Close(ctx)

	openStores := func() (*store.CAS, *store.Journal) {
		cas, err := store.OpenCAS(filepath.Join(dir, "cas"))
		if err != nil {
			t.Fatal(err)
		}
		journal, err := store.OpenJournal(filepath.Join(dir, "jobs.log"))
		if err != nil {
			t.Fatal(err)
		}
		return cas, journal
	}

	// First life: complete the first two points, then die.
	cas1, journal1 := openStores()
	co1 := newFleet(t, []*testWorker{newWorker(t), newWorker(t)},
		fleet.WithResultCache(cas1), fleet.WithJobStore(journal1))
	var firstIDs []dualvdd.JobID
	for _, pt := range points[:2] {
		id, err := co1.Submit(ctx, pt.Job())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := co1.Result(ctx, id); err != nil {
			t.Fatal(err)
		}
		firstIDs = append(firstIDs, id)
	}
	firstEvals := co1.Metrics().STAEvals
	if firstEvals <= 0 {
		t.Fatal("first life computed nothing")
	}
	if err := co1.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := journal1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: same directory, fresh coordinator, fresh stateless
	// workers. Any point not answered by the CAS must be recomputed from
	// scratch — so the eval counter can't hide recomputation.
	cas2, journal2 := openStores()
	defer journal2.Close()
	co2 := newFleet(t, []*testWorker{newWorker(t), newWorker(t)},
		fleet.WithResultCache(cas2), fleet.WithJobStore(journal2))

	// The journal replay keeps the first life's jobs queryable.
	for _, id := range firstIDs {
		st, err := co2.Status(ctx, id)
		if err != nil {
			t.Fatalf("first-life job %s lost across restart: %v", id, err)
		}
		if st.State != dualvdd.JobDone {
			t.Fatalf("replayed job %s in state %s", id, st.State)
		}
	}

	got, err := s.Run(ctx, co2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		g, w := got[i].Status.Results[0], want[i].Status.Results[0]
		if math.Float64bits(g.Power) != math.Float64bits(w.Power) ||
			g.STAEvals != w.STAEvals || g.LowGates != w.LowGates {
			t.Fatalf("resumed point %d not bit-identical to the uninterrupted run", i)
		}
	}

	m := co2.Metrics()
	if m.CacheHits != 2 || m.CacheMisses != 2 {
		t.Fatalf("resume split wrong: %d hits / %d misses, want 2/2", m.CacheHits, m.CacheMisses)
	}
	// Zero recomputation, proven by the counters: the two lives together
	// spent exactly the uninterrupted run's evaluations.
	if firstEvals+m.STAEvals != baseEvals {
		t.Fatalf("recomputation across restart: %d + %d != %d evals",
			firstEvals, m.STAEvals, baseEvals)
	}
}

// TestFleetTenancy exercises per-tenant admission end to end: rate-limited
// tenants are refused with the ErrQueueFull sentinel (429 over the wire,
// including through a server+client stack in front of the coordinator),
// tenants are isolated, and the rejects are accounted per tenant.
func TestFleetTenancy(t *testing.T) {
	ctx := context.Background()
	co := newFleet(t, []*testWorker{newWorker(t)},
		fleet.WithTenantRate(0.001, 1)) // one job, then a very long wait

	job := dualvdd.BenchmarkJob("x2", dualvdd.WithSimWords(32))
	alice := dualvdd.WithTenant(ctx, "alice")
	id, err := co.Submit(alice, job)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := co.Result(ctx, id); err != nil {
		t.Fatal(err)
	}
	if _, err := co.Submit(alice, dualvdd.BenchmarkJob("mux", dualvdd.WithSimWords(32))); !errors.Is(err, dualvdd.ErrQueueFull) {
		t.Fatalf("rate-limited submission returned %v, want ErrQueueFull", err)
	}
	// Bob has his own bucket.
	if _, err := co.Submit(dualvdd.WithTenant(ctx, "bob"), job); err != nil {
		t.Fatalf("bob rejected by alice's bucket: %v", err)
	}

	// Through the full HTTP stack: the client forwards the tenant header,
	// the server restores it, the coordinator rejects, and the 429 maps
	// back to the sentinel.
	ts := httptest.NewServer(server.New(co))
	defer ts.Close()
	hc, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hc.Submit(alice, dualvdd.BenchmarkJob("z4ml", dualvdd.WithSimWords(32))); !errors.Is(err, dualvdd.ErrQueueFull) {
		t.Fatalf("over-the-wire rate limit returned %v, want ErrQueueFull", err)
	}

	m := co.Metrics()
	if m.AdmissionRejects != 2 || m.TenantRejects["alice"] != 2 {
		t.Fatalf("reject accounting: %+v", m)
	}
}

// TestFleetCancel: cancelling a fleet job lands it in JobCancelled like a
// Local, and the admission slot frees.
func TestFleetCancel(t *testing.T) {
	ctx := context.Background()
	co := newFleet(t, []*testWorker{newWorker(t)}, fleet.WithTenantQuota(1))

	slow := dualvdd.BenchmarkJob("des", dualvdd.WithSimWords(4096))
	id, err := co.Submit(ctx, slow)
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Cancel(ctx, id); err != nil {
		t.Fatal(err)
	}
	st, err := co.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != dualvdd.JobCancelled {
		t.Fatalf("cancelled fleet job ended %s", st.State)
	}
	// The quota slot is free again.
	id2, err := co.Submit(ctx, dualvdd.BenchmarkJob("x2", dualvdd.WithSimWords(32)))
	if err != nil {
		t.Fatalf("quota slot leaked after cancel: %v", err)
	}
	if _, err := co.Result(ctx, id2); err != nil {
		t.Fatal(err)
	}
}

// TestFleetPublishesLast is TestLocalPublishesLast for the coordinator,
// whose journal append is slowed by 50 ms. The resubmission is also admitted
// under a one-job tenant quota, so the admission slot is free by publish too.
func TestFleetPublishesLast(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	slow := chaos.NewJournal(dualvdd.NewMemoryJournal(), chaos.NewSource(1),
		chaos.StoreFaults{Latency: 50 * time.Millisecond, PLatency: 1})
	co := newFleet(t, []*testWorker{newWorker(t)},
		fleet.WithJobStore(slow), fleet.WithTenantQuota(1), fleet.WithHistory(1))

	run := func(model string) (dualvdd.JobID, *dualvdd.JobStatus) {
		t.Helper()
		id, err := co.Submit(ctx, dualvdd.BLIFJob(model,
			dualvdd.WithSimWords(8), dualvdd.WithAlgorithms(dualvdd.AlgoCVS)))
		if err != nil {
			t.Fatal(err)
		}
		st, err := co.Result(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		return id, st
	}
	model := func(cube string) string {
		return ".model t\n.inputs a b\n.outputs f\n.names a b f\n" + cube + " 1\n.end\n"
	}
	// With a one-job history, the job just published has already evicted
	// every older one.
	older, _ := run(model("11"))
	run(model("10"))
	if _, err := co.Status(ctx, older); !errors.Is(err, dualvdd.ErrJobNotFound) {
		t.Fatalf("job beyond the one-job history still answers Status (err %v)", err)
	}
	// An identical resubmission right after Result is a new cached job.
	first, st := run(model("01"))
	if st.State != dualvdd.JobDone || st.Cached {
		t.Fatalf("first run: %+v", st)
	}
	dedups := co.Metrics().SubmitDedups
	again, st := run(model("01"))
	if again == first || !st.Cached {
		t.Fatalf("resubmission after Result: id %s (first %s), cached=%v; want a new cached job", again, first, st.Cached)
	}
	if got := co.Metrics().SubmitDedups; got != dedups {
		t.Fatalf("resubmission after Result was deduped (SubmitDedups %d -> %d)", dedups, got)
	}
}

// TestFleetBudgetAdmission pins the end-to-end deadline budget at the
// coordinator's door: a spent budget is rejected with ErrBudgetExhausted
// before any worker sees it (and lands on BudgetRejects), a generous one
// rides along without disturbing the job, and a budget too small for the
// job ends it in a terminal non-done state instead of letting it run
// forever.
func TestFleetBudgetAdmission(t *testing.T) {
	ctx := context.Background()
	co := newFleet(t, []*testWorker{newWorker(t)})

	spent := dualvdd.WithJobBudget(ctx, -time.Second)
	if _, err := co.Submit(spent, dualvdd.BenchmarkJob("x2", dualvdd.WithSimWords(32))); !errors.Is(err, dualvdd.ErrBudgetExhausted) {
		t.Fatalf("spent budget admitted: %v", err)
	}
	if co.Metrics().BudgetRejects != 1 {
		t.Fatalf("BudgetRejects = %d, want 1", co.Metrics().BudgetRejects)
	}

	generous := dualvdd.WithJobBudget(ctx, time.Minute)
	id, err := co.Submit(generous, dualvdd.BenchmarkJob("x2", dualvdd.WithSimWords(32)))
	if err != nil {
		t.Fatal(err)
	}
	st, err := co.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != dualvdd.JobDone {
		t.Fatalf("budgeted job ended %s: %s", st.State, st.Error)
	}

	// A budget the job cannot meet: the per-job context deadline fires and
	// the driver lands the job in a terminal, non-done state.
	tight := dualvdd.WithJobBudget(ctx, 60*time.Millisecond)
	id, err = co.Submit(tight, dualvdd.BenchmarkJob("des", dualvdd.WithSimWords(4096)))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *dualvdd.JobStatus, 1)
	go func() {
		st, err := co.Result(ctx, id)
		if err != nil {
			t.Error(err)
			done <- nil
			return
		}
		done <- st
	}()
	select {
	case st := <-done:
		if st != nil && st.State == dualvdd.JobDone {
			t.Fatal("a 60ms budget completed a multi-second job")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("budget-killed job never reached a terminal state")
	}
}

// TestFleetWorkerQueueFullIsBackpressure: a worker whose queue is full
// answers ErrQueueFull (429 over the wire). That is backpressure from a live
// worker, not a crash: the job waits and is offered to the same worker
// again, without opening its breaker, charging a poison attempt or counting
// a redispatch.
func TestFleetWorkerQueueFullIsBackpressure(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var submits atomic.Int32
	busy := func(context.Context) error {
		if submits.Add(1) <= 3 {
			return fmt.Errorf("%w (worker busy)", dualvdd.ErrQueueFull)
		}
		return nil
	}
	co := stubFleet(t, busy, fleet.WithHealth(20*time.Millisecond, 0, 0))

	id, err := co.Submit(ctx, dualvdd.BenchmarkJob("x2", dualvdd.WithSimWords(32)))
	if err != nil {
		t.Fatal(err)
	}
	st, err := co.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != dualvdd.JobDone {
		t.Fatalf("job behind a busy worker ended %s: %s", st.State, st.Error)
	}
	if n := submits.Load(); n != 4 {
		t.Fatalf("worker saw %d submits, want 3 refused and 1 accepted", n)
	}
	m := co.Metrics()
	if m.QuarantinedJobs != 0 || m.Redispatches != 0 || m.WorkersDead != 0 {
		t.Fatalf("a busy worker was treated as a dead one: quarantined=%d redispatches=%d dead=%d",
			m.QuarantinedJobs, m.Redispatches, m.WorkersDead)
	}
}

// TestFleetSpentHopBudgetLeavesWorkerLive: a job budget below the hop
// reserve is spent before the dispatch request leaves, so the client fails
// fast with ErrBudgetExhausted. The job ends cancelled with an error naming
// the budget, like a Local job whose budget runs out, and the worker it
// never reached keeps a closed breaker and takes the next job.
func TestFleetSpentHopBudgetLeavesWorkerLive(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// An hour between probes: only the dispatch path can move the breaker.
	co := newFleet(t, []*testWorker{newWorker(t)}, fleet.WithHealth(time.Hour, 0, 0))

	// 30 ms is below the default 50 ms hop reserve.
	tight := dualvdd.WithJobBudget(ctx, 30*time.Millisecond)
	id, err := co.Submit(tight, dualvdd.BenchmarkJob("x2", dualvdd.WithSimWords(32)))
	if err != nil {
		t.Fatal(err)
	}
	st, err := co.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != dualvdd.JobCancelled || !strings.Contains(st.Error, "budget exhausted") {
		t.Fatalf("job with a spent hop budget ended %s: %q; want cancelled naming the budget", st.State, st.Error)
	}
	if m := co.Metrics(); m.WorkersDead != 0 || m.QuarantinedJobs != 0 {
		t.Fatalf("a spent budget was charged to the worker: dead=%d quarantined=%d", m.WorkersDead, m.QuarantinedJobs)
	}

	id, err = co.Submit(ctx, dualvdd.BenchmarkJob("mux", dualvdd.WithSimWords(32)))
	if err != nil {
		t.Fatal(err)
	}
	if st, err = co.Result(ctx, id); err != nil {
		t.Fatal(err)
	}
	if st.State != dualvdd.JobDone {
		t.Fatalf("next job on the untouched worker ended %s: %s", st.State, st.Error)
	}
}

// TestFleetWorkerBudgetExpiryLeavesWorkerLive pins the other end of the
// budget: the worker's copy, shrunk by the hop reserve, expires first, so the
// worker ends the job cancelled while the coordinator's own deadline is
// still ahead. That is the budget running out, not a draining worker. The
// worker holds the job until its budget is spent, so the expiry is certain;
// its cancelled status reaches the coordinator in the end frame of the event
// stream, with no status poll.
func TestFleetWorkerBudgetExpiryLeavesWorkerLive(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	log := &requestLog{}
	// An hour between probes: only the dispatch path can move the breaker.
	co := newFleet(t, []*testWorker{scriptedWorker(t, holdForBudget)}, fleet.WithDialer(log.dial),
		fleet.WithHealth(time.Hour, 0, 0), fleet.WithHopBudget(2*time.Second))

	// The worker gets 50 ms of the 2.05 s, while the coordinator's deadline
	// is 2 s further out.
	tight := dualvdd.WithJobBudget(ctx, 2050*time.Millisecond)
	id, err := co.Submit(tight, dualvdd.BenchmarkJob("x2", dualvdd.WithSimWords(32)))
	if err != nil {
		t.Fatal(err)
	}
	st, err := co.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != dualvdd.JobCancelled || !strings.Contains(st.Error, "budget exhausted") {
		t.Fatalf("job whose budget ran out on the worker ended %s: %q; want cancelled naming the budget", st.State, st.Error)
	}
	if m := co.Metrics(); m.WorkersDead != 0 || m.QuarantinedJobs != 0 || m.Redispatches != 0 {
		t.Fatalf("a budget spent on the worker was charged to it: dead=%d quarantined=%d redispatches=%d",
			m.WorkersDead, m.QuarantinedJobs, m.Redispatches)
	}
	log.wantDispatch(t, "cancelled job")

	id, err = co.Submit(ctx, dualvdd.BenchmarkJob("mux", dualvdd.WithSimWords(32)))
	if err != nil {
		t.Fatal(err)
	}
	if st, err = co.Result(ctx, id); err != nil {
		t.Fatal(err)
	}
	if st.State != dualvdd.JobDone {
		t.Fatalf("next job on the untouched worker ended %s: %s", st.State, st.Error)
	}
}

// requestLog is an http.RoundTripper that records the requests worker
// clients send, as "METHOD path".
type requestLog struct {
	mu     sync.Mutex
	reqs   []string
	opened chan struct{} // when set, signalled without blocking as each event stream opens
}

func (l *requestLog) RoundTrip(r *http.Request) (*http.Response, error) {
	l.mu.Lock()
	l.reqs = append(l.reqs, r.Method+" "+r.URL.Path)
	l.mu.Unlock()
	if l.opened != nil && strings.HasSuffix(r.URL.Path, "/events") {
		select {
		case l.opened <- struct{}{}:
		default:
		}
	}
	return http.DefaultTransport.RoundTrip(r)
}

// dial is fastDial through the log.
func (l *requestLog) dial(url string) (fleet.WorkerClient, error) {
	return client.New(url, client.WithRetry(2, 10*time.Millisecond, 50*time.Millisecond),
		client.WithHTTPClient(&http.Client{Transport: l}))
}

// wantDispatch asserts that the requests since the last call are exactly
// one dispatch: the submission and the job's event stream, with no status
// poll after it. It clears the log.
func (l *requestLog) wantDispatch(t *testing.T, what string) {
	t.Helper()
	l.mu.Lock()
	reqs := l.reqs
	l.reqs = nil
	l.mu.Unlock()
	if len(reqs) != 2 || reqs[0] != "POST /v1/jobs" ||
		!strings.HasPrefix(reqs[1], "GET /v1/jobs/") || !strings.HasSuffix(reqs[1], "/events") {
		t.Fatalf("%s cost its worker %d requests %q; want the submission and the event stream", what, len(reqs), reqs)
	}
}

// scriptedWorker serves a worker that computes nothing: a JobTable behind
// the real HTTP surface, where end settles each accepted job (and may hold
// it first). Cleanup is registered.
func scriptedWorker(t *testing.T, end func(j *dualvdd.JobEntry) dualvdd.Outcome) *testWorker {
	t.Helper()
	var table *dualvdd.JobTable
	table = dualvdd.NewJobTable(nil, nil, 64, dualvdd.JobHooks{Start: func(j *dualvdd.JobEntry) error {
		go func() {
			table.Begin(j)
			table.Finish(j, end(j))
		}()
		return nil
	}})
	ts := httptest.NewServer(server.New(table, server.WithRequestTimeout(5*time.Second)))
	t.Cleanup(ts.Close)
	return &testWorker{ts: ts}
}

// holdForBudget settles a job that carries a deadline budget the way a
// Local whose budget runs out does, cancelled with an error naming it, but
// only once the budget is spent: the job's context deadline is the budget
// (dualvdd.JobBudget) the server restored from X-Dualvdd-Budget-Ms. The
// header carries whole milliseconds, so the worker's copy may end up to
// 1 ms before the coordinator's; holding 1 ms longer spends both. A job
// without a budget ends done at once.
func holdForBudget(j *dualvdd.JobEntry) dualvdd.Outcome {
	dl, ok := j.Context().Deadline()
	if !ok {
		return dualvdd.Outcome{State: dualvdd.JobDone, Design: &dualvdd.DesignInfo{Name: j.Spec().Benchmark}}
	}
	time.Sleep(time.Until(dl) + time.Millisecond)
	return dualvdd.Outcome{State: dualvdd.JobCancelled, Error: dualvdd.ErrBudgetExhausted.Error()}
}

// TestFleetDispatchCostsWorkerTwoRequests: a dispatched job costs its worker
// the submission and the event stream, whose end frame carries the terminal
// status the coordinator's Result then reads, whether the worker computed
// the job, answered it from its own cache or failed it. (The worker's
// cancelled status arrives the same way; see
// TestFleetWorkerBudgetExpiryLeavesWorkerLive.)
func TestFleetDispatchCostsWorkerTwoRequests(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	w := newWorker(t)
	log := &requestLog{}
	co := newFleet(t, []*testWorker{w}, fleet.WithDialer(log.dial), fleet.WithHealth(time.Hour, 0, 0))
	run := func(r dualvdd.Runner, job dualvdd.Job) *dualvdd.JobStatus {
		t.Helper()
		id, err := r.Submit(ctx, job)
		if err != nil {
			t.Fatal(err)
		}
		st, err := r.Result(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	job := func(seed uint64) dualvdd.Job {
		return dualvdd.BenchmarkJob("x2", dualvdd.WithSimWords(32), dualvdd.WithSeed(seed),
			dualvdd.WithAlgorithms(dualvdd.AlgoCVS))
	}

	if st := run(co, job(1)); st.State != dualvdd.JobDone {
		t.Fatalf("computed job ended %s: %s", st.State, st.Error)
	}
	log.wantDispatch(t, "computed job")

	// Warm the worker's own cache, so the coordinator's miss is its hit.
	run(w.local, job(2))
	if st := run(co, job(2)); st.State != dualvdd.JobDone {
		t.Fatalf("worker-cached job ended %s: %s", st.State, st.Error)
	}
	if hits := w.local.Metrics().CacheHits; hits != 1 {
		t.Fatalf("worker answered %d jobs from its cache, want 1", hits)
	}
	log.wantDispatch(t, "worker cache hit")

	// A worker that fails the job once its event stream is open: the
	// submission answered queued, so only the end frame can carry the failure.
	flog := &requestLog{opened: make(chan struct{}, 1)}
	failing := scriptedWorker(t, func(*dualvdd.JobEntry) dualvdd.Outcome {
		<-flog.opened
		return dualvdd.Outcome{State: dualvdd.JobFailed, Error: "scripted failure"}
	})
	fco := newFleet(t, []*testWorker{failing}, fleet.WithDialer(flog.dial), fleet.WithHealth(time.Hour, 0, 0))
	if st := run(fco, job(3)); st.State != dualvdd.JobFailed || st.Error != "scripted failure" {
		t.Fatalf("job the worker failed ended %s: %q", st.State, st.Error)
	}
	flog.wantDispatch(t, "failed job")
	if m := fco.Metrics(); m.WorkersDead != 0 || m.Redispatches != 0 {
		t.Fatalf("a job failure was charged to its worker: dead=%d redispatches=%d", m.WorkersDead, m.Redispatches)
	}
}
