package dualvdd

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// drain closes a Local with a generous bound.
func drain(t *testing.T, l *Local) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := l.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestJobsQueuedGaugeDropsAtCancel pins the fixed accounting of the
// JobsQueued gauge: cancelling a queued job takes it off the gauge
// immediately — the cancelled carcass still occupying a channel slot until
// the worker dequeues it must not be counted — and the later dequeue must
// not decrement a second time, so the gauge can never go negative.
func TestJobsQueuedGaugeDropsAtCancel(t *testing.T) {
	ctx := context.Background()
	l := NewLocal(LocalWorkers(1), LocalQueueDepth(4), LocalCacheEntries(0))
	defer drain(t, l)

	slow := BenchmarkJob("des", WithSimWords(4096))
	running, err := l.Submit(ctx, slow)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker picked the job up, so the next submissions queue.
	deadline := time.Now().Add(time.Minute)
	for {
		st, err := l.Status(ctx, running)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %s", st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}

	var queued []JobID
	for i := 0; i < 3; i++ {
		id, err := l.Submit(ctx, BenchmarkJob("z4ml", WithSeed(uint64(i+2))))
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, id)
	}
	if got := l.Metrics().JobsQueued; got != 3 {
		t.Fatalf("gauge = %d after 3 queued submissions, want 3", got)
	}

	// Cancel two while they wait: the gauge drops at cancel, not at the
	// worker's eventual dequeue of the carcasses.
	for _, id := range queued[:2] {
		if err := l.Cancel(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Metrics().JobsQueued; got != 1 {
		t.Fatalf("gauge = %d after cancelling 2 of 3 queued jobs, want 1", got)
	}

	// Let everything finish; dequeuing the carcasses must not decrement
	// again. The worker's metrics epilogue runs after it signals the job
	// done, so poll for the idle state instead of racing it.
	if err := l.Cancel(ctx, running); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Result(ctx, queued[2]); err != nil {
		t.Fatal(err)
	}
	var m Metrics
	for {
		m = l.Metrics()
		if m.JobsRunning == 0 && m.JobsDone == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never went idle: %+v", m)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if m.JobsQueued != 0 {
		t.Fatalf("gauge = %d once idle, want 0 (negative means a double decrement)", m.JobsQueued)
	}
	if m.JobsCancelled != 3 {
		t.Fatalf("cancelled = %d once idle, want 3", m.JobsCancelled)
	}
}

// TestRetireFreesParsedNetwork checks every retirement path drops the job's
// inline BLIF, dead weight once the run is over: a computed job, a cache hit
// (retired straight from Submit, never passing a worker) and a job cancelled
// while it queued. A history full of retained models is a leak the bound
// cannot see; the entry holds no parsed network to drop.
func TestRetireFreesParsedNetwork(t *testing.T) {
	ctx := context.Background()
	l := NewLocal(LocalWorkers(1))
	defer drain(t, l)
	model := benchmarkBLIF(t, "z4ml")

	// Hold the worker inside a planted group build, so the next job queues.
	hold := BenchmarkJob("rot", WithSimWords(16))
	key, err := hold.GroupKey()
	if err != nil {
		t.Fatal(err)
	}
	entry := l.warmGet(key)
	release, building := make(chan struct{}), make(chan struct{})
	go entry.once.Do(func() {
		close(building)
		<-release
		entry.err = errors.New("held")
	})
	<-building
	if _, err := l.Submit(ctx, hold); err != nil {
		t.Fatal(err)
	}
	queued, err := l.Submit(ctx, BLIFJob(model, WithSimWords(16), WithSeed(2)))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Cancel(ctx, queued); err != nil {
		t.Fatal(err)
	}
	close(release)

	job := BLIFJob(model, WithSimWords(16))
	computed, err := l.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := l.Result(ctx, computed); err != nil || st.State != JobDone {
		t.Fatalf("computed job: %+v, %v", st, err)
	}
	hit, err := l.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	st, err := l.Result(ctx, hit)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cached || len(st.Results) == 0 {
		t.Fatalf("second submission: cached=%v with %d results, want a cache hit", st.Cached, len(st.Results))
	}
	for _, r := range st.Results {
		if r.Circuit != nil {
			t.Fatal("cache-served result carries a scaled circuit")
		}
	}

	// retire runs under the job's lock before the terminal state is
	// published, so once Result returns the spec reads without the model.
	for _, tc := range []struct {
		path  string
		id    JobID
		state JobState
	}{{"cancelled", queued, JobCancelled}, {"computed", computed, JobDone}, {"cache hit", hit, JobDone}} {
		st, err := l.Result(ctx, tc.id)
		if err != nil || st.State != tc.state {
			t.Fatalf("%s job: %+v, %v", tc.path, st, err)
		}
		j, err := l.table.find(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		if j.Spec().BLIF != "" {
			t.Fatalf("%s job retired with its inline BLIF still pinned", tc.path)
		}
	}
}

// TestLocalBuildsNetworkOnlyForWarmBuild pins where a Local builds a job's
// circuit: in its warm-prep group's build and nowhere else. A job on a group
// already built allocates under half of what one build of the des network
// does (its CVS run allocates about a fifth), and a cache hit no more than a
// memo hit's keying may, so neither builds it.
func TestLocalBuildsNetworkOnlyForWarmBuild(t *testing.T) {
	ctx := context.Background()
	l := NewLocal(LocalWorkers(1))
	defer drain(t, l)
	run := func(job Job) {
		t.Helper()
		id, err := l.Submit(ctx, job)
		if err != nil {
			t.Fatal(err)
		}
		if st, err := l.Result(ctx, id); err != nil || st.State != JobDone {
			t.Fatalf("job: %+v, %v", st, err)
		}
	}
	opts := []Option{WithSimWords(16), WithAlgorithms(AlgoCVS)}
	first := BenchmarkJob("des", opts...)
	build := testing.AllocsPerRun(1, func() {
		if _, err := first.network(); err != nil {
			t.Fatal(err)
		}
	})
	run(first) // builds the group
	vddl := 3.0
	warm := testing.AllocsPerRun(4, func() {
		vddl += 0.1 // a new point, so a miss, on the built group
		run(BenchmarkJob("des", append(opts, WithVoltages(5.0, vddl))...))
	})
	hit := testing.AllocsPerRun(4, func() { run(first) })
	if m := l.Metrics(); m.PrepBuilds != 1 || m.PrepReuses != 5 {
		t.Fatalf("builds/reuses = %d/%d, want 1/5", m.PrepBuilds, m.PrepReuses)
	}
	if warm > build/2 {
		t.Fatalf("a job on a built group allocates %.0f times, want under half of one des network build (%.0f)", warm, build)
	}
	if hit > 200 {
		t.Fatalf("a cache hit allocates %.0f times, want at most 200", hit)
	}
}

// TestHistoryEvictsOldestExactlyAtBound pins the eviction boundary: with
// LocalJobHistory(n), the n most recent terminal jobs stay queryable and the
// (n+1)-th oldest is forgotten — exactly at the bound, not one early or late.
func TestHistoryEvictsOldestExactlyAtBound(t *testing.T) {
	ctx := context.Background()
	const bound = 2
	l := NewLocal(LocalJobHistory(bound), LocalCacheEntries(0))
	defer drain(t, l)

	var ids []JobID
	for i := 0; i < bound+1; i++ {
		id, err := l.Submit(ctx, BenchmarkJob("z4ml", WithSeed(uint64(i+1))))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Result(ctx, id); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)

		// Up to the bound every terminal job is still queryable.
		for k, past := range ids {
			_, err := l.Status(ctx, past)
			if i < bound || k > 0 {
				if err != nil {
					t.Fatalf("after %d jobs, job %d unexpectedly gone: %v", i+1, k, err)
				}
			} else if !errors.Is(err, ErrJobNotFound) {
				t.Fatalf("after %d jobs, oldest returned %v, want ErrJobNotFound", i+1, err)
			}
		}
	}
}

// stripWallClock copies results without their wall clock (Runtime) and
// their local-only Circuit, so two runs of the same point compare with
// reflect.DeepEqual.
func stripWallClock(results []*FlowResult) []FlowResult {
	out := make([]FlowResult, len(results))
	for i, r := range results {
		out[i] = *r
		out[i].Runtime, out[i].Circuit = 0, nil
	}
	return out
}

// TestLocalPanicFailsJobAndDropsGroup plants the state a panic during a group
// build leaves behind — the sync.Once spent, no design, no error — under a
// job's group key. Running on it panics; the job must end failed with a
// deterministic error naming the panic value, the process must stay up, and
// the broken group must be gone, so a resubmission rebuilds it and matches a
// standalone Flow.
func TestLocalPanicFailsJobAndDropsGroup(t *testing.T) {
	ctx := context.Background()
	l := NewLocal(LocalWorkers(1), LocalCacheEntries(0))
	defer drain(t, l)

	job := BenchmarkJob("z4ml", WithSimWords(16))
	key, err := job.GroupKey()
	if err != nil {
		t.Fatal(err)
	}
	l.warmGet(key).once.Do(func() {})

	id, err := l.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	st, err := l.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	const want = "dualvdd: job panicked: runtime error: invalid memory address or nil pointer dereference"
	if st.State != JobFailed || st.Error != want {
		t.Fatalf("job ended %s with %q, want failed with %q", st.State, st.Error, want)
	}
	l.mu.Lock()
	_, resident := l.warm[key]
	l.mu.Unlock()
	if resident {
		t.Fatal("the group a panic unwound through is still resident")
	}

	id, err = l.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	st, err = l.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone {
		t.Fatalf("resubmission ended %s: %s", st.State, st.Error)
	}
	flow := New(FromConfig(job.Config))
	d, err := flow.PrepareBenchmark(ctx, "z4ml")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := flow.Run(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stripWallClock(st.Results), stripWallClock(ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("rebuilt group's results differ from a standalone Flow:\n got  %+v\n want %+v", got, want)
	}
	m := l.Metrics()
	if m.PrepBuilds != 1 || m.PrepReuses != 1 || m.JobsFailed != 1 {
		t.Fatalf("builds/reuses/failed = %d/%d/%d, want 1/1/1", m.PrepBuilds, m.PrepReuses, m.JobsFailed)
	}
}

// TestLocalExpiredBudgetBuildsNothing holds the worker inside a group build
// while a second job's budget runs out in the queue: when the worker reaches
// it, the job must end cancelled without building its own group.
func TestLocalExpiredBudgetBuildsNothing(t *testing.T) {
	ctx := context.Background()
	l := NewLocal(LocalWorkers(1), LocalCacheEntries(0))
	defer drain(t, l)

	first := BenchmarkJob("z4ml", WithSimWords(16))
	key, err := first.GroupKey()
	if err != nil {
		t.Fatal(err)
	}
	// Hold the first job's group build open until the second job expired.
	entry := l.warmGet(key)
	release := make(chan struct{})
	building := make(chan struct{})
	go entry.once.Do(func() {
		close(building)
		<-release
		entry.wd, entry.err = New(FromConfig(first.Config)).PrepareWarmBenchmark(ctx, "z4ml")
	})
	<-building
	firstID, err := l.Submit(ctx, first)
	if err != nil {
		t.Fatal(err)
	}
	late := BenchmarkJob("rot", WithSimWords(16))
	lateID, err := l.Submit(WithJobBudget(ctx, 20*time.Millisecond), late)
	if err != nil {
		t.Fatal(err)
	}
	l.table.mu.Lock()
	lateJob := l.table.jobs[lateID]
	l.table.mu.Unlock()
	<-lateJob.Context().Done() // the budget ran out while the job waited
	close(release)

	if st, err := l.Result(ctx, firstID); err != nil || st.State != JobDone {
		t.Fatalf("first job: %+v, %v", st, err)
	}
	st, err := l.Result(ctx, lateID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobCancelled || st.Error != context.DeadlineExceeded.Error() {
		t.Fatalf("expired job ended %s with %q, want cancelled by its deadline", st.State, st.Error)
	}
	lateKey, err := late.GroupKey()
	if err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	_, built := l.warm[lateKey]
	l.mu.Unlock()
	if built {
		t.Fatal("a job whose budget expired in the queue joined a warm group")
	}
	if m := l.Metrics(); m.PrepBuilds != 0 || m.PrepReuses != 1 {
		t.Fatalf("builds/reuses = %d/%d, want 0/1 (only the first job, on the planted group)", m.PrepBuilds, m.PrepReuses)
	}
}

// TestLocalWaiterRebuildsCancelledGroup plants a group whose build its
// member's context cut short. That failure says nothing about the group: a
// job with a live context that finds it must build a fresh group and finish,
// not inherit the cancellation.
func TestLocalWaiterRebuildsCancelledGroup(t *testing.T) {
	ctx := context.Background()
	l := NewLocal(LocalWorkers(1), LocalCacheEntries(0))
	defer drain(t, l)

	job := BenchmarkJob("z4ml", WithSimWords(16))
	key, err := job.GroupKey()
	if err != nil {
		t.Fatal(err)
	}
	planted := l.warmGet(key)
	planted.once.Do(func() { planted.err = context.Canceled })

	id, err := l.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	st, err := l.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone {
		t.Fatalf("job ended %s with %q, want done on a rebuilt group", st.State, st.Error)
	}
	l.mu.Lock()
	el, resident := l.warm[key]
	l.mu.Unlock()
	if !resident || el.Value.(*warmEntry) == planted {
		t.Fatal("the job did not replace the cancelled group with a fresh one")
	}
	if m := l.Metrics(); m.PrepBuilds != 1 || m.PrepReuses != 0 {
		t.Fatalf("builds/reuses = %d/%d, want 1/0", m.PrepBuilds, m.PrepReuses)
	}
}

// TestLocalBudgetEndsOwnBuild gives a job a budget far shorter than mapping
// des takes. The budget must stop the job's own group build — at the latest
// at the check between mapping and simulation — so the job ends cancelled
// by its deadline and leaves no group behind, where a build the job's
// context could not reach would run to the end and stay resident.
func TestLocalBudgetEndsOwnBuild(t *testing.T) {
	ctx := context.Background()
	l := NewLocal(LocalWorkers(1), LocalCacheEntries(0))
	defer drain(t, l)

	job := BenchmarkJob("des", WithSimWords(64))
	id, err := l.Submit(WithJobBudget(ctx, 5*time.Millisecond), job)
	if err != nil {
		t.Fatal(err)
	}
	st, err := l.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobCancelled || st.Error != context.DeadlineExceeded.Error() {
		t.Fatalf("job ended %s with %q, want cancelled by its deadline", st.State, st.Error)
	}
	key, err := job.GroupKey()
	if err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	_, resident := l.warm[key]
	l.mu.Unlock()
	if resident {
		t.Fatal("a build its job's budget cut short stayed resident")
	}
	if m := l.Metrics(); m.PrepBuilds != 0 || m.PrepReuses != 0 {
		t.Fatalf("builds/reuses = %d/%d, want 0/0", m.PrepBuilds, m.PrepReuses)
	}
}

// TestLocalBusyEngineRunsPrivate marks a built group's shared engine busy,
// as a member running on it would. The next member must not wait for it: it
// runs on a private engine over the same prepared design, reusing the group,
// and its results match a standalone Flow.
func TestLocalBusyEngineRunsPrivate(t *testing.T) {
	ctx := context.Background()
	l := NewLocal(LocalWorkers(1), LocalCacheEntries(0))
	defer drain(t, l)

	first := BenchmarkJob("z4ml", WithSimWords(16))
	id, err := l.Submit(ctx, first)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := l.Result(ctx, id); err != nil || st.State != JobDone {
		t.Fatalf("first job: %+v, %v", st, err)
	}
	key, err := first.GroupKey()
	if err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	entry := l.warm[key].Value.(*warmEntry)
	l.mu.Unlock()
	entry.busy.Store(true)
	evals := func() int64 {
		entry.wd.mu.Lock()
		defer entry.wd.mu.Unlock()
		return entry.wd.inc.Evals()
	}
	before := evals()

	second := BenchmarkJob("z4ml", WithSimWords(16), WithVoltages(5.0, 3.9))
	id, err = l.Submit(ctx, second)
	if err != nil {
		t.Fatal(err)
	}
	st, err := l.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != JobDone {
		t.Fatalf("second job ended %s: %s", st.State, st.Error)
	}
	if got := evals(); got != before {
		t.Fatalf("the busy shared engine ran %d more evaluations", got-before)
	}
	if m := l.Metrics(); m.PrepBuilds != 1 || m.PrepReuses != 1 {
		t.Fatalf("builds/reuses = %d/%d, want 1/1", m.PrepBuilds, m.PrepReuses)
	}
	flow := New(FromConfig(second.Config))
	d, err := flow.PrepareBenchmark(ctx, "z4ml")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := flow.Run(ctx, d)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stripWallClock(st.Results), stripWallClock(ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("private engine's results differ from a standalone Flow:\n got  %+v\n want %+v", got, want)
	}
}

// TestLocalKeepsOneGroupPerWorker pins the LRU bound: a Local keeps at least
// warmGroups groups, and one per worker when it has more workers, so the
// groups of jobs running side by side never evict each other.
func TestLocalKeepsOneGroupPerWorker(t *testing.T) {
	for _, tc := range []struct{ workers, resident int }{{1, warmGroups}, {warmGroups + 2, warmGroups + 2}} {
		l := NewLocal(LocalWorkers(tc.workers), LocalCacheEntries(0))
		for i := 0; i <= tc.resident; i++ {
			l.warmGet(fmt.Sprint("group-", i))
		}
		l.mu.Lock()
		_, oldest := l.warm["group-0"]
		l.mu.Unlock()
		if got := l.Metrics().PrepGroups; got != tc.resident || oldest {
			t.Fatalf("%d workers: %d groups resident (oldest kept: %v), want %d without the oldest",
				tc.workers, got, oldest, tc.resident)
		}
		drain(t, l)
	}
}
