package fleet_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dualvdd"
	"dualvdd/fleet"
	"dualvdd/internal/store"
)

// lifecycleRunner is the surface the parity script drives.
type lifecycleRunner interface {
	dualvdd.Runner
	dualvdd.MetricsProvider
	Close(ctx context.Context) error
}

// paritySubject is one runner kind. build opens the subject's runner on its
// durable state (history 0 keeps the default bound) and returns it with
// hold, which keeps jobs submitted after it queued until the returned
// release runs, and with a closer for the runner and its stores.
type paritySubject struct {
	name  string
	build func(t *testing.T, history int) (r lifecycleRunner, hold func() (release func()), closer func())
}

// parityJob is a tiny BLIF job, distinct per cube.
func parityJob(cube string) dualvdd.Job {
	return dualvdd.BLIFJob(".model t\n.inputs a b\n.outputs f\n.names a b f\n"+cube+" 1\n.end\n",
		dualvdd.WithSimWords(8), dualvdd.WithAlgorithms(dualvdd.AlgoCVS))
}

// closeRunner closes r with a generous bound.
func closeRunner(t *testing.T, r lifecycleRunner) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := r.Close(ctx); err != nil {
		t.Errorf("close: %v", err)
	}
}

// localHold occupies a one-worker Local with a long job, so later
// submissions queue behind it; release cancels the blocker.
func localHold(t *testing.T, l *dualvdd.Local) func() func() {
	return func() func() {
		ctx := context.Background()
		id, err := l.Submit(ctx, dualvdd.BenchmarkJob("des", dualvdd.WithSimWords(512)))
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(time.Minute)
		for {
			st, err := l.Status(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			if st.State == dualvdd.JobRunning {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("blocker never started: %s", st.State)
			}
			time.Sleep(time.Millisecond)
		}
		return func() {
			if err := l.Cancel(ctx, id); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// memoryLocal is a Local on the in-memory cache and journal.
func memoryLocal() paritySubject {
	journal := dualvdd.NewMemoryJournal()
	return paritySubject{name: "memory Local", build: func(t *testing.T, history int) (lifecycleRunner, func() func(), func()) {
		l := dualvdd.NewLocal(dualvdd.LocalWorkers(1), dualvdd.LocalJobStore(journal), dualvdd.LocalJobHistory(history))
		return l, localHold(t, l), func() { closeRunner(t, l) }
	}}
}

// diskLocal is a Local on the disk CAS and journal under dir.
func diskLocal(dir string) paritySubject {
	return paritySubject{name: "disk Local", build: func(t *testing.T, history int) (lifecycleRunner, func() func(), func()) {
		cas, err := store.OpenCAS(filepath.Join(dir, "cas"))
		if err != nil {
			t.Fatal(err)
		}
		journal, err := store.OpenJournal(filepath.Join(dir, "jobs.log"))
		if err != nil {
			t.Fatal(err)
		}
		l := dualvdd.NewLocal(dualvdd.LocalWorkers(1), dualvdd.LocalResultCache(cas),
			dualvdd.LocalJobStore(journal), dualvdd.LocalJobHistory(history))
		return l, localHold(t, l), func() {
			closeRunner(t, l)
			if err := journal.Close(); err != nil {
				t.Error(err)
			}
		}
	}}
}

// oneWorkerFleet is a Coordinator over one in-process worker whose Submit
// blocks while held, under a one-job tenant quota.
func oneWorkerFleet() paritySubject {
	journal := dualvdd.NewMemoryJournal()
	return paritySubject{name: "fleet", build: func(t *testing.T, history int) (lifecycleRunner, func() func(), func()) {
		var mu sync.Mutex
		open := make(chan struct{})
		close(open)
		w := &stubWorker{Local: dualvdd.NewLocal(), gate: func(ctx context.Context) error {
			mu.Lock()
			gate := open
			mu.Unlock()
			select {
			case <-gate:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}}
		co, err := fleet.New([]string{"stub"},
			fleet.WithDialer(func(string) (fleet.WorkerClient, error) { return w, nil }),
			fleet.WithJobStore(journal), fleet.WithHistory(history), fleet.WithTenantQuota(1))
		if err != nil {
			t.Fatal(err)
		}
		hold := func() func() {
			held := make(chan struct{})
			mu.Lock()
			open = held
			mu.Unlock()
			return func() { close(held) }
		}
		return co, hold, func() {
			closeRunner(t, co)
			closeRunner(t, w.Local)
		}
	}}
}

// lifecycleScript drives one runner through the lifecycle rules every
// runner shares and returns what it observed, free of IDs and timings.
func lifecycleScript(t *testing.T, s paritySubject) []string {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var seen []string
	note := func(format string, args ...any) { seen = append(seen, fmt.Sprintf(format, args...)) }
	r, hold, closer := s.build(t, 1)
	submit := func(job dualvdd.Job) dualvdd.JobID {
		t.Helper()
		id, err := r.Submit(ctx, job)
		if err != nil {
			t.Fatalf("%s: submit: %v", s.name, err)
		}
		return id
	}
	// status reads a job as "<state> cached=<flag>", or "not found".
	status := func(r lifecycleRunner, id dualvdd.JobID) string {
		st, err := r.Status(ctx, id)
		switch {
		case errors.Is(err, dualvdd.ErrJobNotFound):
			return "not found"
		case err != nil:
			return err.Error()
		}
		return fmt.Sprintf("%s cached=%v", st.State, st.Cached)
	}
	result := func(id dualvdd.JobID) *dualvdd.JobStatus {
		t.Helper()
		st, err := r.Result(ctx, id)
		if err != nil {
			t.Fatalf("%s: result: %v", s.name, err)
		}
		return st
	}

	release := hold()
	m0 := r.Metrics()
	x := submit(parityJob("11"))
	dup := submit(parityJob("11"))
	m1 := r.Metrics()
	note("in-flight duplicate: same id %v, SubmitDedups %+d", dup == x, m1.SubmitDedups-m0.SubmitDedups)

	note("before Cancel: %s", status(r, x))
	if err := r.Cancel(ctx, x); err != nil {
		t.Fatalf("%s: cancel: %v", s.name, err)
	}
	after := status(r, x)
	m2 := r.Metrics()
	note("after Cancel: %s, JobsQueued %+d, JobsCancelled %+d",
		after, m2.JobsQueued-m1.JobsQueued, m2.JobsCancelled-m1.JobsCancelled)

	// On the fleet the tenant quota is one job: this submit is admitted only
	// if the cancelled job gave its slot back.
	y, err := r.Submit(ctx, parityJob("10"))
	note("next submit: %v", err)
	release()
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	st := result(y)
	note("computed: %v cached=%v", st.State, st.Cached)

	m3 := r.Metrics()
	again := submit(parityJob("10"))
	st = result(again)
	m4 := r.Metrics()
	note("resubmit after Result: new id %v, %v cached=%v, CacheHits %+d, SubmitDedups %+d",
		again != y, st.State, st.Cached, m4.CacheHits-m3.CacheHits, m4.SubmitDedups-m3.SubmitDedups)

	note("one-job history: older %s, newer %s", status(r, y), status(r, again))
	closer()

	r2, _, closer2 := s.build(t, 0)
	defer closer2()
	for _, id := range []dualvdd.JobID{x, y, again} {
		note("replayed: %s", status(r2, id))
	}
	return seen
}

// TestRunnerLifecycleParity runs one lifecycle script on a memory Local, a
// disk Local and a one-worker Coordinator, and holds all three to the same
// transcript: dedup of an in-flight twin, the Cancel rule for a queued job,
// a cache hit under a new ID after Result, the history bound, and journal
// replay.
func TestRunnerLifecycleParity(t *testing.T) {
	want := []string{
		"in-flight duplicate: same id true, SubmitDedups +1",
		"before Cancel: queued cached=false",
		"after Cancel: cancelled cached=false, JobsQueued -1, JobsCancelled +1",
		"next submit: <nil>",
		"computed: done cached=false",
		"resubmit after Result: new id true, done cached=true, CacheHits +1, SubmitDedups +0",
		"one-job history: older not found, newer done cached=true",
		"replayed: cancelled cached=false",
		"replayed: done cached=false",
		"replayed: done cached=true",
	}
	for _, s := range []paritySubject{memoryLocal(), diskLocal(t.TempDir()), oneWorkerFleet()} {
		got := lifecycleScript(t, s)
		for i := range max(len(got), len(want)) {
			var g, w string
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				t.Errorf("%s, step %d: got %q, want %q", s.name, i, g, w)
			}
		}
	}
}
