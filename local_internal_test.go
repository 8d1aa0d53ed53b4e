package dualvdd

import (
	"context"
	"errors"
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
// parsed input network — including cache-served jobs, which never pass
// through a worker: a history full of retained netlists is a leak the bound
// cannot see.
func TestRetireFreesParsedNetwork(t *testing.T) {
	ctx := context.Background()
	l := NewLocal(LocalWorkers(1))
	defer drain(t, l)

	job := BenchmarkJob("z4ml")
	computed, err := l.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Result(ctx, computed); err != nil {
		t.Fatal(err)
	}
	// Identical submission: answered from the cache, retired straight from
	// Submit.
	hit, err := l.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	st, err := l.Result(ctx, hit)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cached {
		t.Fatal("second submission was not served from the cache")
	}
	if len(st.Results) == 0 {
		t.Fatal("cache-served job carries no results")
	}
	for _, r := range st.Results {
		if r.Circuit != nil {
			t.Fatal("cache-served result carries a scaled circuit")
		}
	}

	// retire frees the input before it appends the ID to the table's
	// retired list under its mu, so once the ID shows up there the nil
	// writes are visible here.
	deadline := time.Now().Add(time.Minute)
	for _, id := range []JobID{computed, hit} {
		for {
			l.table.mu.Lock()
			seen := false
			for _, rid := range l.table.retired {
				if rid == id {
					seen = true
					break
				}
			}
			j := l.table.jobs[id]
			l.table.mu.Unlock()
			if seen {
				if j == nil {
					t.Fatalf("job %s missing from history", id)
				}
				if j.net != nil || j.spec.BLIF != "" {
					t.Fatalf("job %s retired with its parsed input still pinned", id)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never retired", id)
			}
			time.Sleep(2 * time.Millisecond)
		}
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
