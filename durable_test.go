package dualvdd_test

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"dualvdd"
	"dualvdd/internal/chaos"
	"dualvdd/internal/store"
)

// durableStores opens a disk CAS + journal pair under dir.
func durableStores(t *testing.T, dir string) (*store.CAS, *store.Journal) {
	t.Helper()
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

// TestLocalSurvivesRestart is the durable-state contract end to end: a Local
// wired to the disk CAS and journal is killed (Closed) and rebuilt on the
// same directory; the new life still answers Status for the old life's jobs,
// and an identical re-submission is served from the CAS with zero new
// simulation or timing evaluations — the primitive that makes a restarted
// sweep resume instead of recompute.
func TestLocalSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	job := dualvdd.BLIFJob(
		".model t\n.inputs a b\n.outputs f\n.names a b f\n11 1\n10 1\n.end\n",
		dualvdd.WithSimWords(8),
		dualvdd.WithAlgorithms(dualvdd.AlgoCVS),
	)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	cas, journal := durableStores(t, dir)
	first := dualvdd.NewLocal(
		dualvdd.LocalResultCache(cas), dualvdd.LocalJobStore(journal))
	id, err := first.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	st, err := first.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != dualvdd.JobDone || st.Cached {
		t.Fatalf("first run: state %s cached %v", st.State, st.Cached)
	}
	mustClose(t, first)
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	if m := first.Metrics(); m.StoreErrors != 0 {
		t.Fatalf("first life recorded %d store errors", m.StoreErrors)
	}

	cas2, journal2 := durableStores(t, dir)
	defer journal2.Close()
	second := dualvdd.NewLocal(
		dualvdd.LocalResultCache(cas2), dualvdd.LocalJobStore(journal2))
	defer mustClose(t, second)

	// The old job is queryable history in the new life.
	old, err := second.Status(ctx, id)
	if err != nil {
		t.Fatalf("replayed job lost across restart: %v", err)
	}
	if old.State != dualvdd.JobDone || len(old.Results) != 1 {
		t.Fatalf("replayed status corrupted: %+v", old)
	}
	if old.Results[0].Power != st.Results[0].Power {
		t.Fatal("replayed result differs from the original")
	}

	// An identical submission is a CAS hit: born done, bit-identical result,
	// zero recomputation, and a fresh ID past the old sequence.
	id2, err := second.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatalf("restarted service reused job ID %s", id)
	}
	st2, err := second.Result(ctx, id2)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Cached {
		t.Fatal("re-submission after restart was not served from the disk CAS")
	}
	if st2.Results[0].Power != st.Results[0].Power || st2.Results[0].STAEvals != st.Results[0].STAEvals {
		t.Fatal("CAS-served result is not bit-identical to the original run")
	}
	m := second.Metrics()
	if m.CacheHits != 1 || m.STAEvals != 0 {
		t.Fatalf("restart recomputed: hits=%d staEvals=%d", m.CacheHits, m.STAEvals)
	}
	if m.CacheBytes <= 0 {
		t.Fatalf("CacheBytes = %d, want > 0 with a disk CAS", m.CacheBytes)
	}
}

// TestLocalDiskMatchesMemory differential-tests a disk-backed Local against
// the default in-memory one over the same job sequence: identical statuses,
// results and cache behavior — the stores change durability, never answers.
func TestLocalDiskMatchesMemory(t *testing.T) {
	models := []string{
		".model t1\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n",
		".model t2\n.inputs a b c\n.outputs f\n.names a b c f\n111 1\n100 1\n.end\n",
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	cas, journal := durableStores(t, t.TempDir())
	defer journal.Close()
	disk := dualvdd.NewLocal(dualvdd.LocalResultCache(cas), dualvdd.LocalJobStore(journal))
	defer mustClose(t, disk)
	mem := dualvdd.NewLocal(
		dualvdd.LocalResultCache(dualvdd.NewMemoryCache(256)),
		dualvdd.LocalJobStore(dualvdd.NewMemoryJournal()))
	defer mustClose(t, mem)

	// Each model twice: a miss then a hit, on both runners.
	for round := 0; round < 2; round++ {
		for i, model := range models {
			job := dualvdd.BLIFJob(model,
				dualvdd.WithSimWords(8), dualvdd.WithAlgorithms(dualvdd.AlgoCVS))
			dID, err := disk.Submit(ctx, job)
			if err != nil {
				t.Fatal(err)
			}
			mID, err := mem.Submit(ctx, job)
			if err != nil {
				t.Fatal(err)
			}
			dSt, err := disk.Result(ctx, dID)
			if err != nil {
				t.Fatal(err)
			}
			mSt, err := mem.Result(ctx, mID)
			if err != nil {
				t.Fatal(err)
			}
			if dSt.Cached != mSt.Cached || dSt.Cached != (round == 1) {
				t.Fatalf("round %d model %d: cached disk=%v mem=%v", round, i, dSt.Cached, mSt.Cached)
			}
			if dSt.Results[0].Power != mSt.Results[0].Power ||
				dSt.Results[0].STAEvals != mSt.Results[0].STAEvals {
				t.Fatalf("round %d model %d: disk and memory runners disagree", round, i)
			}
		}
	}
	dm, mm := disk.Metrics(), mem.Metrics()
	if dm.CacheHits != mm.CacheHits || dm.CacheMisses != mm.CacheMisses || dm.JobsDone != mm.JobsDone {
		t.Fatalf("metrics diverge: disk %+v vs mem %+v", dm, mm)
	}
}

// TestLocalPublishesLast pins the lifecycle order: cache put, in-flight
// release and history bound come before the terminal publish, the journal
// append after it. Every cache and journal operation is slowed by 50 ms,
// which holds that bookkeeping well behind the publish were it to come
// after. With a one-job history, the job just published must already have
// evicted every older one; and an identical resubmission made right after
// Result must be a cache hit under a new ID, never a dedup onto the
// finished job.
func TestLocalPublishesLast(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	src := chaos.NewSource(1)
	slow := chaos.StoreFaults{Latency: 50 * time.Millisecond, PLatency: 1}
	l := dualvdd.NewLocal(
		dualvdd.LocalResultCache(chaos.NewCache(dualvdd.NewMemoryCache(16), src, slow)),
		dualvdd.LocalJobStore(chaos.NewJournal(dualvdd.NewMemoryJournal(), src, slow)),
		dualvdd.LocalJobHistory(1))
	defer mustClose(t, l)

	run := func(model string) (dualvdd.JobID, *dualvdd.JobStatus) {
		t.Helper()
		id, err := l.Submit(ctx, dualvdd.BLIFJob(model,
			dualvdd.WithSimWords(8), dualvdd.WithAlgorithms(dualvdd.AlgoCVS)))
		if err != nil {
			t.Fatal(err)
		}
		st, err := l.Result(ctx, id)
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
	if _, err := l.Status(ctx, older); !errors.Is(err, dualvdd.ErrJobNotFound) {
		t.Fatalf("job beyond the one-job history still answers Status (err %v)", err)
	}
	// An identical resubmission right after Result is a new cached job.
	first, st := run(model("01"))
	if st.State != dualvdd.JobDone || st.Cached {
		t.Fatalf("first run: %+v", st)
	}
	dedups := l.Metrics().SubmitDedups
	again, st := run(model("01"))
	if again == first || !st.Cached {
		t.Fatalf("resubmission after Result: id %s (first %s), cached=%v; want a new cached job", again, first, st.Cached)
	}
	if got := l.Metrics().SubmitDedups; got != dedups {
		t.Fatalf("resubmission after Result was deduped (SubmitDedups %d -> %d)", dedups, got)
	}
}
