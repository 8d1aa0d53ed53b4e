package dualvdd

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// groupJobs are benchmark and inline-BLIF jobs at two and three rails.
func groupJobs() []Job {
	const c17 = ".model c17\n.inputs a b c d e\n.outputs y z\n" +
		".names a c n1\n11 0\n.names c d n2\n11 0\n.names b n2 n3\n11 0\n" +
		".names n2 e n4\n11 0\n.names n1 n3 y\n11 0\n.names n3 n4 z\n11 0\n.end\n"
	rails3 := WithRails(5.0, 4.3, 3.6)
	return []Job{
		BenchmarkJob("z4ml", WithSimWords(16)),
		BenchmarkJob("z4ml", WithSimWords(16), rails3),
		BLIFJob(c17, WithSimWords(16)),
		BLIFJob(c17, WithSimWords(16), rails3),
	}
}

// TestSubmitRecordsGroupOnMiss drives a JobTable through a Start hook that
// only records the entry, the seam the fleet coordinator uses: a miss hands
// Start an entry whose Group is Job.GroupKey, still readable after Cancel
// retired the queued job, and a cache hit never reaches Start and has no
// group.
func TestSubmitRecordsGroupOnMiss(t *testing.T) {
	ctx := context.Background()
	var started []*JobEntry
	table := NewJobTable(NewMemoryCache(16), nil, 16, JobHooks{Start: func(j *JobEntry) error {
		started = append(started, j)
		return nil
	}})
	for _, job := range groupJobs() {
		want, err := job.GroupKey()
		if err != nil {
			t.Fatal(err)
		}
		miss := func() (JobID, *JobEntry) {
			t.Helper()
			started = nil
			id, err := table.Submit(ctx, job)
			if err != nil {
				t.Fatal(err)
			}
			if len(started) != 1 {
				t.Fatalf("a miss reached Start %d times, want once", len(started))
			}
			if got := started[0].Group(); got != want {
				t.Fatalf("miss recorded group %s, want Job.GroupKey %s", got, want)
			}
			return id, started[0]
		}

		id, j := miss()
		if err := table.Cancel(ctx, id); err != nil {
			t.Fatal(err)
		}
		if st, _ := table.Status(ctx, id); st.State != JobCancelled {
			t.Fatalf("cancelled queued job reads %s", st.State)
		}
		if got := j.Group(); got != want {
			t.Fatalf("group after retirement = %q, want %s", got, want)
		}

		// A cancelled job caches nothing, so the resubmission misses again;
		// finishing it done caches the result the next one hits.
		_, j = miss()
		table.Finish(j, Outcome{State: JobDone, Design: &DesignInfo{Name: "t"}})
		started = nil
		id, err = table.Submit(ctx, job)
		if err != nil {
			t.Fatal(err)
		}
		if len(started) != 0 {
			t.Fatal("a cache hit reached Start")
		}
		hit, err := table.find(id)
		if err != nil {
			t.Fatal(err)
		}
		if st := hit.snapshot(); !st.Cached || hit.Group() != "" {
			t.Fatalf("hit: cached=%v group=%q, want a cached job with no group", st.Cached, hit.Group())
		}
	}
}

// TestLocalRunsJobsInSubmitGroup submits the same jobs to a Local: each miss
// runs in the warm-prep group Job.GroupKey names, and a cache hit records
// no group and builds nothing.
func TestLocalRunsJobsInSubmitGroup(t *testing.T) {
	ctx := context.Background()
	l := NewLocal(LocalWorkers(1))
	defer drain(t, l)
	jobs := groupJobs()
	for _, job := range jobs {
		want, err := job.GroupKey()
		if err != nil {
			t.Fatal(err)
		}
		for _, cached := range []bool{false, true} {
			id, err := l.Submit(ctx, job)
			if err != nil {
				t.Fatal(err)
			}
			st, err := l.Result(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != JobDone || st.Cached != cached {
				t.Fatalf("job ended %s with cached=%v, want done with cached=%v: %s", st.State, st.Cached, cached, st.Error)
			}
			j, err := l.table.find(id)
			if err != nil {
				t.Fatal(err)
			}
			wantGroup := want
			if cached {
				wantGroup = ""
			}
			if got := j.Group(); got != wantGroup {
				t.Fatalf("cached=%v: recorded group %q, want %q", cached, got, wantGroup)
			}
			l.mu.Lock()
			_, resident := l.warm[want]
			l.mu.Unlock()
			if !resident {
				t.Fatalf("no warm-prep group resident under Job.GroupKey %s", want)
			}
		}
	}
	if m := l.Metrics(); m.PrepBuilds != int64(len(jobs)) || m.PrepReuses != 0 || m.CacheHits != int64(len(jobs)) {
		t.Fatalf("builds/reuses/hits = %d/%d/%d, want %d/0/%d", m.PrepBuilds, m.PrepReuses, m.CacheHits, len(jobs), len(jobs))
	}
}

// TestTenantRejectsBounded: refusals of ever-new tenant tags, which come
// from an unauthenticated header, name at most TenantRejectTags tenants and
// fold the rest into TenantRejectsOther, and the breakdown still sums to
// AdmissionRejects.
func TestTenantRejectsBounded(t *testing.T) {
	refuse := errors.New("refused")
	table := NewJobTable(nil, nil, 16, JobHooks{
		Admit: func(string) error { return refuse },
		Start: func(*JobEntry) error { t.Fatal("a refused job started"); return nil },
	})
	job := BenchmarkJob("x2", WithSimWords(8))
	const tags = 10000
	for i := 0; i < tags; i++ {
		if _, err := table.Submit(WithTenant(context.Background(), fmt.Sprint("tenant-", i)), job); !errors.Is(err, refuse) {
			t.Fatalf("submission %d returned %v, want the admission refusal", i, err)
		}
	}
	m := table.Metrics()
	if len(m.TenantRejects) > TenantRejectTags+1 {
		t.Fatalf("%d distinct tags left %d reject keys, want at most %d", tags, len(m.TenantRejects), TenantRejectTags+1)
	}
	var sum int64
	for _, n := range m.TenantRejects {
		sum += n
	}
	if m.AdmissionRejects != tags || sum != tags {
		t.Fatalf("AdmissionRejects %d, breakdown sums to %d; want both %d", m.AdmissionRejects, sum, tags)
	}
	if m.TenantRejects["tenant-0"] != 1 || m.TenantRejects[TenantRejectsOther] != tags-TenantRejectTags {
		t.Fatalf("first tenant counted %d, overflow %d; want 1 and %d",
			m.TenantRejects["tenant-0"], m.TenantRejects[TenantRejectsOther], tags-TenantRejectTags)
	}
}
