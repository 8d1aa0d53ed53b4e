package dualvdd

import (
	"context"
	"fmt"
	"maps"
	"sync"
)

// JobTable is the job lifecycle both runners drive. Local executes jobs in
// process and fleet.Coordinator dispatches them to workers; the table owns
// the rest: the job record and ID allocation, in-flight dedup, the result
// cache, the counters, the bounded history and the journal. It is exported
// only because package fleet drives it too; each runner holds its table in
// an unexported field.
type JobTable struct {
	cache   ResultCache // nil disables caching
	journal JobStore    // nil keeps no durability log
	history int
	hooks   JobHooks

	mu       sync.Mutex
	jobs     map[JobID]*JobEntry // guarded by mu
	inflight map[string]JobID    // guarded by mu; content key → live job, for idempotent resubmission
	retired  []JobID             // guarded by mu; terminal jobs in completion order, oldest first
	order    int64               // guarded by mu
	closed   bool                // guarded by mu
	metrics  Metrics             // guarded by mu
}

// JobHooks are the points where a runner plugs into its JobTable.
type JobHooks struct {
	// Admit charges a submission to its tenant or refuses it; Release
	// returns the charge once the job is terminal. Nil for no admission.
	// Start gets a cache-miss job going; an error (a full queue) withdraws
	// the submission. Start runs under the table's lock, after the Close
	// check, and Release under the job's lock, so neither may block.
	Admit   func(tenant string) error
	Release func(tenant string)
	Start   func(j *JobEntry) error
}

// JobEntry is one submission's record in a JobTable: spec, lifecycle state,
// the per-job context, and the append-only event log Watch replays.
type JobEntry struct {
	key    string
	group  string // warm-prep group address, hashed at Submit for a cache miss only
	seq    int64  // submission counter; journaled for replay
	tenant string
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed on terminal state; receiving needs no lock

	mu     sync.Mutex
	spec   Job           // guarded by mu; the inline BLIF is dropped at retirement
	status JobStatus     // guarded by mu
	events []Event       // guarded by mu
	update chan struct{} // guarded by mu; closed and replaced on every append/state change
}

// Outcome is how a run ended. Finish applies all of it in one step.
type Outcome struct {
	State JobState // JobDone, JobFailed or JobCancelled
	Error string
	// Design is kept whatever the state (mapping may have finished before a
	// failure); Results are set only when the job is done.
	Design  *DesignInfo
	Results []*FlowResult
	// Computed marks results this run computed: their evaluation totals
	// count in the metrics. A result a worker served from its own cache
	// adds nothing, which keeps the eval counters an honest proof of work.
	Computed bool

	cached bool // answered from this table's cache: no put, Cached status
}

// NewJobTable builds a table over the given cache and journal (either may be
// nil) that keeps up to history terminal jobs queryable, replaying the
// journal first.
func NewJobTable(cache ResultCache, journal JobStore, history int, hooks JobHooks) *JobTable {
	t := &JobTable{
		cache:    cache,
		journal:  journal,
		history:  history,
		hooks:    hooks,
		jobs:     make(map[JobID]*JobEntry),
		inflight: make(map[string]JobID),
	}
	if journal != nil {
		t.replay()
	}
	return t
}

// Submit keys the job once, from its memoized canonical encoding, answers
// an in-flight twin with its ID, admits, and then answers from the cache
// with a born-done job or hands the job, queued and with its warm-prep
// group, to the Start hook. It builds no circuit unless the canonical
// encoding misses its memo; a runner that executes the job builds the
// circuit itself. See Runner.
func (t *JobTable) Submit(ctx context.Context, job Job) (JobID, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	budget, hasBudget := JobBudget(ctx)
	if hasBudget && budget <= 0 {
		t.Count(func(m *Metrics) { m.BudgetRejects++ })
		return "", ErrBudgetExhausted
	}
	canon, err := job.canonical()
	if err != nil {
		return "", err
	}
	key, err := job.contentKey(canon)
	if err != nil {
		return "", err
	}
	// Submission is idempotent on the job's content address while a
	// matching job is in flight: a retried POST whose first attempt landed
	// (only the response died in transit) is answered with the live job's
	// ID. Checked before admission, so the retry is not charged against the
	// tenant's quota or rate a second time.
	t.mu.Lock()
	prior, err := t.twin(key)
	t.mu.Unlock()
	if prior != "" || err != nil {
		return prior, err
	}
	tenant := TenantFromContext(ctx)
	if t.hooks.Admit != nil {
		if err := t.hooks.Admit(tenant); err != nil {
			t.Count(func(m *Metrics) {
				m.AdmissionRejects++
				if m.TenantRejects == nil {
					m.TenantRejects = make(map[string]int64)
				}
				// The tag is the caller's word, so the breakdown names only
				// the first TenantRejectTags tenants; later ones share a key.
				label := tenant
				if _, named := m.TenantRejects[label]; !named && len(m.TenantRejects) >= TenantRejectTags {
					label = TenantRejectsOther
				}
				m.TenantRejects[label]++
			})
			return "", err
		}
	}

	// The per-job context is detached from the Submit ctx (the job outlives
	// the call) but bounded by the remaining deadline budget when one is
	// set: a job that overruns its end-to-end budget is cancelled, not left
	// burning a worker nobody is waiting for.
	j := &JobEntry{key: key, tenant: tenant, done: make(chan struct{}),
		spec: job, update: make(chan struct{})}
	if hasBudget {
		//lint:ctx-ok documented detachment above: jobs outlive Submit, budget-bounded
		j.ctx, j.cancel = context.WithTimeout(context.Background(), budget)
	} else {
		//lint:ctx-ok documented detachment above: jobs outlive Submit, Cancel/Close-bounded
		j.ctx, j.cancel = context.WithCancel(context.Background())
	}

	// The cache lookup happens outside t.mu: a disk-backed ResultCache does
	// I/O, and the interface carries its own synchronization. The fallible
	// surface is preferred so backend read errors land on StoreErrors
	// instead of vanishing into the miss count.
	var entry *CachedResult
	if t.cache != nil {
		var cacheErr error
		if entry, _, cacheErr = CacheGet(t.cache, key); cacheErr != nil {
			t.Count(func(m *Metrics) { m.StoreErrors++ })
		}
	}
	if entry == nil {
		// Only a miss runs, so only a miss needs its warm-prep group: hashed
		// from the canonical BLIF the key was.
		if j.group, err = job.groupKey(canon); err != nil {
			t.withdraw(j)
			return "", err
		}
	}

	t.mu.Lock()
	// Re-check under the lock that publishes in-flight jobs: a concurrent
	// twin may have won the race while the cache lookup ran unlocked.
	if prior, err := t.twin(key); prior != "" || err != nil {
		t.mu.Unlock()
		t.withdraw(j)
		return prior, err
	}
	t.order++
	j.seq = t.order
	id := JobID(fmt.Sprintf("job-%06d-%s", j.seq, key[:8]))
	j.status.ID = id
	if entry != nil {
		// A hit is born done. It replays the synthetic event history a run
		// would have streamed (mapped, then one result per algorithm), so
		// Watch behaves the same for hits and misses.
		design := *entry.Design
		j.events = append(j.events, design.mapped())
		for _, res := range entry.Results {
			j.events = append(j.events, EventResult{Circuit: design.Name, Result: res})
		}
		t.metrics.CacheHits++
		t.jobs[id] = j
		t.mu.Unlock()
		t.finish(j, Outcome{State: JobDone, Design: &design, Results: entry.Results, cached: true}, false)
		return id, nil
	}
	t.metrics.CacheMisses++
	j.status.State = JobQueued
	if err := t.hooks.Start(j); err != nil {
		t.mu.Unlock()
		t.withdraw(j)
		return "", err
	}
	t.metrics.JobsQueued++
	if len(job.Config.Rails) > 2 {
		t.metrics.MultiRailJobs++
	}
	t.jobs[id] = j
	t.inflight[key] = id
	t.mu.Unlock()
	return id, nil
}

// twin answers a submission after Close with ErrClosed, and one whose
// content address is in flight with the live job's ID. The caller holds t.mu.
func (t *JobTable) twin(key string) (JobID, error) {
	if t.closed {
		return "", ErrClosed
	}
	prior, ok := t.inflight[key]
	if ok {
		t.metrics.SubmitDedups++
	}
	return prior, nil
}

// withdraw undoes an admitted submission that never became a job.
func (t *JobTable) withdraw(j *JobEntry) {
	j.cancel()
	if t.hooks.Release != nil {
		t.hooks.Release(j.tenant)
	}
}

// Begin moves a queued job to running. False means Cancel finished the job
// while it waited; the runner drops it.
func (t *JobTable) Begin(j *JobEntry) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.State != JobQueued {
		return false
	}
	j.status.State = JobRunning
	t.Count(func(m *Metrics) {
		m.JobsQueued--
		m.JobsRunning++
	})
	j.bump()
	return true
}

// Finish applies a run's outcome and publishes it last: cache put →
// counters → retire → Release → publish → journal. So a request made right
// after Result observes all of it: an identical resubmission is a cache hit
// under a new ID, never a dedup onto this job; the tenant's slot is free;
// and a job the history bound pushed out answers ErrJobNotFound. Finish
// does nothing on a terminal job, so it is safe after a racing Cancel.
func (t *JobTable) Finish(j *JobEntry, out Outcome) {
	t.finish(j, out, false)
}

// finish is Finish; queuedOnly restricts it to a job still queued, which is
// Cancel's rule. Lock order: j.mu, then t.mu inside it, nowhere the other
// way round.
func (t *JobTable) finish(j *JobEntry, out Outcome, queuedOnly bool) {
	if out.State == JobDone && !out.cached && t.cache != nil {
		if err := CachePut(t.cache, &CachedResult{Key: j.key, Design: out.Design, Results: out.Results}); err != nil {
			t.Count(func(m *Metrics) { m.StoreErrors++ })
		}
	}
	j.mu.Lock()
	prev := j.status.State
	if prev.Terminal() || queuedOnly && prev != JobQueued {
		j.mu.Unlock()
		return
	}
	t.mu.Lock()
	switch prev { // a cache hit held neither gauge
	case JobQueued:
		t.metrics.JobsQueued--
	case JobRunning:
		t.metrics.JobsRunning--
	}
	switch out.State {
	case JobDone:
		t.metrics.JobsDone++
		if out.Computed {
			for _, r := range out.Results {
				t.metrics.STAEvals += r.STAEvals
				t.metrics.CandEvals += r.CandEvals
			}
		}
	case JobCancelled:
		t.metrics.JobsCancelled++
	default:
		t.metrics.JobsFailed++
	}
	t.retire(j)
	t.mu.Unlock()
	if t.hooks.Release != nil {
		t.hooks.Release(j.tenant)
	}
	j.status = JobStatus{ID: j.status.ID, State: out.State, Error: out.Error,
		Cached: out.cached, Design: out.Design, Results: out.Results}
	j.bump()
	j.mu.Unlock()
	j.cancel()
	close(j.done)
	if t.journal != nil {
		if err := t.journal.Append(JobRecord{Seq: j.seq, Key: j.key, Status: *j.snapshot()}); err != nil {
			t.Count(func(m *Metrics) { m.StoreErrors++ })
		}
	}
}

// retire does the bookkeeping of a finishing job that a later request can
// observe, so it runs before the terminal state is published: it drops the
// in-flight entry (later identical submissions start fresh or hit the
// cache, never adopt this job), frees the input (any inline BLIF text is
// dead weight once the run is over), and enters the job into the bounded
// history, forgetting the oldest terminal jobs past the bound;
// caller holds t.mu and j.mu.
func (t *JobTable) retire(j *JobEntry) {
	if cur, ok := t.inflight[j.key]; ok && cur == j.status.ID {
		delete(t.inflight, j.key)
	}
	j.spec.BLIF = ""
	t.retired = append(t.retired, j.status.ID)
	for len(t.retired) > t.history {
		delete(t.jobs, t.retired[0])
		t.retired = t.retired[1:]
	}
}

// replay reconstructs the previous life's terminal job history from the
// journal: each record becomes a queryable terminal job (empty event log —
// only the outcome survives a restart), the newest t.history of them are
// kept, and the submission counter resumes past the largest replayed
// sequence number so new IDs never collide with journaled ones.
//
//lint:unguarded-ok construction: runs inside NewJobTable, before the table is shared
func (t *JobTable) replay() {
	var recs []JobRecord
	err := t.journal.Replay(func(rec JobRecord) error {
		if rec.Status.ID == "" || !rec.Status.State.Terminal() {
			return nil // skip malformed or non-terminal records
		}
		recs = append(recs, rec)
		t.order = max(t.order, rec.Seq)
		return nil
	})
	if err != nil {
		t.metrics.StoreErrors++
	}
	if len(recs) > t.history {
		recs = recs[len(recs)-t.history:]
	}
	for _, rec := range recs {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		j := &JobEntry{key: rec.Key, seq: rec.Seq, ctx: ctx, cancel: cancel,
			done: make(chan struct{}), status: rec.Status, update: make(chan struct{})}
		close(j.done)
		t.jobs[rec.Status.ID] = j
		t.retired = append(t.retired, rec.Status.ID)
	}
}

// Count applies f to the counters under the table's lock; runners keep
// their own counters in the same Metrics.
func (t *JobTable) Count(f func(m *Metrics)) {
	t.mu.Lock()
	f(&t.metrics)
	t.mu.Unlock()
}

// Metrics returns a snapshot of the counters and the cache's size gauges.
func (t *JobTable) Metrics() Metrics {
	t.mu.Lock()
	m := t.metrics
	m.TenantRejects = maps.Clone(m.TenantRejects)
	t.mu.Unlock()
	if t.cache != nil {
		m.CacheEntries = t.cache.Len()
		m.CacheBytes = t.cache.Bytes()
		if d, ok := t.cache.(interface{ Degraded() bool }); ok && d.Degraded() {
			m.StoreDegraded = 1
		}
	}
	return m
}

// find looks a job up.
func (t *JobTable) find(id JobID) (*JobEntry, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrJobNotFound, id)
	}
	return j, nil
}

// Status returns a snapshot of the job. See Runner.
func (t *JobTable) Status(ctx context.Context, id JobID) (*JobStatus, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	j, err := t.find(id)
	if err != nil {
		return nil, err
	}
	return j.snapshot(), nil
}

// Result blocks until the job is terminal. See Runner.
func (t *JobTable) Result(ctx context.Context, id JobID) (*JobStatus, error) {
	j, err := t.find(id)
	if err != nil {
		return nil, err
	}
	select {
	case <-j.done:
		return j.snapshot(), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Watch streams the job's events: full replay, then live until terminal.
// See Runner.
func (t *JobTable) Watch(ctx context.Context, id JobID) (<-chan Event, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	j, err := t.find(id)
	if err != nil {
		return nil, err
	}
	out := make(chan Event)
	go func() {
		defer close(out)
		next := 0
		for {
			j.mu.Lock()
			pending := j.events[next:]
			next = len(j.events)
			update := j.update
			terminal := j.status.State.Terminal()
			j.mu.Unlock()
			for _, ev := range pending {
				select {
				case out <- ev:
				case <-ctx.Done():
					return
				}
			}
			if terminal && len(pending) == 0 {
				return
			}
			if terminal {
				continue // flush any events appended with the terminal state
			}
			select {
			case <-update:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out, nil
}

// Cancel stops a job by one rule for every runner: a queued job is finished
// as cancelled before Cancel returns, and a running one has its context
// fired. The context fires first, so a runner that reads the job after
// retirement dropped its input finds it cancelled. See Runner.
func (t *JobTable) Cancel(ctx context.Context, id JobID) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	j, err := t.find(id)
	if err != nil {
		return err
	}
	j.cancel()
	t.finish(j, Outcome{State: JobCancelled, Error: context.Canceled.Error()}, true)
	return nil
}

// Close stops intake and waits for the runner to drain: Submit fails with
// ErrClosed from here on. stop runs once, under the lock Submit checks, so
// a runner may close its queue there; idle is the runner's drained signal.
// When ctx expires first, every job is cancelled and Close still waits for
// idle, returning ctx.Err().
func (t *JobTable) Close(ctx context.Context, stop func(), idle <-chan struct{}) error {
	t.mu.Lock()
	if !t.closed {
		t.closed = true
		stop()
	}
	jobs := make([]*JobEntry, 0, len(t.jobs))
	//lint:nondeterministic-ok shutdown cancels every job; cancellation order is immaterial
	for _, j := range t.jobs {
		jobs = append(jobs, j)
	}
	t.mu.Unlock()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		for _, j := range jobs {
			j.cancel()
		}
		<-idle
		return ctx.Err()
	}
}

// Context is the job's own context, bounded by its budget and fired by
// Cancel and by Close's expiry.
func (j *JobEntry) Context() context.Context { return j.ctx }

// Spec returns the submitted job. Once the job is terminal its inline BLIF
// is gone, and Context has already fired.
func (j *JobEntry) Spec() Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.spec
}

// Group is the job's warm-prep group address (Job.GroupKey), which Local
// shares prepared state by and the fleet places the job by. Submit hashes it
// for a cache miss; a hit never runs and has none. Retirement keeps it.
func (j *JobEntry) Group() string { return j.group }

// Publish appends one event to the job's log. A terminal job's log is
// closed: an event that arrives after the outcome is dropped.
func (j *JobEntry) Publish(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.State.Terminal() {
		return
	}
	j.events = append(j.events, ev)
	j.bump()
}

// snapshot copies the status; terminal statuses are immutable, so the
// Results and Design it shares are too.
func (j *JobEntry) snapshot() *JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.status
	return &st
}

// bump wakes Watch subscribers; caller holds j.mu.
func (j *JobEntry) bump() {
	close(j.update)
	j.update = make(chan struct{})
}
