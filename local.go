package dualvdd

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Local is the in-process Runner: a bounded job queue drained by a worker
// pool (fanned out by the same Batch primitive that powers suite
// evaluation), per-job contexts for cancellation, a content-addressed
// result cache so identical submissions are answered without recomputation,
// and warm-prep groups so jobs on one circuit and high rail share one
// prepared state (see execute).
// It is the reference implementation of the Runner contract — the server
// package puts an HTTP surface in front of exactly this, and the httptest
// integration suite holds the two to the same behavior.
//
// A Local is safe for concurrent use. Close drains it; after Close, Submit
// fails with ErrClosed. Terminal jobs stay queryable up to the
// LocalJobHistory bound, then are forgotten — a long-lived service holds a
// bounded amount of state no matter how many jobs pass through.
type Local struct {
	queue      chan *JobEntry
	workers    int
	cacheLimit int
	history    int

	// cache is the content-addressed result store (nil = caching disabled)
	// and journal the optional durability log of terminal jobs. Both default
	// to the in-memory implementations; LocalResultCache / LocalJobStore
	// swap in the disk-backed ones from internal/store, which is what makes
	// a restarted service resume instead of recompute.
	cache   ResultCache
	journal JobStore

	table *JobTable     // the job lifecycle; Local adds the queue and execution
	idle  chan struct{} // closed when the worker pool exits; receiving needs no lock

	mu      sync.Mutex
	warm    map[string]*list.Element // guarded by mu
	warmLRU *list.List               // guarded by mu; front = most recent; values are *warmEntry
}

// warmGroups is the least number of warm-prep groups a Local keeps resident;
// a Local with more workers keeps one per worker, so the groups of jobs
// running side by side never push each other out. Past the bound the
// least-recently-used group is dropped and rebuilt on next use.
const warmGroups = 4

// warmEntry is one warm-prep group: every job with the same Group
// shares the prepared design built by the group's first member, exactly once
// (sync.Once), under that member's context. A failed build is cached: the
// failure is a deterministic property of the circuit and config, so every
// member fails identically instead of rebuilding in a loop. A build cut short
// by its member's context is not: it says nothing about the group, so the
// builder drops the group and the next member builds afresh.
//
// wd is the group's shared engine. A member that finds it busy runs on a
// private engine over the same design instead of waiting for it, so a
// multi-worker Local runs one group's members side by side.
type warmEntry struct {
	key  string
	once sync.Once
	wd   *WarmDesign
	err  error
	busy atomic.Bool // wd is running a member
}

// LocalOption configures NewLocal.
type LocalOption func(*Local)

// LocalWorkers bounds the worker pool (default 1, minimum 1). Each worker
// runs one job at a time; a job's logic simulation still runs word-parallel
// over GOMAXPROCS workers.
func LocalWorkers(n int) LocalOption {
	return func(l *Local) {
		if n > 0 {
			l.workers = n
		}
	}
}

// LocalQueueDepth bounds how many submitted jobs may wait for a worker
// (default 64). A full queue rejects Submit with ErrQueueFull — backpressure
// instead of unbounded memory.
func LocalQueueDepth(n int) LocalOption {
	return func(l *Local) {
		if n >= 0 {
			l.queue = make(chan *JobEntry, n)
		}
	}
}

// LocalCacheEntries bounds the content-addressed result cache (default 256).
// Zero disables caching. The option configures the default in-memory LRU;
// LocalResultCache overrides it entirely.
func LocalCacheEntries(n int) LocalOption {
	return func(l *Local) {
		if n >= 0 {
			l.cacheLimit = n
		}
	}
}

// LocalResultCache swaps the runner's result cache for a custom
// implementation — typically the disk CAS from internal/store, so cached
// results survive the process. It overrides LocalCacheEntries; nil keeps the
// default. The runner does not Close the cache: the caller owns its
// lifecycle (a disk CAS may be shared across restarts by construction).
func LocalResultCache(c ResultCache) LocalOption {
	return func(l *Local) { l.cache = c }
}

// LocalJobStore attaches a durability journal: every terminal job is
// appended, and NewLocal replays the store so the previous life's terminal
// jobs stay queryable (Status/Result/Watch see the recorded outcome; the
// replayed event log is empty) and ID allocation resumes past them. The
// journal never changes what runs — it only remembers. Append failures are
// counted on Metrics.StoreErrors rather than failing jobs. The caller owns
// the store's lifecycle.
func LocalJobStore(s JobStore) LocalOption {
	return func(l *Local) { l.journal = s }
}

// LocalJobHistory bounds how many terminal jobs stay queryable (default
// 1024, minimum 1). Past the bound the oldest-completed job is forgotten —
// its ID starts returning ErrJobNotFound — so a long-lived service does not
// accumulate event logs and results without end. Queued and running jobs
// never count against the bound.
func LocalJobHistory(n int) LocalOption {
	return func(l *Local) {
		if n > 0 {
			l.history = n
		}
	}
}

// NewLocal builds a Local runner and starts its worker pool. With a
// LocalJobStore attached, the store is replayed first: the previous life's
// terminal jobs become queryable history and ID allocation resumes past the
// largest replayed sequence number.
func NewLocal(opts ...LocalOption) *Local {
	l := &Local{
		workers:    1,
		cacheLimit: 256,
		history:    1024,
		idle:       make(chan struct{}),
		warm:       make(map[string]*list.Element),
		warmLRU:    list.New(),
	}
	for _, opt := range opts {
		opt(l)
	}
	if l.queue == nil {
		l.queue = make(chan *JobEntry, 64)
	}
	if l.cache == nil && l.cacheLimit > 0 {
		l.cache = NewMemoryCache(l.cacheLimit)
	}
	// The Start hook enqueues; a full queue refuses the submission with
	// ErrQueueFull instead of blocking.
	l.table = NewJobTable(l.cache, l.journal, l.history, JobHooks{Start: func(j *JobEntry) error {
		select {
		case l.queue <- j:
			return nil
		default:
			return ErrQueueFull
		}
	}})
	// The pool is Batch fanning out n infinite worker loops: each pool
	// goroutine takes exactly one loop (a loop only returns at drain), so
	// the service reuses the one deterministic fan-out primitive the
	// repository already trusts instead of a second hand-rolled pool.
	go func() {
		defer close(l.idle)
		_ = Batch{Workers: l.workers}.Each(context.Background(), l.workers,
			func(context.Context, int) error {
				for j := range l.queue {
					if l.table.Begin(j) { // false: cancelled while it waited
						l.table.Finish(j, l.execute(j))
					}
				}
				return nil
			})
	}()
	return l
}

var _ Runner = (*Local)(nil)
var _ MetricsProvider = (*Local)(nil)

// Submit validates the job, answers it from the cache on a content hit, and
// otherwise enqueues it. See Runner.
func (l *Local) Submit(ctx context.Context, job Job) (JobID, error) {
	return l.table.Submit(ctx, job)
}

// Status returns a snapshot of the job. See Runner.
func (l *Local) Status(ctx context.Context, id JobID) (*JobStatus, error) {
	return l.table.Status(ctx, id)
}

// Result blocks until the job is terminal. See Runner.
func (l *Local) Result(ctx context.Context, id JobID) (*JobStatus, error) {
	return l.table.Result(ctx, id)
}

// Watch streams the job's events: full replay, then live until terminal.
// See Runner.
func (l *Local) Watch(ctx context.Context, id JobID) (<-chan Event, error) {
	return l.table.Watch(ctx, id)
}

// Cancel stops a queued or running job; a cancelled queued job stays in
// the channel until a worker dequeues and drops it. See Runner.
func (l *Local) Cancel(ctx context.Context, id JobID) error {
	return l.table.Cancel(ctx, id)
}

// Metrics returns a counters snapshot.
func (l *Local) Metrics() Metrics {
	m := l.table.Metrics()
	l.mu.Lock()
	m.PrepGroups = l.warmLRU.Len()
	l.mu.Unlock()
	return m
}

// Close stops accepting jobs and drains the queue: queued and running jobs
// finish normally. The ctx bounds the wait — when it expires every remaining
// job is cancelled and Close waits (briefly) for the pool to exit, returning
// ctx.Err().
func (l *Local) Close(ctx context.Context) error {
	return l.table.Close(ctx, func() { close(l.queue) }, l.idle)
}

// execute runs the job on its warm-prep group's shared state: the mapped
// netlist, baseline timing engine and activity table are built once per group
// and every member only re-converges its own rails on it, with results
// bit-identical to a standalone Flow. The first member to arrive builds; the
// EventMapped the build does not replay per job is synthesized onto each
// member's log, the same parity a cache hit's synthetic history keeps.
//
// A panic anywhere in the run fails the job instead of the process, and the
// group is dropped so the next member rebuilds rather than trust state the
// panic unwound through.
func (l *Local) execute(j *JobEntry) (out Outcome) {
	var entry *warmEntry
	defer func() {
		if p := recover(); p != nil {
			if entry != nil {
				l.warmDrop(entry)
			}
			out = Outcome{State: JobFailed, Error: fmt.Sprintf("dualvdd: job panicked: %v", p)}
		}
	}()
	job := j.Spec()
	built := false
	for {
		if err := j.ctx.Err(); err != nil {
			return outcome(nil, nil, err) // cancelled or out of budget: build nothing
		}
		entry = l.warmGet(j.group)
		entry.once.Do(func() {
			// The group's build is the only consumer of the job's circuit,
			// so the circuit is built here, once per group, not per job.
			built = true
			net, err := job.network()
			if err != nil {
				entry.err = err
				return
			}
			entry.wd, entry.err = New(FromConfig(job.Config)).PrepareWarm(j.ctx, net)
		})
		if !cancelled(entry.err) {
			break
		}
		// A build its member's context cut short says nothing about the
		// group: drop it, and let this job's own context decide whether to
		// build afresh.
		l.warmDrop(entry)
	}
	l.table.Count(func(m *Metrics) {
		if built {
			m.PrepBuilds++
		} else {
			m.PrepReuses++
		}
	})
	if entry.err != nil {
		return outcome(nil, nil, entry.err)
	}
	design := designInfo(entry.wd.Design)
	j.Publish(design.mapped())
	wd, shared := entry.wd, entry.busy.CompareAndSwap(false, true)
	if !shared {
		var err error
		if wd, err = NewWarmDesign(entry.wd.Design); err != nil {
			return outcome(design, nil, err)
		}
	}
	results, err := wd.RunAt(j.ctx, job.Config.Rails, job.algorithms(), j.Publish)
	if shared {
		// Not deferred: an engine a panic unwound through stays busy, so no
		// member still holding the group runs on it again.
		entry.busy.Store(false)
	}
	return outcome(design, results, err)
}

// outcome classifies a local run's end: done, cancelled by its context
// (Cancel, Close's expiry, or its budget), or failed.
func outcome(design *DesignInfo, results []*FlowResult, err error) Outcome {
	switch {
	case err == nil:
		return Outcome{State: JobDone, Design: design, Results: results, Computed: true}
	case cancelled(err):
		return Outcome{State: JobCancelled, Error: err.Error(), Design: design}
	default:
		return Outcome{State: JobFailed, Error: err.Error(), Design: design}
	}
}

// cancelled reports whether err is a context's cancellation or deadline.
func cancelled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// designInfo summarizes a prepared design.
func designInfo(d *Design) *DesignInfo {
	return &DesignInfo{
		Name: d.Name, Gates: d.Circuit.NumLiveGates(),
		MinDelay: d.MinDelay, Tspec: d.Tspec, OrgPower: d.OrgPower,
	}
}

// warmGet returns the job's warm-prep group, creating it (and evicting the
// least-recently-used group past the bound) as needed.
func (l *Local) warmGet(key string) *warmEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.warm[key]; ok {
		l.warmLRU.MoveToFront(el)
		return el.Value.(*warmEntry)
	}
	e := &warmEntry{key: key}
	l.warm[key] = l.warmLRU.PushFront(e)
	for l.warmLRU.Len() > max(l.workers, warmGroups) {
		oldest := l.warmLRU.Back()
		l.warmLRU.Remove(oldest)
		delete(l.warm, oldest.Value.(*warmEntry).key)
	}
	return e
}

// warmDrop removes the group from the LRU unless it was already evicted (and
// possibly replaced by a fresh group under the same key).
func (l *Local) warmDrop(e *warmEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if el, ok := l.warm[e.key]; ok && el.Value.(*warmEntry) == e {
		l.warmLRU.Remove(el)
		delete(l.warm, e.key)
	}
}
