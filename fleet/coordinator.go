package fleet

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"
	"time"

	"dualvdd"
	"dualvdd/client"
)

// WorkerClient is what the coordinator needs from one worker: the Runner
// surface plus a liveness probe. *client.Client satisfies it; tests inject
// doubles through WithDialer.
type WorkerClient interface {
	dualvdd.Runner
	Health(ctx context.Context) error
}

// ErrJobPoisoned reports a job quarantined by the coordinator: every
// dispatch attempt within its re-dispatch budget took its worker down, so
// the job is treated as poison and failed instead of being re-dispatched
// forever. The job's terminal status carries this message.
var ErrJobPoisoned = errors.New("fleet: job poisoned: every worker it touched died")

// Option configures New.
type Option func(*Coordinator)

// WithResultCache swaps the coordinator's result cache — typically the disk
// CAS from internal/store, which is what makes sweeps resumable across
// coordinator restarts. The default is an in-memory LRU of 256 entries. The
// caller owns the cache's lifecycle.
func WithResultCache(c dualvdd.ResultCache) Option {
	return func(co *Coordinator) {
		if c != nil {
			co.cache = c
		}
	}
}

// WithJobStore attaches a durability journal of terminal jobs, replayed at
// construction exactly like Local's: the previous life's jobs stay
// queryable and ID allocation resumes past them. The caller owns the
// store's lifecycle.
func WithJobStore(s dualvdd.JobStore) Option {
	return func(co *Coordinator) { co.journal = s }
}

// WithVnodes sets the virtual nodes per worker on the hash ring (default
// 64). More vnodes smooth the load split at the cost of a larger ring.
func WithVnodes(n int) Option {
	return func(co *Coordinator) {
		if n > 0 {
			co.vnodes = n
		}
	}
}

// WithHealth tunes the worker health loop: probe every interval with the
// given per-probe timeout, and declare a worker dead after deadAfter
// consecutive failures (it returns to live on the next success). Zero
// values keep the defaults (2s interval, 1s timeout, 2 failures).
func WithHealth(interval, timeout time.Duration, deadAfter int) Option {
	return func(co *Coordinator) {
		if interval > 0 {
			co.healthInterval = interval
		}
		if timeout > 0 {
			co.healthTimeout = timeout
		}
		if deadAfter > 0 {
			co.deadAfter = deadAfter
		}
	}
}

// WithRedispatchBudget caps how many dispatch attempts one job may burn
// before it is quarantined as poison (default 3): a job whose submission
// takes down worker after worker is failed with ErrJobPoisoned instead of
// marching through the fleet killing everything. Legitimate re-dispatch — a
// worker dying under unrelated load — stays well inside the budget.
func WithRedispatchBudget(n int) Option {
	return func(co *Coordinator) {
		if n > 0 {
			co.redispatchBudget = n
		}
	}
}

// WithDispatchPatience bounds how long a job waits for a live worker when
// none is currently eligible (default 30s). Within the window the driver
// polls for recovery — a healed partition or a restarted worker picks the
// job back up — and only past it is the job failed undeliverable. Zero
// patience fails immediately, the pre-hardening behavior.
func WithDispatchPatience(d time.Duration) Option {
	return func(co *Coordinator) {
		if d >= 0 {
			co.patience = d
		}
	}
}

// WithHopBudget sets the per-hop overhead reserved when forwarding a job's
// end-to-end deadline budget to a worker (default 50ms): the worker is given
// the remaining budget minus this reserve, so the coordinator keeps enough
// headroom to collect the result before its own deadline fires.
func WithHopBudget(d time.Duration) Option {
	return func(co *Coordinator) {
		if d >= 0 {
			co.hopBudget = d
		}
	}
}

// WithTenantQuota bounds each tenant's concurrently in-flight jobs;
// 0 (default) disables the quota.
func WithTenantQuota(inFlight int) Option {
	return func(co *Coordinator) { co.quota = inFlight }
}

// WithTenantRate bounds each tenant's sustained submission rate to rate
// jobs/second with the given burst; 0 (default) disables rate limiting.
func WithTenantRate(rate float64, burst int) Option {
	return func(co *Coordinator) { co.rate, co.burst = rate, float64(burst) }
}

// WithHistory bounds how many terminal jobs stay queryable (default 1024).
func WithHistory(n int) Option {
	return func(co *Coordinator) {
		if n > 0 {
			co.history = n
		}
	}
}

// WithDialer swaps how worker URLs become clients — the test seam. The
// default dials a dualvdd HTTP client with a modest retry policy.
func WithDialer(dial func(url string) (WorkerClient, error)) Option {
	return func(co *Coordinator) {
		if dial != nil {
			co.dial = dial
		}
	}
}

// breakerState is a worker's circuit-breaker position. Closed passes
// traffic; open passes none; half-open passes one trial job to confirm a
// probe-signaled recovery before the breaker closes for real.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// workerState is one registered worker with its circuit breaker. The breaker
// opens on deadAfter consecutive probe failures or any in-band failure (a
// driver's request died on the worker); a later probe success moves it to
// half-open, where one trial job — or the next clean probe — closes it.
type workerState struct {
	name   string
	runner WorkerClient
	state  breakerState
	trial  bool // a half-open trial job is in flight
	fails  int  // consecutive health-probe failures
}

// eligible reports whether the breaker passes new work right now.
func (w *workerState) eligible() bool {
	switch w.state {
	case breakerClosed:
		return true
	case breakerHalfOpen:
		return !w.trial
	default:
		return false
	}
}

// fleetJob is one accepted submission: spec, lifecycle, the relayed event
// log, and the per-job context Cancel fires. It mirrors Local's job record
// so the Runner semantics match exactly.
type fleetJob struct {
	spec     dualvdd.Job
	key      string
	group    string
	tenant   string
	seq      int64
	budgeted bool // a WithJobBudget deadline bounds j.ctx
	attempts int  // dispatch attempts that killed their worker; driver-owned

	ctx    context.Context
	cancel context.CancelFunc

	mu      sync.Mutex
	status  dualvdd.JobStatus // guarded by mu
	events  []dualvdd.Event   // guarded by mu
	relayed int               // guarded by mu; events delivered so far, for replay dedup across re-dispatch
	update  chan struct{}     // guarded by mu; closed and replaced on every append/state change
	done    chan struct{}     // closed on terminal state; receiving needs no lock
}

// Coordinator shards jobs across a worker fleet. It implements
// dualvdd.Runner and dualvdd.MetricsProvider, so server.New(coordinator)
// puts the standard HTTP surface in front of a whole fleet and Sweep.Run
// drives it like any other runner.
type Coordinator struct {
	vnodes           int
	healthInterval   time.Duration
	healthTimeout    time.Duration
	deadAfter        int
	history          int
	quota            int
	rate, burst      float64
	redispatchBudget int
	patience         time.Duration
	hopBudget        time.Duration
	now              func() time.Time
	dial             func(url string) (WorkerClient, error)

	cache     dualvdd.ResultCache
	journal   dualvdd.JobStore
	admission *admission

	mu       sync.Mutex
	ring     *ring                       // guarded by mu
	workers  map[string]*workerState     // guarded by mu
	jobs     map[dualvdd.JobID]*fleetJob // guarded by mu
	inflight map[string]dualvdd.JobID    // guarded by mu; content key → live job, for idempotent resubmission
	retired  []dualvdd.JobID             // guarded by mu
	order    int64                       // guarded by mu
	closed   bool                        // guarded by mu
	metrics  dualvdd.Metrics             // guarded by mu

	wg   sync.WaitGroup
	stop chan struct{}
}

// New builds a coordinator over the given worker URLs and starts its health
// loop. At least one worker is required. With a WithJobStore journal the
// previous life's terminal jobs are replayed first; with a durable
// WithResultCache a restarted coordinator answers already-computed points
// from the cache — together they make an interrupted sweep resumable.
//
//lint:unguarded-ok construction: the coordinator is not shared until New returns
func New(workerURLs []string, opts ...Option) (*Coordinator, error) {
	if len(workerURLs) == 0 {
		return nil, errors.New("fleet: at least one worker required")
	}
	c := &Coordinator{
		vnodes:           64,
		healthInterval:   2 * time.Second,
		healthTimeout:    time.Second,
		deadAfter:        2,
		history:          1024,
		redispatchBudget: 3,
		patience:         30 * time.Second,
		hopBudget:        50 * time.Millisecond,
		jobs:             make(map[dualvdd.JobID]*fleetJob),
		inflight:         make(map[string]dualvdd.JobID),
		workers:          make(map[string]*workerState),
		stop:             make(chan struct{}),
	}
	c.dial = func(url string) (WorkerClient, error) {
		return client.New(url, client.WithRetry(3, 100*time.Millisecond, time.Second))
	}
	for _, opt := range opts {
		opt(c)
	}
	c.ring = newRing(c.vnodes)
	c.admission = newAdmission(c.rate, c.burst, c.quota, c.now)
	if c.cache == nil {
		c.cache = dualvdd.NewMemoryCache(256)
	}
	for _, u := range workerURLs {
		w, err := c.dial(u)
		if err != nil {
			return nil, fmt.Errorf("fleet: worker %s: %w", u, err)
		}
		if _, dup := c.workers[u]; dup {
			return nil, fmt.Errorf("fleet: worker %s registered twice", u)
		}
		c.workers[u] = &workerState{name: u, runner: w, state: breakerClosed}
		c.ring.add(u)
	}
	if c.journal != nil {
		c.replayJournal()
	}
	c.wg.Add(1)
	go c.healthLoop()
	return c, nil
}

var _ dualvdd.Runner = (*Coordinator)(nil)
var _ dualvdd.MetricsProvider = (*Coordinator)(nil)

// healthLoop probes every worker each interval, driving its circuit
// breaker: deadAfter consecutive probe failures open it, a probe success on
// an open breaker moves it to half-open (one trial job allowed), and a
// further clean probe — or the trial job finishing — closes it. Workers with
// non-closed breakers keep their ring points — the ring is stable — but pick
// skips them, so their arcs fall through to the next eligible worker and
// fall back as they recover.
func (c *Coordinator) healthLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.healthInterval) //lint:wallclock-ok health probing cadence; liveness only
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		c.mu.Lock()
		workers := make([]*workerState, 0, len(c.workers))
		//lint:nondeterministic-ok each worker is probed independently; probe order carries no state
		for _, w := range c.workers {
			workers = append(workers, w)
		}
		c.mu.Unlock()
		for _, w := range workers {
			ctx, cancel := context.WithTimeout(context.Background(), c.healthTimeout)
			err := w.runner.Health(ctx)
			cancel()
			c.mu.Lock()
			if err != nil {
				w.fails++
				if w.state == breakerHalfOpen || w.fails >= c.deadAfter {
					w.state = breakerOpen
					w.trial = false
				}
			} else {
				w.fails = 0
				switch w.state {
				case breakerOpen:
					// The probe says the process answers again; let one
					// trial job (or the next clean probe) prove it under
					// real traffic before trusting it with the arc.
					w.state = breakerHalfOpen
					w.trial = false
				case breakerHalfOpen:
					if !w.trial {
						w.state = breakerClosed
					}
				}
			}
			c.mu.Unlock()
		}
	}
}

// reportWorker settles a dispatch outcome into the worker's breaker: a
// served interaction closes it (completing any half-open trial), an in-band
// worker failure (a driver's request died) opens it without waiting for the
// health loop to notice.
func (c *Coordinator) reportWorker(w *workerState, ok bool) {
	c.mu.Lock()
	if ok {
		w.fails = 0
		w.trial = false
		w.state = breakerClosed
	} else {
		w.fails = c.deadAfter
		w.trial = false
		w.state = breakerOpen
	}
	c.mu.Unlock()
}

// pickWorker places a group key on an eligible, untried worker; nil when
// none remain. Picking a half-open worker claims its trial slot.
func (c *Coordinator) pickWorker(group string, tried map[string]bool) *workerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	skip := make(map[string]bool, len(tried))
	maps.Copy(skip, tried)
	// Set construction: insertion order cannot affect the skip set, and
	// ring.pick's skip-walk is deterministic in its contents.
	//lint:nondeterministic-ok building a set; ring.pick orders the walk
	for name, w := range c.workers {
		if !w.eligible() {
			skip[name] = true
		}
	}
	name := c.ring.pick(group, skip)
	if name == "" {
		return nil
	}
	w := c.workers[name]
	if w.state == breakerHalfOpen {
		w.trial = true
	}
	return w
}

// Submit admits, then answers from the cache or dispatches to the group's
// worker. See dualvdd.Runner.
func (c *Coordinator) Submit(ctx context.Context, job dualvdd.Job) (dualvdd.JobID, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	budget, hasBudget := dualvdd.JobBudget(ctx)
	if hasBudget && budget <= 0 {
		c.mu.Lock()
		c.metrics.BudgetRejects++
		c.mu.Unlock()
		return "", dualvdd.ErrBudgetExhausted
	}
	key, err := job.Key() // validates
	if err != nil {
		return "", err
	}
	group, err := job.GroupKey()
	if err != nil {
		return "", err
	}
	tenant := dualvdd.TenantFromContext(ctx)

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return "", dualvdd.ErrClosed
	}
	// Submission is idempotent on the job's content address while a matching
	// job is in flight: a retried POST whose first attempt landed (only the
	// response died in transit) is answered with the live job's ID. Checked
	// before admission, so the retry is not charged against the tenant's
	// quota or rate a second time.
	if prior, ok := c.inflight[key]; ok {
		c.metrics.SubmitDedups++
		c.mu.Unlock()
		return prior, nil
	}
	c.mu.Unlock()

	if err := c.admission.admit(tenant); err != nil {
		c.mu.Lock()
		c.metrics.AdmissionRejects++
		if c.metrics.TenantRejects == nil {
			c.metrics.TenantRejects = make(map[string]int64)
		}
		c.metrics.TenantRejects[tenant]++
		c.mu.Unlock()
		return "", err
	}

	// Like Local, the per-job context is detached from the Submit ctx but
	// bounded by the remaining end-to-end budget when one is set.
	var jctx context.Context
	var jcancel context.CancelFunc
	if hasBudget {
		//lint:ctx-ok documented detachment above: jobs outlive Submit, budget-bounded
		jctx, jcancel = context.WithTimeout(context.Background(), budget)
	} else {
		//lint:ctx-ok documented detachment above: jobs outlive Submit, Cancel/Close-bounded
		jctx, jcancel = context.WithCancel(context.Background())
	}
	j := &fleetJob{
		spec: job, key: key, group: group, tenant: tenant, budgeted: hasBudget,
		ctx: jctx, cancel: jcancel,
		update: make(chan struct{}),
		done:   make(chan struct{}),
	}

	// The cache lookup happens outside c.mu: a disk CAS does I/O and the
	// interface carries its own synchronization. Backend read errors count on
	// StoreErrors instead of vanishing into the miss count.
	entry, _, cacheErr := dualvdd.CacheGet(c.cache, key)
	if cacheErr != nil {
		c.mu.Lock()
		c.metrics.StoreErrors++
		c.mu.Unlock()
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		jcancel()
		c.admission.release(tenant)
		return "", dualvdd.ErrClosed
	}
	// Re-check under the lock that publishes in-flight jobs: a concurrent
	// twin may have won the race while the cache lookup ran unlocked.
	if prior, ok := c.inflight[key]; ok {
		c.metrics.SubmitDedups++
		c.mu.Unlock()
		jcancel()
		c.admission.release(tenant)
		return prior, nil
	}
	c.order++
	j.seq = c.order
	id := dualvdd.JobID(fmt.Sprintf("job-%06d-%s", j.seq, key[:8]))
	j.status = dualvdd.JobStatus{ID: id, State: dualvdd.JobQueued}
	c.jobs[id] = j
	if entry != nil {
		c.metrics.CacheHits++
		c.metrics.JobsDone++
		c.retire(j)
		c.mu.Unlock()
		c.admission.release(tenant)
		j.completeFromCache(entry)
		c.journalTerminal(j)
		return id, nil
	}
	c.metrics.CacheMisses++
	c.metrics.JobsQueued++
	c.metrics.PointsInFlight++
	if job.Config.NumRails() > 2 {
		c.metrics.MultiRailJobs++
	}
	c.inflight[key] = id
	c.mu.Unlock()

	c.wg.Add(1)
	go c.drive(j)
	return id, nil
}

// completeFromCache finishes a job with a cached result, replaying the same
// synthetic event history Local does.
func (j *fleetJob) completeFromCache(entry *dualvdd.CachedResult) {
	design := *entry.Design
	j.mu.Lock()
	j.status.State = dualvdd.JobDone
	j.status.Cached = true
	j.status.Design = &design
	j.status.Results = entry.Results
	j.events = append(j.events, dualvdd.EventMapped{
		Circuit: design.Name, Gates: design.Gates,
		MinDelay: design.MinDelay, Tspec: design.Tspec, OrgPower: design.OrgPower,
	})
	for _, res := range entry.Results {
		j.events = append(j.events, dualvdd.EventResult{Circuit: design.Name, Result: res})
	}
	j.bump()
	j.mu.Unlock()
	j.cancel()
	close(j.done)
}

// drive owns one job end to end: dispatch to the ring-chosen worker, relay
// its event stream, collect the result; when a worker dies mid-job, open its
// breaker and re-dispatch to the next eligible worker on the arc. Two bounds
// keep the loop finite: the re-dispatch budget quarantines a job whose every
// dispatch kills its worker (poison), and the dispatch patience bounds how
// long a job waits for any worker to become eligible before it is failed
// undeliverable — within the window a healed partition or a recovered
// worker picks it back up.
func (c *Coordinator) drive(j *fleetJob) {
	defer c.wg.Done()
	tried := map[string]bool{}
	lastErr := errors.New("no live workers")
	var patience time.Time // zero until the first no-worker moment
	for {
		if j.ctx.Err() != nil {
			c.finalize(j, dualvdd.JobCancelled, context.Canceled.Error())
			return
		}
		if j.attempts >= c.redispatchBudget {
			c.mu.Lock()
			c.metrics.QuarantinedJobs++
			c.mu.Unlock()
			c.finalize(j, dualvdd.JobFailed,
				fmt.Sprintf("%v (%d attempts, last: %v)", ErrJobPoisoned, j.attempts, lastErr))
			return
		}
		w := c.pickWorker(j.group, tried)
		if w == nil {
			if patience.IsZero() {
				//lint:wallclock-ok delivery patience window; scheduling only, never in results
				patience = time.Now().Add(c.patience)
			}
			//lint:wallclock-ok delivery patience window; scheduling only, never in results
			if !time.Now().Before(patience) {
				c.finalize(j, dualvdd.JobFailed, fmt.Sprintf("fleet: job undeliverable: %v", lastErr))
				return
			}
			// Wait for a recovery, then rebuild the candidate set: a tried
			// worker that has since recovered is a fresh candidate (the
			// attempts budget, not the tried set, is what bounds poison).
			wait := c.healthInterval / 2
			if wait < 10*time.Millisecond {
				wait = 10 * time.Millisecond
			}
			select {
			case <-j.ctx.Done():
			case <-c.stop:
				c.finalize(j, dualvdd.JobFailed, fmt.Sprintf("fleet: job undeliverable: %v", lastErr))
				return
			//lint:wallclock-ok recovery wait between delivery attempts; pacing only
			case <-time.After(wait):
			}
			tried = map[string]bool{}
			continue
		}
		patience = time.Time{}
		if len(tried) > 0 || j.attempts > 0 {
			c.mu.Lock()
			c.metrics.Redispatches++
			c.mu.Unlock()
		}
		done, err := c.runOn(w, j)
		if done {
			c.reportWorker(w, true)
			return
		}
		// The worker failed us mid-job: remember, open its breaker so new
		// work avoids it, count the attempt, and try the next worker on the
		// arc.
		lastErr = err
		tried[w.name] = true
		j.attempts++
		c.reportWorker(w, false)
	}
}

// runOn executes the job on one worker. It returns done=true when the job
// was finalized (any terminal outcome, including cancellation) and
// done=false with the error when the worker failed and the job should move
// on.
func (c *Coordinator) runOn(w *workerState, j *fleetJob) (bool, error) {
	cancelled := func() bool { return j.ctx.Err() != nil }

	// Forward the job's remaining end-to-end budget, shrunk by the per-hop
	// reserve: the worker sees what is left after this hop's overhead, and a
	// budget that dies in transit is rejected at the worker's admission
	// instead of computing a result nobody can collect.
	wctx := j.ctx
	if j.budgeted {
		if dl, ok := j.ctx.Deadline(); ok {
			//lint:wallclock-ok forwarding the wall-time budget seam; see dualvdd.WithJobBudget
			wctx = dualvdd.WithJobBudget(j.ctx, time.Until(dl)-c.hopBudget)
		}
	}

	rid, err := w.runner.Submit(wctx, j.spec)
	if err != nil {
		if cancelled() {
			c.finalize(j, dualvdd.JobCancelled, context.Canceled.Error())
			return true, nil
		}
		return false, err
	}
	j.markRunning(c)

	// Relay the worker's event stream onto the job's log. Re-dispatched jobs
	// recompute deterministically, so the replacement worker replays the
	// identical event prefix — the relayed counter skips what subscribers
	// already saw and delivery stays exactly-once across worker deaths.
	events, err := w.runner.Watch(j.ctx, rid)
	if err == nil {
		n := 0
		for ev := range events {
			n++
			if n <= j.relayed {
				continue
			}
			j.publish(ev)
			j.relayed++
		}
	}

	st, err := w.runner.Result(j.ctx, rid)
	if err != nil {
		if cancelled() {
			// Best-effort: stop the orphan on the worker.
			stopCtx, stopCancel := context.WithTimeout(context.Background(), time.Second)
			_ = w.runner.Cancel(stopCtx, rid)
			stopCancel()
			c.finalize(j, dualvdd.JobCancelled, context.Canceled.Error())
			return true, nil
		}
		return false, err
	}

	switch st.State {
	case dualvdd.JobDone:
		if err := dualvdd.CachePut(c.cache, &dualvdd.CachedResult{Key: j.key, Design: st.Design, Results: st.Results}); err != nil {
			c.mu.Lock()
			c.metrics.StoreErrors++
			c.mu.Unlock()
		}
		j.mu.Lock()
		j.status.Design = st.Design
		j.status.Results = st.Results
		j.status.Warm = st.Warm
		j.mu.Unlock()
		c.accountResults(st)
		c.finalize(j, dualvdd.JobDone, "")
		return true, nil
	case dualvdd.JobFailed:
		j.mu.Lock()
		j.status.Design = st.Design
		j.mu.Unlock()
		c.finalize(j, dualvdd.JobFailed, st.Error)
		return true, nil
	default: // cancelled on the worker
		if cancelled() {
			c.finalize(j, dualvdd.JobCancelled, context.Canceled.Error())
			return true, nil
		}
		// The worker cancelled a job we did not: it is draining. Move on.
		return false, fmt.Errorf("fleet: worker %s cancelled the job while draining", w.name)
	}
}

// accountResults adds an executed (non-cached) job's evaluation totals to
// the metrics. A result the worker itself served from cache adds nothing —
// no computation happened anywhere — which keeps the eval counters an
// honest proof of work done.
func (c *Coordinator) accountResults(st *dualvdd.JobStatus) {
	if st.Cached {
		return
	}
	c.mu.Lock()
	for _, r := range st.Results {
		c.metrics.STAEvals += r.STAEvals
		c.metrics.CandEvals += r.CandEvals
		c.metrics.SimNs += r.SimTime.Nanoseconds()
	}
	c.mu.Unlock()
}

// markRunning moves the job queued → running exactly once.
func (j *fleetJob) markRunning(c *Coordinator) {
	j.mu.Lock()
	if j.status.State != dualvdd.JobQueued {
		j.mu.Unlock()
		return
	}
	j.status.State = dualvdd.JobRunning
	j.bump()
	j.mu.Unlock()
	c.mu.Lock()
	c.metrics.JobsQueued--
	c.metrics.JobsRunning++
	c.mu.Unlock()
}

// finalize settles a finished job's gauges, retires it and releases its
// tenant admission slot, then publishes the terminal state and journals the
// record. Publishing last means a request made right after Result observes
// all of it (an identical resubmission hits the cache instead of deduping
// onto this job). It runs on the job's drive goroutine, the only writer of
// the job's state, so wasRunning cannot go stale.
func (c *Coordinator) finalize(j *fleetJob, state dualvdd.JobState, errMsg string) {
	j.mu.Lock()
	wasRunning := j.status.State == dualvdd.JobRunning
	j.mu.Unlock()

	c.mu.Lock()
	if wasRunning {
		c.metrics.JobsRunning--
	} else {
		c.metrics.JobsQueued--
	}
	c.metrics.PointsInFlight--
	switch state {
	case dualvdd.JobDone:
		c.metrics.JobsDone++
	case dualvdd.JobCancelled:
		c.metrics.JobsCancelled++
	default:
		c.metrics.JobsFailed++
	}
	c.retire(j)
	c.mu.Unlock()
	c.admission.release(j.tenant)

	j.mu.Lock()
	j.status.State = state
	j.status.Error = errMsg
	j.bump()
	j.mu.Unlock()
	j.cancel()
	close(j.done)
	c.journalTerminal(j)
}

// retire is Local's: it drops the in-flight entry, frees the inline BLIF and
// enters the job into the bounded history before the terminal state is
// published; caller holds c.mu.
func (c *Coordinator) retire(j *fleetJob) {
	if cur, ok := c.inflight[j.key]; ok && cur == j.status.ID {
		delete(c.inflight, j.key)
	}
	j.spec.BLIF = ""
	c.retired = append(c.retired, j.status.ID)
	for len(c.retired) > c.history {
		delete(c.jobs, c.retired[0])
		c.retired = c.retired[1:]
	}
}

// journalTerminal appends a published terminal job's record to the journal.
// Call without c.mu held, after the terminal state is published.
func (c *Coordinator) journalTerminal(j *fleetJob) {
	if c.journal == nil {
		return
	}
	if err := c.journal.Append(dualvdd.JobRecord{Seq: j.seq, Key: j.key, Status: *j.snapshot()}); err != nil {
		c.mu.Lock()
		c.metrics.StoreErrors++
		c.mu.Unlock()
	}
}

// replayJournal mirrors Local's: journaled terminal jobs become queryable
// history and the submission counter resumes past them.
//
//lint:unguarded-ok construction: called from New before the health loop starts
func (c *Coordinator) replayJournal() {
	type replayed struct {
		seq int64
		rec dualvdd.JobRecord
	}
	var recs []replayed
	err := c.journal.Replay(func(rec dualvdd.JobRecord) error {
		if rec.Status.ID == "" || !rec.Status.State.Terminal() {
			return nil
		}
		recs = append(recs, replayed{seq: rec.Seq, rec: rec})
		if rec.Seq > c.order {
			c.order = rec.Seq
		}
		return nil
	})
	if err != nil {
		c.metrics.StoreErrors++
	}
	if len(recs) > c.history {
		recs = recs[len(recs)-c.history:]
	}
	for _, r := range recs {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		j := &fleetJob{
			key: r.rec.Key, seq: r.seq,
			ctx: ctx, cancel: cancel,
			status: r.rec.Status,
			update: make(chan struct{}),
			done:   make(chan struct{}),
		}
		close(j.done)
		c.jobs[r.rec.Status.ID] = j
		c.retired = append(c.retired, r.rec.Status.ID)
	}
}

// bump wakes Watch subscribers; caller holds j.mu.
func (j *fleetJob) bump() {
	close(j.update)
	j.update = make(chan struct{})
}

// publish appends one event to the job's log.
func (j *fleetJob) publish(ev dualvdd.Event) {
	j.mu.Lock()
	j.events = append(j.events, ev)
	j.bump()
	j.mu.Unlock()
}

// snapshot copies the current status.
func (j *fleetJob) snapshot() *dualvdd.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.status
	return &st
}

// find looks a job up.
func (c *Coordinator) find(id dualvdd.JobID) (*fleetJob, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", dualvdd.ErrJobNotFound, id)
	}
	return j, nil
}

// Status reports the job without waiting. See dualvdd.Runner.
func (c *Coordinator) Status(ctx context.Context, id dualvdd.JobID) (*dualvdd.JobStatus, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	j, err := c.find(id)
	if err != nil {
		return nil, err
	}
	return j.snapshot(), nil
}

// Result blocks until the job is terminal. See dualvdd.Runner.
func (c *Coordinator) Result(ctx context.Context, id dualvdd.JobID) (*dualvdd.JobStatus, error) {
	j, err := c.find(id)
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

// Watch streams the job's relayed events: full replay, then live until
// terminal. See dualvdd.Runner.
func (c *Coordinator) Watch(ctx context.Context, id dualvdd.JobID) (<-chan dualvdd.Event, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	j, err := c.find(id)
	if err != nil {
		return nil, err
	}
	out := make(chan dualvdd.Event)
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
				continue
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

// Cancel stops a queued or running job by firing its context; the driver
// records the terminal state. See dualvdd.Runner.
func (c *Coordinator) Cancel(ctx context.Context, id dualvdd.JobID) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	j, err := c.find(id)
	if err != nil {
		return err
	}
	j.cancel()
	return nil
}

// Metrics returns the coordinator's counters snapshot, including the
// fleet-level gauges.
func (c *Coordinator) Metrics() dualvdd.Metrics {
	c.mu.Lock()
	m := c.metrics
	if m.TenantRejects != nil {
		m.TenantRejects = maps.Clone(m.TenantRejects)
	}
	m.WorkersLive, m.WorkersDead = 0, 0
	//lint:nondeterministic-ok commutative counting; the gauges are order-free
	for _, w := range c.workers {
		if w.state == breakerClosed {
			m.WorkersLive++
		} else {
			// Half-open counts as dead until its trial closes the breaker:
			// the gauge answers "how many workers would I trust right now".
			m.WorkersDead++
		}
	}
	c.mu.Unlock()
	m.CacheEntries = c.cache.Len()
	m.CacheBytes = c.cache.Bytes()
	if d, ok := c.cache.(interface{ Degraded() bool }); ok && d.Degraded() {
		m.StoreDegraded = 1
	}
	return m
}

// Workers reports the registered worker URLs and their current liveness
// (breaker closed).
func (c *Coordinator) Workers() map[string]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]bool, len(c.workers))
	//lint:nondeterministic-ok map-to-map projection; result is order-free
	for name, w := range c.workers {
		out[name] = w.state == breakerClosed
	}
	return out
}

// Close stops admission and the health loop, then waits for in-flight
// drivers. The ctx bounds the wait: on expiry every remaining job is
// cancelled and Close returns ctx.Err() after the drivers exit.
func (c *Coordinator) Close(ctx context.Context) error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.stop)
	}
	jobs := make([]*fleetJob, 0, len(c.jobs))
	//lint:nondeterministic-ok shutdown cancels every job; cancellation order is immaterial
	for _, j := range c.jobs {
		jobs = append(jobs, j)
	}
	c.mu.Unlock()
	idle := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(idle)
	}()
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
