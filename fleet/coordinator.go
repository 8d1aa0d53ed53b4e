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
// construction: the previous life's jobs stay queryable and ID allocation
// resumes past them. The caller owns the store's lifecycle.
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

// Coordinator shards jobs across a worker fleet. It implements
// dualvdd.Runner and dualvdd.MetricsProvider, so server.New(coordinator)
// puts the standard HTTP surface in front of a whole fleet and Sweep.Run
// drives it like any other runner. It drives the JobTable Local drives and
// adds admission, the ring, the breakers and dispatch.
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
	table     *dualvdd.JobTable

	mu      sync.Mutex
	ring    *ring                   // guarded by mu
	workers map[string]*workerState // guarded by mu

	wg   sync.WaitGroup
	stop chan struct{} // closed by Close; ends the health loop and pacing waits
	idle chan struct{} // closed once the health loop and every driver exited after Close
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
		workers:          make(map[string]*workerState),
		stop:             make(chan struct{}),
		idle:             make(chan struct{}),
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
	c.table = dualvdd.NewJobTable(c.cache, c.journal, c.history, dualvdd.JobHooks{
		Admit: c.admission.admit, Release: c.admission.release, Start: c.start,
	})
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

// releaseTrial hands back a half-open trial slot the attempt claimed but did
// not use, leaving the breaker where it was.
func (c *Coordinator) releaseTrial(w *workerState) {
	c.mu.Lock()
	w.trial = false
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
	return c.table.Submit(ctx, job)
}

// start is the table's Start hook: one driver per cache-miss job, added
// under the table's lock so none is added once Close waits for them.
func (c *Coordinator) start(j *dualvdd.JobEntry) error {
	c.wg.Add(1)
	go c.drive(j)
	return nil
}

// hop is how one dispatch attempt ended.
type hop int

const (
	hopServed hop = iota // the job is finished; the worker served it
	hopEnded             // the job is finished, and the worker had no part in it
	hopBusy              // the worker's queue is full; the job stays queued
	hopFailed            // the worker failed us mid-job
)

var cancelled = dualvdd.Outcome{State: dualvdd.JobCancelled, Error: context.Canceled.Error()}

// failed is a failure outcome with the given message.
func failed(msg string) dualvdd.Outcome {
	return dualvdd.Outcome{State: dualvdd.JobFailed, Error: msg}
}

// drive owns one job end to end: dispatch to the ring-chosen worker, relay
// its event stream, collect the result; when a worker dies mid-job, open its
// breaker and re-dispatch to the next eligible worker on the arc. Two bounds
// keep the loop finite: the re-dispatch budget quarantines a job whose every
// dispatch kills its worker (poison), and the dispatch patience bounds how
// long a job waits for any worker to become eligible before it is failed
// undeliverable — within the window a healed partition or a recovered
// worker picks it back up. A worker whose queue is full is busy, not dead:
// the job waits one pacing interval and is offered to it again.
func (c *Coordinator) drive(j *dualvdd.JobEntry) {
	defer c.wg.Done()
	ctx := j.Context()
	group := j.Group()
	tried := map[string]bool{}
	lastErr := errors.New("no live workers")
	var patience time.Time // zero until the first no-worker moment
	attempts, relayed := 0, 0
	for {
		if ctx.Err() != nil {
			c.table.Finish(j, cancelled)
			return
		}
		if attempts >= c.redispatchBudget {
			c.table.Count(func(m *dualvdd.Metrics) { m.QuarantinedJobs++ })
			c.table.Finish(j, failed(fmt.Sprintf("%v (%d attempts, last: %v)", ErrJobPoisoned, attempts, lastErr)))
			return
		}
		w := c.pickWorker(group, tried)
		if w == nil {
			if patience.IsZero() {
				//lint:wallclock-ok delivery patience window; scheduling only, never in results
				patience = time.Now().Add(c.patience)
			}
			// Rebuild the candidate set for after the wait: a tried worker
			// that has since recovered is a fresh candidate (the attempts
			// budget, not the tried set, is what bounds poison).
			tried = map[string]bool{}
		} else {
			patience = time.Time{}
			if len(tried) > 0 || attempts > 0 {
				c.table.Count(func(m *dualvdd.Metrics) { m.Redispatches++ })
			}
			h, err := c.runOn(w, j, &relayed)
			switch h {
			case hopServed:
				c.reportWorker(w, true)
				return
			case hopEnded:
				c.releaseTrial(w)
				return
			case hopFailed:
				// The worker failed us mid-job: remember, open its breaker
				// so new work avoids it, count the attempt, and try the
				// next worker on the arc.
				lastErr = err
				tried[w.name] = true
				attempts++
				c.reportWorker(w, false)
				continue
			}
			// Busy: backpressure from a live worker. Its breaker, the
			// attempts budget and the patience clock are left alone; the
			// job stays queued for the same placement after one wait.
			c.releaseTrial(w)
			lastErr = err
		}
		if !c.pace(ctx, patience) {
			c.table.Finish(j, failed(fmt.Sprintf("fleet: job undeliverable: %v", lastErr)))
			return
		}
	}
}

// pace waits out one pacing interval between placement attempts: half the
// health interval (at least 10ms), capped at what is left of the patience
// window ending at deadline — the whole window while its clock is not
// running. False means the window is spent or Close interrupted the wait; a
// fired job context ends the wait early for the caller's loop to settle.
func (c *Coordinator) pace(ctx context.Context, deadline time.Time) bool {
	left := c.patience
	if !deadline.IsZero() {
		//lint:wallclock-ok delivery patience window; scheduling only, never in results
		if left = time.Until(deadline); left <= 0 {
			return false
		}
	}
	select {
	case <-ctx.Done():
		return true
	case <-c.stop:
		return false
	//lint:wallclock-ok recovery wait between delivery attempts; pacing only
	case <-time.After(max(min(c.healthInterval/2, left), 10*time.Millisecond)):
		return true
	}
}

// runOn executes the job on one worker and reports how the attempt ended.
func (c *Coordinator) runOn(w *workerState, j *dualvdd.JobEntry, relayed *int) (hop, error) {
	ctx := j.Context()
	fired := func() bool { return ctx.Err() != nil }

	// Forward the job's remaining end-to-end budget, shrunk by the per-hop
	// reserve: the worker sees what is left after this hop's overhead, and a
	// budget that dies in transit is rejected at the worker's admission
	// instead of computing a result nobody can collect.
	wctx := ctx
	if dl, ok := ctx.Deadline(); ok {
		//lint:wallclock-ok forwarding the wall-time budget seam; see dualvdd.WithJobBudget
		wctx = dualvdd.WithJobBudget(ctx, time.Until(dl)-c.hopBudget)
	}

	rid, err := w.runner.Submit(wctx, j.Spec())
	switch {
	case err == nil:
	case fired():
		c.table.Finish(j, cancelled)
		return hopServed, nil
	case errors.Is(err, dualvdd.ErrBudgetExhausted):
		// The job's budget is spent, whether the client failed fast or the
		// worker answered 408: the job ends cancelled, as a Local job whose
		// budget runs out does, and the worker is not to blame.
		c.table.Finish(j, dualvdd.Outcome{State: dualvdd.JobCancelled, Error: err.Error()})
		return hopEnded, nil
	case errors.Is(err, dualvdd.ErrQueueFull):
		return hopBusy, err
	default:
		return hopFailed, err
	}
	c.table.Begin(j)

	// Relay the worker's event stream onto the job's log. Re-dispatched jobs
	// recompute deterministically, so the replacement worker replays the
	// identical event prefix — the relayed counter skips what subscribers
	// already saw and delivery stays exactly-once across worker deaths.
	events, err := w.runner.Watch(ctx, rid)
	if err == nil {
		n := 0
		for ev := range events {
			n++
			if n <= *relayed {
				continue
			}
			j.Publish(ev)
			*relayed++
		}
	}

	st, err := w.runner.Result(ctx, rid)
	if err != nil {
		if fired() {
			// Best-effort: stop the orphan on the worker.
			stopCtx, stopCancel := context.WithTimeout(context.Background(), time.Second)
			_ = w.runner.Cancel(stopCtx, rid)
			stopCancel()
			c.table.Finish(j, cancelled)
			return hopServed, nil
		}
		return hopFailed, err
	}

	switch st.State {
	case dualvdd.JobDone:
		// A result the worker itself served from its cache adds nothing to
		// the eval counters: no computation happened anywhere.
		c.table.Finish(j, dualvdd.Outcome{State: dualvdd.JobDone, Design: st.Design,
			Results: st.Results, Computed: !st.Cached})
		return hopServed, nil
	case dualvdd.JobFailed:
		c.table.Finish(j, dualvdd.Outcome{State: dualvdd.JobFailed, Error: st.Error, Design: st.Design})
		return hopServed, nil
	default: // cancelled on the worker
		if fired() {
			c.table.Finish(j, cancelled)
			return hopServed, nil
		}
		// The worker's copy of the budget, shrunk by the hop reserve,
		// expires before ours: that is the budget running out, not the
		// worker, so the job ends cancelled and the breaker is left alone.
		if left, ok := dualvdd.JobBudget(wctx); ok && left <= 0 {
			c.table.Finish(j, dualvdd.Outcome{State: dualvdd.JobCancelled,
				Error: fmt.Sprintf("%v on worker %s", dualvdd.ErrBudgetExhausted, w.name)})
			return hopEnded, nil
		}
		// The worker cancelled a job we did not: it is draining. Move on.
		return hopFailed, fmt.Errorf("fleet: worker %s cancelled the job while draining", w.name)
	}
}

// Status reports the job without waiting. See dualvdd.Runner.
func (c *Coordinator) Status(ctx context.Context, id dualvdd.JobID) (*dualvdd.JobStatus, error) {
	return c.table.Status(ctx, id)
}

// Result blocks until the job is terminal. See dualvdd.Runner.
func (c *Coordinator) Result(ctx context.Context, id dualvdd.JobID) (*dualvdd.JobStatus, error) {
	return c.table.Result(ctx, id)
}

// Watch streams the job's relayed events: full replay, then live until
// terminal. See dualvdd.Runner.
func (c *Coordinator) Watch(ctx context.Context, id dualvdd.JobID) (<-chan dualvdd.Event, error) {
	return c.table.Watch(ctx, id)
}

// Cancel stops a queued or running job; a queued one frees its tenant slot
// at once. See dualvdd.Runner.
func (c *Coordinator) Cancel(ctx context.Context, id dualvdd.JobID) error {
	return c.table.Cancel(ctx, id)
}

// Metrics returns the coordinator's counters snapshot, including the
// fleet-level gauges.
func (c *Coordinator) Metrics() dualvdd.Metrics {
	m := c.table.Metrics()
	m.PointsInFlight = m.JobsQueued + m.JobsRunning
	c.mu.Lock()
	defer c.mu.Unlock()
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
	return m
}

// Close stops admission and the health loop, then waits for in-flight
// drivers. The ctx bounds the wait: on expiry every remaining job is
// cancelled and Close returns ctx.Err() after the drivers exit.
func (c *Coordinator) Close(ctx context.Context) error {
	return c.table.Close(ctx, func() {
		close(c.stop)
		go func() {
			c.wg.Wait()
			close(c.idle)
		}()
	}, c.idle)
}
