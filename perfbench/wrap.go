package main

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"dualvdd"
	"dualvdd/client"
	"dualvdd/fleet"
)

// The wrappers below sit in the service stack's own injection seams during
// traced rounds. Each records spans and counts and forwards every call
// unchanged; each forwards every optional interface its wrapped value
// implements (FallibleCache, MetricsProvider, the degraded gauge), because
// the stack type-asserts for them and a lost interface would change the
// code path being measured.

// seamCounts are the traced round's counts that are not span counts.
type seamCounts struct {
	dispatches, healthProbes, workerCacheHits atomic.Int64
	casHits, storeErrors                      atomic.Int64
	retries, respBytes                        atomic.Int64
	queueDepth                                atomic.Int64 // peak Local queue depth seen
}

// tracedRunner wraps a Runner; side names its spans ("local" for a worker's
// Local, "coord" for the coordinator).
type tracedRunner struct {
	r    dualvdd.Runner
	tr   *tracer
	side string
	// afterSubmit and afterResult observe the wrapped runner's answers and
	// when the call returned.
	afterSubmit func(id dualvdd.JobID, end int64)
	afterResult func(st *dualvdd.JobStatus, end int64)
}

// metricsRunner is a tracedRunner over a runner that keeps service counters.
type metricsRunner struct {
	*tracedRunner
	mp dualvdd.MetricsProvider
}

func (m metricsRunner) Metrics() dualvdd.Metrics { return m.mp.Metrics() }

// wrapRunner wraps r, keeping MetricsProvider when r has it.
func wrapRunner(r dualvdd.Runner, t *tracedRunner) dualvdd.Runner {
	t.r = r
	if mp, ok := r.(dualvdd.MetricsProvider); ok {
		return metricsRunner{t, mp}
	}
	return t
}

func (t *tracedRunner) Submit(ctx context.Context, job dualvdd.Job) (dualvdd.JobID, error) {
	ctx, s := t.tr.begin(ctx, t.side+".submit", "")
	id, err := t.r.Submit(ctx, job)
	sp := s.end()
	if err == nil && t.afterSubmit != nil {
		t.afterSubmit(id, sp.End)
	}
	return id, err
}

func (t *tracedRunner) Status(ctx context.Context, id dualvdd.JobID) (*dualvdd.JobStatus, error) {
	ctx, s := t.tr.begin(ctx, t.side+".status", string(id))
	defer s.end()
	return t.r.Status(ctx, id)
}

func (t *tracedRunner) Watch(ctx context.Context, id dualvdd.JobID) (<-chan dualvdd.Event, error) {
	ctx, s := t.tr.begin(ctx, t.side+".watch", string(id))
	defer s.end()
	return t.r.Watch(ctx, id)
}

func (t *tracedRunner) Result(ctx context.Context, id dualvdd.JobID) (*dualvdd.JobStatus, error) {
	ctx, s := t.tr.begin(ctx, t.side+".result", string(id))
	st, err := t.r.Result(ctx, id)
	sp := s.end()
	if err == nil && t.afterResult != nil {
		t.afterResult(st, sp.End)
	}
	return st, err
}

func (t *tracedRunner) Cancel(ctx context.Context, id dualvdd.JobID) error {
	ctx, s := t.tr.begin(ctx, t.side+".cancel", string(id))
	defer s.end()
	return t.r.Cancel(ctx, id)
}

// residence records, per worker job, a local.job span from the worker's
// Submit returning to its Result returning: the job's queue wait,
// preparation and run. A result the worker computed rather than served from
// its cache adds its reported stage durations as children, closing the span.
type residence struct {
	tr        *tracer
	mu        sync.Mutex
	submitted map[dualvdd.JobID]int64
}

func newResidence(tr *tracer) *residence {
	return &residence{tr: tr, submitted: map[dualvdd.JobID]int64{}}
}

func (r *residence) submit(id dualvdd.JobID, end int64) {
	r.mu.Lock()
	if _, ok := r.submitted[id]; !ok {
		r.submitted[id] = end
	}
	r.mu.Unlock()
}

func (r *residence) result(st *dualvdd.JobStatus, end int64) {
	r.mu.Lock()
	start, ok := r.submitted[st.ID]
	delete(r.submitted, st.ID)
	r.mu.Unlock()
	if !ok {
		return
	}
	job := span{ID: r.tr.nextID.Add(1), Name: "local.job", Op: string(st.ID), Start: start, End: end}
	r.tr.add(job)
	if st.State != dualvdd.JobDone || st.Cached {
		return
	}
	at := end
	for i := len(st.Results) - 1; i >= 0; i-- {
		res := st.Results[i]
		if res.SimTime > 0 {
			r.tr.add(span{Parent: job.ID, Name: "sim", Op: job.Op, Start: at - int64(res.SimTime), End: at})
			at -= int64(res.SimTime)
		}
		r.tr.add(span{Parent: job.ID, Name: "core." + res.Algorithm, Op: job.Op, Start: at - int64(res.Runtime), End: at})
		at -= int64(res.Runtime)
	}
}

// tracedWorker wraps the coordinator's client for one worker.
type tracedWorker struct {
	w  fleet.WorkerClient
	tr *tracer
	n  *seamCounts
}

// tracedDialer dials workers the way the coordinator does by default, with
// the counting transport underneath and a tracedWorker on top.
func tracedDialer(tr *tracer, n *seamCounts) func(url string) (fleet.WorkerClient, error) {
	hc := &http.Client{Transport: &countingTransport{rt: http.DefaultTransport, tr: tr, n: n}}
	return func(url string) (fleet.WorkerClient, error) {
		c, err := client.New(url, client.WithRetry(3, workerRetryBase, workerRetryMax), client.WithHTTPClient(hc))
		if err != nil {
			return nil, err
		}
		return &tracedWorker{w: c, tr: tr, n: n}, nil
	}
}

func (t *tracedWorker) Submit(ctx context.Context, job dualvdd.Job) (dualvdd.JobID, error) {
	t.n.dispatches.Add(1)
	ctx, s := t.tr.begin(ctx, "fleet.dispatch", "")
	defer s.end()
	return t.w.Submit(ctx, job)
}

func (t *tracedWorker) Status(ctx context.Context, id dualvdd.JobID) (*dualvdd.JobStatus, error) {
	ctx, s := t.tr.begin(ctx, "fleet.dispatch", string(id))
	defer s.end()
	return t.w.Status(ctx, id)
}

func (t *tracedWorker) Watch(ctx context.Context, id dualvdd.JobID) (<-chan dualvdd.Event, error) {
	ctx, s := t.tr.begin(ctx, "fleet.dispatch", string(id))
	defer s.end()
	return t.w.Watch(ctx, id)
}

func (t *tracedWorker) Result(ctx context.Context, id dualvdd.JobID) (*dualvdd.JobStatus, error) {
	ctx, s := t.tr.begin(ctx, "fleet.dispatch", string(id))
	st, err := t.w.Result(ctx, id)
	s.end()
	if err == nil && st.Cached {
		t.n.workerCacheHits.Add(1)
	}
	return st, err
}

func (t *tracedWorker) Cancel(ctx context.Context, id dualvdd.JobID) error {
	ctx, s := t.tr.begin(ctx, "fleet.dispatch", string(id))
	defer s.end()
	return t.w.Cancel(ctx, id)
}

func (t *tracedWorker) Health(ctx context.Context) error {
	t.n.healthProbes.Add(1)
	return t.w.Health(ctx)
}

// tracedCache wraps a ResultCache. The cache API takes no context, so its
// spans are roots.
type tracedCache struct {
	c  dualvdd.ResultCache
	tr *tracer
	n  *seamCounts
}

func (t *tracedCache) Get(key string) (*dualvdd.CachedResult, bool) {
	_, s := t.tr.begin(context.Background(), "store.cas_get", key)
	res, ok := t.c.Get(key)
	s.end()
	if ok {
		t.n.casHits.Add(1)
	}
	return res, ok
}

func (t *tracedCache) Put(res *dualvdd.CachedResult) {
	_, s := t.tr.begin(context.Background(), "store.cas_put", res.Key)
	t.c.Put(res)
	s.end()
}

func (t *tracedCache) Len() int     { return t.c.Len() }
func (t *tracedCache) Bytes() int64 { return t.c.Bytes() }
func (t *tracedCache) Close() error { return t.c.Close() }

// fallibleCache adds the error-surfacing variants of a FallibleCache.
type fallibleCache struct{ *tracedCache }

func (t fallibleCache) GetErr(key string) (*dualvdd.CachedResult, bool, error) {
	_, s := t.tr.begin(context.Background(), "store.cas_get", key)
	res, ok, err := t.c.(dualvdd.FallibleCache).GetErr(key)
	s.end()
	if ok {
		t.n.casHits.Add(1)
	}
	if err != nil {
		t.n.storeErrors.Add(1)
	}
	return res, ok, err
}

func (t fallibleCache) PutErr(res *dualvdd.CachedResult) error {
	_, s := t.tr.begin(context.Background(), "store.cas_put", res.Key)
	err := t.c.(dualvdd.FallibleCache).PutErr(res)
	s.end()
	if err != nil {
		t.n.storeErrors.Add(1)
	}
	return err
}

// degrader is the gauge the runners read off a degrading cache.
type degrader interface{ Degraded() bool }

type degradingCache struct{ *tracedCache }

func (t degradingCache) Degraded() bool { return t.c.(degrader).Degraded() }

type fallibleDegradingCache struct{ fallibleCache }

func (t fallibleDegradingCache) Degraded() bool { return t.c.(degrader).Degraded() }

// wrapCache wraps c, keeping FallibleCache and the degraded gauge when c has
// them.
func wrapCache(c dualvdd.ResultCache, tr *tracer, n *seamCounts) dualvdd.ResultCache {
	t := &tracedCache{c: c, tr: tr, n: n}
	_, fallible := c.(dualvdd.FallibleCache)
	_, degrading := c.(degrader)
	switch {
	case fallible && degrading:
		return fallibleDegradingCache{fallibleCache{t}}
	case fallible:
		return fallibleCache{t}
	case degrading:
		return degradingCache{t}
	}
	return t
}

// tracedJournal wraps a JobStore.
type tracedJournal struct {
	s  dualvdd.JobStore
	tr *tracer
	n  *seamCounts
}

func (t *tracedJournal) Append(rec dualvdd.JobRecord) error {
	_, s := t.tr.begin(context.Background(), "store.journal_append", rec.Key)
	err := t.s.Append(rec)
	s.end()
	if err != nil {
		t.n.storeErrors.Add(1)
	}
	return err
}

func (t *tracedJournal) Replay(fn func(rec dualvdd.JobRecord) error) error { return t.s.Replay(fn) }
func (t *tracedJournal) Close() error                                      { return t.s.Close() }

// tracedHandler wraps a server's handler. Its span nests under the client
// hop that sent the request; event streams, which stay open for as long as
// the job runs, are spans of their own name.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	name := "http.server"
	if strings.HasSuffix(r.URL.Path, "/events") {
		name = "http.stream"
	}
	ctx, s := t.tr.beginUnder(r.Context(), parent, name, "")
	t.h.ServeHTTP(w, r.WithContext(ctx))
	s.end()
}

// countingTransport times every round trip, tells the server which hop a
// request came from, and counts failed attempts and response bytes.
type countingTransport struct {
	rt http.RoundTripper
	tr *tracer
	n  *seamCounts
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx, s := t.tr.begin(req.Context(), "http.hop", "")
	req = req.Clone(ctx)
	req.Header.Set(spanHeader, strconv.FormatInt(s.id(), 10))
	resp, err := t.rt.RoundTrip(req)
	s.end()
	if err != nil || resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
		t.n.retries.Add(1)
	}
	if resp != nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.n.respBytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	k, err := b.ReadCloser.Read(p)
	b.n.Add(int64(k))
	return k, err
}
