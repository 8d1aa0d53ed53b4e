// Package client implements the dualvdd.Runner interface over HTTP against
// a server started from the server package (or `dualvdd serve`). Because
// both sides marshal through the wire schema in internal/report and the
// stable JSON encodings of the root types, a job submitted here returns
// FlowResults bit-identical to a local run — switching a program between
// in-process and remote execution is one constructor swap:
//
//	var runner dualvdd.Runner = dualvdd.NewLocal()          // in-process
//	runner, err := client.New("http://host:8080")           // remote
//	id, err := runner.Submit(ctx, dualvdd.BenchmarkJob("C880"))
//
// The client absorbs transient infrastructure failures so callers see the
// Runner contract, not the network: requests that die of a dropped
// connection, a refused connect, or a 502/503/504 are retried with capped
// exponential backoff and jitter, and a Watch stream that loses its
// connection mid-job reconnects with Last-Event-ID and resumes exactly
// where it left off. Only an explicit `event: end` frame from the server
// closes a Watch channel as "complete".
//
// A settled job costs one round trip, not two: when a response already
// carried the job's terminal status — the submission answer of a cache hit,
// which is born done, or the end frame of its event stream — the client
// keeps it, and the next Result for that ID is answered from it without a
// request. Status always asks the server.
package client

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dualvdd"
	"dualvdd/internal/report"
)

// retryPolicy bounds the client's response to transient failure: up to
// attempts tries per logical call, sleeping base<<n capped at max between
// them, with jitter so a fleet of clients does not reconnect in lockstep.
type retryPolicy struct {
	attempts int
	base     time.Duration
	max      time.Duration
}

var defaultRetry = retryPolicy{attempts: 4, base: 100 * time.Millisecond, max: 2 * time.Second}

// keptBound is how many terminal statuses a client keeps for Result. An
// entry lives from the response that carried it to the Result that takes
// it, which usually follows at once; past the bound the oldest is dropped
// and its Result polls the server like any other.
const keptBound = 256

// Client is an HTTP-backed Runner.
type Client struct {
	base  *url.URL
	http  *http.Client
	retry retryPolicy
	sleep func(ctx context.Context, d time.Duration) error

	rngMu sync.Mutex
	rng   *rand.Rand // backoff jitter; per-client so it can be seeded

	keptMu sync.Mutex
	kept   map[dualvdd.JobID]*dualvdd.JobStatus // guarded by keptMu; terminal statuses a response carried, until Result takes them
	ring   [keptBound]dualvdd.JobID             // guarded by keptMu; the IDs kept, in arrival order
	next   int                                  // guarded by keptMu; the ring slot the next kept status takes, evicting its holder
}

// Option configures New.
type Option func(*Client)

// WithHTTPClient swaps the underlying http.Client (timeouts, transports,
// test doubles). The default is a plain &http.Client{} — watch and wait
// calls are long-lived, so no client-wide timeout is set; bound them per
// call with the context.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) {
		if hc != nil {
			c.http = hc
		}
	}
}

// WithRetry tunes the transient-failure policy: attempts tries per call
// (1 disables retries), sleeping base, 2*base, 4*base ... capped at max
// between tries. Non-positive arguments keep the defaults (4 attempts,
// 100ms base, 2s cap).
func WithRetry(attempts int, base, max time.Duration) Option {
	return func(c *Client) {
		if attempts > 0 {
			c.retry.attempts = attempts
		}
		if base > 0 {
			c.retry.base = base
		}
		if max > 0 {
			c.retry.max = max
		}
	}
}

// WithJitterSeed makes the backoff jitter deterministic: two clients with
// the same seed, retry policy and failure pattern sleep the same sequence of
// backoffs. The default jitter is seeded from the clock — deterministic
// jitter across a real fleet would defeat its purpose (de-synchronizing
// reconnect storms); the option exists for tests and reproducible chaos
// schedules.
func WithJitterSeed(seed int64) Option {
	return func(c *Client) { c.rng = rand.New(rand.NewSource(seed)) }
}

// WithSleeper swaps how the retry loops wait between attempts. The default
// sleeps on the real clock, returning early with the context error when ctx
// dies first. Tests inject an instant (or recording) sleeper so retry
// behavior is asserted without real wall-clock time passing.
func WithSleeper(sleep func(ctx context.Context, d time.Duration) error) Option {
	return func(c *Client) {
		if sleep != nil {
			c.sleep = sleep
		}
	}
}

// New builds a client for a server base URL like "http://127.0.0.1:8080".
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: bad base URL: %w", err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q needs a scheme and host", baseURL)
	}
	c := &Client{base: u, http: &http.Client{}, retry: defaultRetry, sleep: sleepCtx,
		kept: make(map[dualvdd.JobID]*dualvdd.JobStatus)}
	for _, opt := range opts {
		opt(c)
	}
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return c, nil
}

var _ dualvdd.Runner = (*Client)(nil)

// BaseURL returns the server base URL the client was built against.
func (c *Client) BaseURL() string { return c.base.String() }

// endpoint joins the base URL with a path and optional query.
func (c *Client) endpoint(path, query string) string {
	u := *c.base
	u.Path = strings.TrimRight(u.Path, "/") + path
	u.RawQuery = query
	return u.String()
}

// transientStatusError wraps the API error of a 502/503/504 response so the
// retry loop can recognize it; Unwrap keeps the Runner sentinel mapping
// (errors.Is(err, dualvdd.ErrClosed) still holds after retries exhaust).
type transientStatusError struct{ err error }

func (e transientStatusError) Error() string { return e.err.Error() }
func (e transientStatusError) Unwrap() error { return e.err }

// transientError reports whether a failed request is worth retrying: the
// infrastructure hiccups that heal on their own. Context cancellation and
// deadline are the caller's word and never retried.
func transientError(err error) bool {
	switch {
	case err == nil,
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return false
	case errors.As(err, &transientStatusError{}),
		errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, syscall.ECONNREFUSED),
		errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.EPIPE):
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	// http.Client wraps every transport-level failure in *url.Error; by the
	// cases above it is not a context error, so the connection itself broke.
	var ue *url.Error
	return errors.As(err, &ue)
}

// backoff returns the sleep before retry attempt n (0-based): base<<n capped
// at max, then jittered to [d/2, d] so synchronized clients fan out.
func (c *Client) backoff(n int) time.Duration {
	d := c.retry.base
	for i := 0; i < n && d < c.retry.max; i++ {
		d *= 2
	}
	if d > c.retry.max {
		d = c.retry.max
	}
	c.rngMu.Lock()
	j := c.rng.Int63n(int64(d/2) + 1)
	c.rngMu.Unlock()
	return d/2 + time.Duration(j)
}

// sleepCtx sleeps d or returns early with the context error.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// keep holds a status a response carried for the next Result of its job, if
// it is terminal; a job already kept keeps its first copy (terminal
// statuses never change). A new entry takes the next ring slot and evicts
// the entry kept there keptBound entries ago, if Result has not taken it.
// (A job kept again after Result took it may lose its new entry to its old
// slot early; that Result polls.)
func (c *Client) keep(st *dualvdd.JobStatus) {
	if st.ID == "" || !st.State.Terminal() {
		return
	}
	c.keptMu.Lock()
	defer c.keptMu.Unlock()
	if _, ok := c.kept[st.ID]; ok {
		return
	}
	delete(c.kept, c.ring[c.next])
	c.ring[c.next] = st.ID
	c.kept[st.ID] = st
	c.next = (c.next + 1) % keptBound
}

// take removes and returns the kept status of a job, if there is one.
func (c *Client) take(id dualvdd.JobID) (*dualvdd.JobStatus, bool) {
	c.keptMu.Lock()
	defer c.keptMu.Unlock()
	st, ok := c.kept[id]
	delete(c.kept, id)
	return st, ok
}

// apiError converts a non-2xx response into an error, mapping the status
// codes the server emits back onto the Runner sentinels so errors.Is holds
// across the wire.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var er report.ErrorResponse
	msg := strings.TrimSpace(string(body))
	if err := report.DecodeJSON(bytes.NewReader(body), &er); err == nil && er.Error != "" {
		msg = er.Error
	}
	switch resp.StatusCode {
	case http.StatusNotFound:
		return fmt.Errorf("%w (%s)", dualvdd.ErrJobNotFound, msg)
	case http.StatusTooManyRequests:
		return fmt.Errorf("%w (%s)", dualvdd.ErrQueueFull, msg)
	case http.StatusRequestTimeout:
		// The deadline budget died in transit; retrying cannot refill it.
		return fmt.Errorf("%w (%s)", dualvdd.ErrBudgetExhausted, msg)
	case http.StatusServiceUnavailable:
		return transientStatusError{fmt.Errorf("%w (%s)", dualvdd.ErrClosed, msg)}
	case http.StatusBadGateway, http.StatusGatewayTimeout:
		return transientStatusError{fmt.Errorf("client: server returned %s: %s", resp.Status, msg)}
	}
	return fmt.Errorf("client: server returned %s: %s", resp.Status, msg)
}

// doOnce performs one request attempt. The body is a byte slice, not a
// Reader, precisely so the retry loop can replay it.
func (c *Client) doOnce(ctx context.Context, method, url string, body []byte, tenant string, out any) error {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, r)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", report.ContentTypeJSON)
	}
	if tenant != "" {
		req.Header.Set(report.TenantHeader, tenant)
	}
	// The remaining deadline budget is re-read per attempt, so a submission
	// that burned time in retries forwards only what is left — the budget
	// shrinks across hops and retries alike. An already-spent budget fails
	// fast with the same sentinel the server would answer with.
	if budget, ok := dualvdd.JobBudget(ctx); ok {
		if budget <= 0 {
			return fmt.Errorf("%w (spent before the request left)", dualvdd.ErrBudgetExhausted)
		}
		req.Header.Set(report.BudgetHeader, strconv.FormatInt(budget.Milliseconds(), 10))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return apiError(resp)
	}
	if out == nil {
		return nil
	}
	return report.DecodeJSON(resp.Body, out)
}

// withRetry runs try under the retry policy: it stops on success, on an
// error that is not transient, or when the attempts are spent, and otherwise
// sleeps backoff(attempt) before trying again. The last error is returned,
// also when ctx dies during a sleep.
func (c *Client) withRetry(ctx context.Context, try func() error) error {
	for attempt := 0; ; attempt++ {
		err := try()
		if err == nil || attempt+1 >= c.retry.attempts || !transientError(err) {
			return err
		}
		if c.sleep(ctx, c.backoff(attempt)) != nil {
			return err
		}
	}
}

// doJSON performs a request with the retry policy and decodes a JSON body
// into out. Submissions are safe to replay: jobs are content-addressed, so a
// retried POST whose first attempt actually landed is answered from the
// server's result cache, not recomputed.
func (c *Client) doJSON(ctx context.Context, method, url string, body []byte, tenant string, out any) error {
	return c.withRetry(ctx, func() error { return c.doOnce(ctx, method, url, body, tenant, out) })
}

// Submit posts the job and returns the server-assigned ID. A tenant tag set
// with dualvdd.WithTenant travels along as a header so a fleet coordinator
// behind the server applies its per-tenant admission policy. The answer is
// the job resource; when it is already terminal (a cache hit) it is kept
// for Result. See dualvdd.Runner.
func (c *Client) Submit(ctx context.Context, job dualvdd.Job) (dualvdd.JobID, error) {
	if err := job.Validate(); err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, report.RequestFromJob(job)); err != nil {
		return "", err
	}
	var res report.JobResource
	tenant := dualvdd.TenantFromContext(ctx)
	if err := c.doJSON(ctx, http.MethodPost, c.endpoint(report.JobsPath, ""), buf.Bytes(), tenant, &res); err != nil {
		return "", err
	}
	c.keep(&res)
	return res.ID, nil
}

// Status fetches the job resource without waiting. It always asks the
// server, and leaves any status kept for Result in place. See
// dualvdd.Runner.
func (c *Client) Status(ctx context.Context, id dualvdd.JobID) (*dualvdd.JobStatus, error) {
	var res report.JobResource
	url := c.endpoint(report.JobsPath+"/"+string(id), "")
	if err := c.doJSON(ctx, http.MethodGet, url, nil, "", &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Result returns the job's terminal status. When a response already carried
// it (Submit's answer for a cache hit, or the end frame of a Watch stream)
// the first Result for the job takes that kept copy and sends no request;
// the copy outlives the server's own history bound, so a job the server has
// since forgotten still answers. Otherwise Result polls ?wait=1 until the
// job is terminal: the server holds each request up to its request timeout,
// so the loop usually takes one round trip. See dualvdd.Runner.
func (c *Client) Result(ctx context.Context, id dualvdd.JobID) (*dualvdd.JobStatus, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if st, ok := c.take(id); ok {
		return st, nil
	}
	url := c.endpoint(report.JobsPath+"/"+string(id), "wait=1")
	for {
		var res report.JobResource
		if err := c.doJSON(ctx, http.MethodGet, url, nil, "", &res); err != nil {
			return nil, err
		}
		if res.State.Terminal() {
			return &res, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
}

// Cancel stops the job. See dualvdd.Runner.
func (c *Client) Cancel(ctx context.Context, id dualvdd.JobID) error {
	return c.doJSON(ctx, http.MethodDelete, c.endpoint(report.JobsPath+"/"+string(id), ""), nil, "", nil)
}

// openEvents connects (with the retry policy) to the job's SSE stream,
// claiming everything past lastSeen via Last-Event-ID; -1 asks for the full
// history.
func (c *Client) openEvents(ctx context.Context, id dualvdd.JobID, lastSeen int) (*http.Response, error) {
	url := c.endpoint(report.JobsPath+"/"+string(id)+"/events", "")
	var resp *http.Response
	err := c.withRetry(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		req.Header.Set("Accept", report.ContentTypeSSE)
		if lastSeen >= 0 {
			req.Header.Set("Last-Event-ID", strconv.Itoa(lastSeen))
		}
		r, err := c.http.Do(req)
		if err != nil {
			return err
		}
		if r.StatusCode != http.StatusOK {
			defer r.Body.Close()
			return apiError(r)
		}
		resp = r
		return nil
	})
	return resp, err
}

// consumeEvents decodes SSE frames from one connection into out, advancing
// *lastSeen past every delivered event. It returns done=true when the stream
// is over for good — the server sent its end-of-stream frame, a frame failed
// to decode, or ctx died — and done=false when the connection simply
// dropped and a reconnect should resume from *lastSeen. The end frame's
// data is the job's terminal status, kept for Result; an older server's
// `{}` keeps nothing.
func (c *Client) consumeEvents(ctx context.Context, body io.ReadCloser, lastSeen *int, out chan<- dualvdd.Event) (done bool) {
	defer body.Close()
	scanner := bufio.NewScanner(body)
	scanner.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var data []byte
	var eventName string
	frameID := -1
	flush := func() (more bool) {
		defer func() { data, eventName, frameID = nil, "", -1 }()
		if eventName == report.EndEventName {
			var st report.JobResource
			if report.DecodeJSON(bytes.NewReader(data), &st) == nil {
				c.keep(&st)
			}
			done = true
			return false
		}
		if len(data) == 0 {
			return true
		}
		ev, err := dualvdd.UnmarshalEvent(data)
		if err != nil {
			done = true // a malformed frame ends the stream, never a replay loop
			return false
		}
		select {
		case out <- ev:
			if frameID >= 0 {
				*lastSeen = frameID
			} else {
				*lastSeen++
			}
			return true
		case <-ctx.Done():
			done = true
			return false
		}
	}
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case line == "": // frame boundary
			if !flush() {
				return done
			}
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")...)
		case strings.HasPrefix(line, "id:"):
			if n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "id:"))); err == nil {
				frameID = n
			}
		case strings.HasPrefix(line, "event:"):
			eventName = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		default:
			// Per SSE, unknown fields and comments are ignored.
		}
	}
	flush()
	return done || ctx.Err() != nil
}

// Watch consumes the job's SSE stream, decoding each frame back into the
// typed event it left the server as. A dropped connection is not the end of
// the stream: the client reconnects with Last-Event-ID and resumes after
// the last event it delivered, so the channel sees every event exactly once
// across any number of reconnects. The channel closes when the server sends
// its end-of-stream frame (terminal job), ctx is done, or reconnection
// attempts are exhausted — per the Runner contract, a closed channel means
// the stream is over, not that the job finished; confirm the outcome with
// Result or Status. The end frame carries the terminal status, so a Result
// after a stream that ended on it sends no request. See dualvdd.Runner.
func (c *Client) Watch(ctx context.Context, id dualvdd.JobID) (<-chan dualvdd.Event, error) {
	resp, err := c.openEvents(ctx, id, -1)
	if err != nil {
		return nil, err
	}
	out := make(chan dualvdd.Event)
	go func() {
		defer close(out)
		lastSeen := -1
		failures := 0
		for {
			before := lastSeen
			if c.consumeEvents(ctx, resp.Body, &lastSeen, out) {
				return
			}
			if lastSeen > before {
				failures = 0 // the connection made progress before dropping
			}
			failures++
			if failures >= c.retry.attempts {
				return
			}
			if c.sleep(ctx, c.backoff(failures-1)) != nil {
				return
			}
			next, err := c.openEvents(ctx, id, lastSeen)
			if err != nil {
				return // openEvents already retried transient failures
			}
			resp = next
		}
	}()
	return out, nil
}

// Benchmarks fetches the server's benchmark list (sorted, stable).
func (c *Client) Benchmarks(ctx context.Context) ([]string, error) {
	var res report.BenchmarksResponse
	if err := c.doJSON(ctx, http.MethodGet, c.endpoint(report.BenchmarksPath, ""), nil, "", &res); err != nil {
		return nil, err
	}
	return res.Benchmarks, nil
}

// Metrics fetches the server's counters snapshot.
func (c *Client) Metrics(ctx context.Context) (dualvdd.Metrics, error) {
	var m report.MetricsResponse
	err := c.doJSON(ctx, http.MethodGet, c.endpoint(report.MetricsPath, ""), nil, "", &m)
	return m, err
}

// Health probes /healthz.
func (c *Client) Health(ctx context.Context) error {
	var h report.HealthResponse
	if err := c.doJSON(ctx, http.MethodGet, c.endpoint(report.HealthPath, ""), nil, "", &h); err != nil {
		return err
	}
	if h.Status != "ok" {
		return fmt.Errorf("client: server unhealthy: %q", h.Status)
	}
	return nil
}
