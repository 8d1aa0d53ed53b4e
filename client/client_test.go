package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dualvdd"
	"dualvdd/client"
	"dualvdd/server"
)

// instantSleeper skips retry backoffs entirely (still honoring a dead
// context), so no test below waits out real wall-clock sleeps.
func instantSleeper(ctx context.Context, d time.Duration) error { return ctx.Err() }

// fastRetry is the deterministic test retry policy: the production backoff
// schedule with a seeded jitter and an instant sleeper. Tests assert on call
// counts, not on elapsed time.
func fastRetry(attempts int) []client.Option {
	return []client.Option{
		client.WithRetry(attempts, 100*time.Millisecond, 2*time.Second),
		client.WithJitterSeed(1),
		client.WithSleeper(instantSleeper),
	}
}

// testJob is a minimal valid submission.
func testJob() dualvdd.Job {
	return dualvdd.BenchmarkJob("x2")
}

// submitBody answers a POST /v1/jobs with a plausible job resource.
func submitBody(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"id":"job-1","state":"queued"}`)
}

// TestRetryAbsorbsFlakyServer is the retry contract against a server that
// fails the first attempts of every request with the transient statuses: the
// caller sees one successful call, not the flapping.
func TestRetryAbsorbsFlakyServer(t *testing.T) {
	for _, status := range []int{http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout} {
		var calls atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if calls.Add(1) <= 2 {
				http.Error(w, "flaky", status)
				return
			}
			submitBody(w)
		}))
		defer ts.Close()

		c, err := client.New(ts.URL, fastRetry(4)...)
		if err != nil {
			t.Fatal(err)
		}
		id, err := c.Submit(context.Background(), testJob())
		if err != nil {
			t.Fatalf("status %d: submit failed through retries: %v", status, err)
		}
		if id != "job-1" || calls.Load() != 3 {
			t.Fatalf("status %d: id %q after %d calls", status, id, calls.Load())
		}
	}
}

// TestRetryAbsorbsDroppedConnections covers the transport-level failures: a
// server that slams the connection shut (EOF to the client) twice before
// answering, and a server that doesn't exist yet (connection refused) for
// the first attempts.
func TestRetryAbsorbsDroppedConnections(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("no hijack support")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Fatal(err)
			}
			conn.Close() // mid-request slam: the client reads an EOF
			return
		}
		submitBody(w)
	}))
	defer ts.Close()

	c, err := client.New(ts.URL, fastRetry(4)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(context.Background(), testJob()); err != nil {
		t.Fatalf("submit failed through dropped connections: %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3", calls.Load())
	}

	// Connection refused: point at a dead listener. Every attempt fails the
	// same way; the call must still return (not hang) with a transport error.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close()
	c2, err := client.New(deadURL, fastRetry(3)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Health(context.Background()); err == nil {
		t.Fatal("health against a dead server succeeded")
	}
}

// TestNoRetryOnPermanentErrors pins the other half of the policy: 404, 429
// and 408 mean what they say and are returned on the first attempt, still
// mapped onto the Runner sentinels.
func TestNoRetryOnPermanentErrors(t *testing.T) {
	cases := []struct {
		status int
		want   error
	}{
		{http.StatusNotFound, dualvdd.ErrJobNotFound},
		{http.StatusTooManyRequests, dualvdd.ErrQueueFull},
		{http.StatusRequestTimeout, dualvdd.ErrBudgetExhausted},
	}
	for _, tc := range cases {
		var calls atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			calls.Add(1)
			http.Error(w, "nope", tc.status)
		}))
		defer ts.Close()
		c, err := client.New(ts.URL, fastRetry(4)...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Status(context.Background(), "x"); !errors.Is(err, tc.want) {
			t.Fatalf("status %d mapped to %v", tc.status, err)
		}
		if calls.Load() != 1 {
			t.Fatalf("status %d retried: %d calls", tc.status, calls.Load())
		}
	}
}

// TestRetryExhaustionKeepsSentinel asserts a 503 that never heals still
// satisfies errors.Is(err, ErrClosed) after the retry budget is spent — the
// transient wrapper must not eat the sentinel mapping.
func TestRetryExhaustionKeepsSentinel(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c, err := client.New(ts.URL, fastRetry(3)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(context.Background(), testJob()); !errors.Is(err, dualvdd.ErrClosed) {
		t.Fatalf("exhausted retries returned %v, want ErrClosed", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want exactly the retry budget 3", calls.Load())
	}
}

// TestRetryHonorsContext cancels the context while the client is inside a
// backoff sleep: the call must return promptly instead of finishing the
// retry schedule. The injected sleeper parks on the context exactly like the
// real one, without the real one's wall-clock risk.
func TestRetryHonorsContext(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "flaky", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sleeping := make(chan struct{}, 16)
	c, err := client.New(ts.URL,
		client.WithRetry(5, 2*time.Second, 8*time.Second),
		client.WithJitterSeed(1),
		client.WithSleeper(func(ctx context.Context, d time.Duration) error {
			sleeping <- struct{}{}
			<-ctx.Done() // a full-length sleep never outruns the caller
			return ctx.Err()
		}))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Health(ctx) }()
	<-sleeping // the first backoff is underway
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("health succeeded against a permanently flaky server")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled call never returned")
	}
}

// TestBackoffDeterministicWithSeed pins the jitter seam: two clients with
// the same seed sleep the identical backoff sequence against the identical
// failure pattern, every delay inside the [d/2, d] jitter envelope of the
// capped exponential schedule.
func TestBackoffDeterministicWithSeed(t *testing.T) {
	run := func(seed int64) []time.Duration {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "flaky", http.StatusServiceUnavailable)
		}))
		defer ts.Close()
		var mu sync.Mutex
		var slept []time.Duration
		c, err := client.New(ts.URL,
			client.WithRetry(5, 100*time.Millisecond, 2*time.Second),
			client.WithJitterSeed(seed),
			client.WithSleeper(func(ctx context.Context, d time.Duration) error {
				mu.Lock()
				slept = append(slept, d)
				mu.Unlock()
				return ctx.Err()
			}))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Health(context.Background()); err == nil {
			t.Fatal("health succeeded against a permanently flaky server")
		}
		return slept
	}
	a, b := run(42), run(42)
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("5 attempts slept %d and %d backoffs, want 4 each", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at backoff %d: %v != %v", i, a, b)
		}
		full := 100 * time.Millisecond << i
		if full > 2*time.Second {
			full = 2 * time.Second
		}
		if a[i] < full/2 || a[i] > full {
			t.Fatalf("backoff %d = %v outside jitter envelope [%v, %v]", i, a[i], full/2, full)
		}
	}
}

// sseFrames renders marshalled events as an SSE body with ids starting at
// the given index.
func sseFrames(t *testing.T, start int, events ...dualvdd.Event) string {
	t.Helper()
	var body string
	for i, ev := range events {
		b, err := dualvdd.MarshalEvent(ev)
		if err != nil {
			t.Fatal(err)
		}
		body += fmt.Sprintf("id: %d\ndata: %s\n\n", start+i, b)
	}
	return body
}

// withPoll answers status polls with a terminal job-1 and hands the event
// stream to sse; polls counts the former.
func withPoll(polls *atomic.Int64, sse http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			sse(w, r)
			return
		}
		polls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"id":"job-1","state":"done"}`)
	}
}

// resultPolls asserts that Result after a stream whose end frame carried
// `{}`, as an older server sends, polls the server once.
func resultPolls(t *testing.T, c *client.Client, polls *atomic.Int64) {
	t.Helper()
	st, err := c.Result(context.Background(), "job-1")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != dualvdd.JobDone || polls.Load() != 1 {
		t.Fatalf("Result after a {} end frame: state %s after %d polls, want done after 1", st.State, polls.Load())
	}
}

// TestWatchReconnectsWithLastEventID drops the SSE connection after two
// events; the client must reconnect carrying Last-Event-ID and the final
// channel must see every event exactly once, in order, ending cleanly on
// the explicit end frame.
func TestWatchReconnectsWithLastEventID(t *testing.T) {
	all := []dualvdd.Event{
		dualvdd.EventMapped{Circuit: "c", Gates: 10},
		dualvdd.EventMove{Circuit: "c", Algorithm: "cvs", Gate: 1},
		dualvdd.EventMove{Circuit: "c", Algorithm: "cvs", Gate: 2},
		dualvdd.EventRoundDone{Circuit: "c", Algorithm: "cvs", Round: 1},
	}
	var conns, polls atomic.Int64
	var resumedFrom atomic.Value
	ts := httptest.NewServer(withPoll(&polls, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		switch conns.Add(1) {
		case 1:
			// Two events, then the connection dies with no end frame.
			fmt.Fprint(w, sseFrames(t, 0, all[:2]...))
		default:
			resumedFrom.Store(r.Header.Get("Last-Event-ID"))
			fmt.Fprint(w, sseFrames(t, 2, all[2:]...))
			fmt.Fprint(w, "event: end\ndata: {}\n\n")
		}
	}))
	defer ts.Close()

	c, err := client.New(ts.URL, fastRetry(4)...)
	if err != nil {
		t.Fatal(err)
	}
	events, err := c.Watch(context.Background(), "job-1")
	if err != nil {
		t.Fatal(err)
	}
	var got []dualvdd.Event
	for ev := range events {
		got = append(got, ev)
	}
	if len(got) != len(all) {
		t.Fatalf("watch delivered %d events across the reconnect, want %d: %v", len(got), len(all), got)
	}
	for i := range all {
		if fmt.Sprintf("%#v", got[i]) != fmt.Sprintf("%#v", all[i]) {
			t.Fatalf("event %d diverged: %#v != %#v", i, got[i], all[i])
		}
	}
	if conns.Load() != 2 {
		t.Fatalf("server saw %d connections, want 2", conns.Load())
	}
	if cursor, _ := resumedFrom.Load().(string); cursor != "1" {
		t.Fatalf("reconnect carried Last-Event-ID %q, want \"1\"", cursor)
	}
	resultPolls(t, c, &polls)
}

// TestWatchEndsCleanlyWithoutReconnect: a stream closed by the end frame
// never triggers a reconnect, even though the connection also closed.
func TestWatchEndsCleanlyWithoutReconnect(t *testing.T) {
	var conns, polls atomic.Int64
	ts := httptest.NewServer(withPoll(&polls, func(w http.ResponseWriter, r *http.Request) {
		conns.Add(1)
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, sseFrames(t, 0, dualvdd.EventMapped{Circuit: "c"}))
		fmt.Fprint(w, "event: end\ndata: {}\n\n")
	}))
	defer ts.Close()
	c, err := client.New(ts.URL, fastRetry(4)...)
	if err != nil {
		t.Fatal(err)
	}
	events, err := c.Watch(context.Background(), "job-1")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range events {
		n++
	}
	if n != 1 || conns.Load() != 1 {
		t.Fatalf("clean stream: %d events over %d connections, want 1 over 1", n, conns.Load())
	}
	resultPolls(t, c, &polls)
}

// TestWatchGivesUpAfterRetryBudget: a server that drops every connection
// without progress closes the channel after the attempts are spent instead
// of reconnecting forever.
func TestWatchGivesUpAfterRetryBudget(t *testing.T) {
	var conns atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conns.Add(1)
		w.Header().Set("Content-Type", "text/event-stream")
		// Headers only; the stream dies with neither events nor end frame.
	}))
	defer ts.Close()
	c, err := client.New(ts.URL, fastRetry(3)...)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int)
	events, err := c.Watch(context.Background(), "job-1")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		n := 0
		for range events {
			n++
		}
		done <- n
	}()
	select {
	case n := <-done:
		if n != 0 {
			t.Fatalf("empty streams produced %d events", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watch never gave up on a permanently dropping server")
	}
	if got := conns.Load(); got < 2 || got > 3 {
		t.Fatalf("server saw %d connections, want a bounded handful (2-3)", got)
	}
}

// TestSubmitForwardsShrinkingBudget pins the budget wire contract: a
// WithJobBudget submission carries X-Dualvdd-Budget-Ms, the value shrinks
// across retry attempts as wall clock burns, and a spent budget fails fast
// with ErrBudgetExhausted before a request leaves.
func TestSubmitForwardsShrinkingBudget(t *testing.T) {
	var mu sync.Mutex
	var budgets []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		budgets = append(budgets, r.Header.Get("X-Dualvdd-Budget-Ms"))
		n := len(budgets)
		mu.Unlock()
		if n == 1 {
			http.Error(w, "flaky", http.StatusBadGateway)
			return
		}
		submitBody(w)
	}))
	defer ts.Close()
	c, err := client.New(ts.URL,
		client.WithRetry(3, time.Millisecond, time.Millisecond),
		client.WithJitterSeed(1)) // real (tiny) sleeps: the budget must shrink
	if err != nil {
		t.Fatal(err)
	}
	ctx := dualvdd.WithJobBudget(context.Background(), time.Minute)
	if _, err := c.Submit(ctx, testJob()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(budgets) != 2 || budgets[0] == "" || budgets[1] == "" {
		t.Fatalf("budget header missing across attempts: %q", budgets)
	}
	if budgets[1] > budgets[0] { // same width (both ~60000), string compare suffices
		t.Fatalf("budget grew across retries: %q then %q", budgets[0], budgets[1])
	}

	spent := dualvdd.WithJobBudget(context.Background(), -time.Second)
	if _, err := c.Submit(spent, testJob()); !errors.Is(err, dualvdd.ErrBudgetExhausted) {
		t.Fatalf("spent budget returned %v, want ErrBudgetExhausted", err)
	}
}

// countingTransport counts the requests a client sends.
type countingTransport struct{ n atomic.Int64 }

func (ct *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ct.n.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

// servedLocal serves a fresh Local over HTTP and returns it with a client
// whose requests are counted; cleanup is registered.
func servedLocal(t *testing.T, opts ...dualvdd.LocalOption) (*dualvdd.Local, *client.Client, *countingTransport) {
	t.Helper()
	local := dualvdd.NewLocal(opts...)
	ts := httptest.NewServer(server.New(local, server.WithRequestTimeout(5*time.Second)))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = local.Close(ctx)
	})
	ct := &countingTransport{}
	c, err := client.New(ts.URL, client.WithHTTPClient(&http.Client{Transport: ct}))
	if err != nil {
		t.Fatal(err)
	}
	return local, c, ct
}

// smallJob is a quick CVS job; seeds give distinct cache keys.
func smallJob(seed uint64) dualvdd.Job {
	return dualvdd.BenchmarkJob("x2", dualvdd.WithSimWords(32), dualvdd.WithSeed(seed),
		dualvdd.WithAlgorithms(dualvdd.AlgoCVS))
}

// run submits a job and waits for its result.
func run(t *testing.T, c *client.Client, job dualvdd.Job) (dualvdd.JobID, *dualvdd.JobStatus) {
	t.Helper()
	ctx := context.Background()
	id, err := c.Submit(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != dualvdd.JobDone {
		t.Fatalf("job %s ended %s: %s", id, st.State, st.Error)
	}
	return id, st
}

// sameAsStatus asserts that st encodes exactly as a fresh Status of its job.
func sameAsStatus(t *testing.T, c *client.Client, st *dualvdd.JobStatus) {
	t.Helper()
	fresh, err := c.Status(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("kept status differs from a fresh Status:\n got %s\nwant %s", got, want)
	}
}

// TestCacheHitCostsOneRequest: a cache hit is born done, Submit's answer
// carries its terminal status, and the Result that follows is answered from
// it, so the round trip is one request.
func TestCacheHitCostsOneRequest(t *testing.T) {
	_, c, ct := servedLocal(t)
	run(t, c, smallJob(1))
	before := ct.n.Load()
	_, st := run(t, c, smallJob(1))
	if n := ct.n.Load() - before; n != 1 {
		t.Fatalf("cache-hit Submit and Result sent %d requests, want 1", n)
	}
	if !st.Cached {
		t.Fatalf("resubmission not a cache hit: %+v", st)
	}
	sameAsStatus(t, c, st)
}

// TestWatchEndFrameAnswersResult: a stream read to its end frame leaves the
// terminal status behind, and Result sends no further request.
func TestWatchEndFrameAnswersResult(t *testing.T) {
	_, c, ct := servedLocal(t)
	ctx := context.Background()
	id, err := c.Submit(ctx, smallJob(2))
	if err != nil {
		t.Fatal(err)
	}
	events, err := c.Watch(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for range events {
		n++
	}
	if n == 0 {
		t.Fatal("watch delivered no events")
	}
	before := ct.n.Load()
	st, err := c.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if sent := ct.n.Load() - before; sent != 0 || st.State != dualvdd.JobDone || st.Cached {
		t.Fatalf("Result after the end frame: %d requests, state %s, cached %v; want 0, done, computed",
			sent, st.State, st.Cached)
	}
	sameAsStatus(t, c, st)
}

// TestKeptStatusTakenOnce: the first Result takes the kept status; a second
// asks the server.
func TestKeptStatusTakenOnce(t *testing.T) {
	_, c, ct := servedLocal(t)
	run(t, c, smallJob(3))
	id, _ := run(t, c, smallJob(3))
	before := ct.n.Load()
	st, err := c.Result(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if n := ct.n.Load() - before; n != 1 || st.State != dualvdd.JobDone {
		t.Fatalf("second Result: %d requests, state %s; want one poll, done", n, st.State)
	}
}

// TestKeptStatusEviction: past the bound the oldest kept status is dropped;
// its Result polls and still succeeds, and the next oldest is still kept.
func TestKeptStatusEviction(t *testing.T) {
	_, c, ct := servedLocal(t)
	ctx := context.Background()
	run(t, c, smallJob(4))
	ids := make([]dualvdd.JobID, client.KeptBound+1)
	for i := range ids {
		id, err := c.Submit(ctx, smallJob(4))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for i, want := range []int64{1, 0} {
		before := ct.n.Load()
		st, err := c.Result(ctx, ids[i])
		if err != nil {
			t.Fatal(err)
		}
		if n := ct.n.Load() - before; n != want || st.State != dualvdd.JobDone || st.ID != ids[i] {
			t.Fatalf("Result of kept entry %d: %d requests, %s %s; want %d, done", i, n, st.ID, st.State, want)
		}
	}
}

// TestResultHonorsContextWithKeptStatus: a dead ctx ends Result with its
// error even when a status is kept, and leaves the status kept.
func TestResultHonorsContextWithKeptStatus(t *testing.T) {
	_, c, ct := servedLocal(t)
	run(t, c, smallJob(5))
	id, err := c.Submit(context.Background(), smallJob(5))
	if err != nil {
		t.Fatal(err)
	}
	before := ct.n.Load()
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Result(dead, id); !errors.Is(err, context.Canceled) {
		t.Fatalf("Result on a cancelled ctx returned %v, want context.Canceled", err)
	}
	st, err := c.Result(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if n := ct.n.Load() - before; n != 0 || st.State != dualvdd.JobDone {
		t.Fatalf("Result after a cancelled one: %d requests, state %s; want 0, done", n, st.State)
	}
}

// TestKeptStatusConcurrent: goroutines submitting and collecting on one
// client, hits and misses mixed, all see their own job done.
func TestKeptStatusConcurrent(t *testing.T) {
	_, c, _ := servedLocal(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				id, err := c.Submit(ctx, smallJob(uint64(10+(g+i)%4)))
				if err == nil {
					var st *dualvdd.JobStatus
					if st, err = c.Result(ctx, id); err == nil && (st.ID != id || st.State != dualvdd.JobDone) {
						err = fmt.Errorf("job %s: got %s %s", id, st.ID, st.State)
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestKeptStatusOutlivesHistory pins the one difference from Local: once the
// server's history bound has retired a job, the client still answers its
// Result with the status it was sent, where Local (and Status) no longer
// know the job.
func TestKeptStatusOutlivesHistory(t *testing.T) {
	local, c, _ := servedLocal(t, dualvdd.LocalJobHistory(1))
	ctx := context.Background()
	run(t, c, smallJob(6))
	id, err := c.Submit(ctx, smallJob(6)) // a hit: born done, kept
	if err != nil {
		t.Fatal(err)
	}
	run(t, c, smallJob(7)) // retires the hit from the one-job history
	if _, err := local.Result(ctx, id); !errors.Is(err, dualvdd.ErrJobNotFound) {
		t.Fatalf("Local.Result of a retired job returned %v, want ErrJobNotFound", err)
	}
	if _, err := c.Status(ctx, id); !errors.Is(err, dualvdd.ErrJobNotFound) {
		t.Fatalf("Status of a retired job returned %v, want ErrJobNotFound", err)
	}
	st, err := c.Result(ctx, id)
	if err != nil {
		t.Fatalf("Result of a retired job with a kept status: %v", err)
	}
	if st.ID != id || st.State != dualvdd.JobDone || !st.Cached {
		t.Fatalf("kept status of the retired job: %+v", st)
	}
}
