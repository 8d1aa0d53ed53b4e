package server_test

import (
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dualvdd"
	"dualvdd/client"
	"dualvdd/server"
)

// newPair starts a Local runner behind an httptest server and returns the
// runner, a connected client, and a cleanup-registered context.
func newPair(t *testing.T, opts ...dualvdd.LocalOption) (*dualvdd.Local, *client.Client) {
	t.Helper()
	local := dualvdd.NewLocal(opts...)
	ts := httptest.NewServer(server.New(local, server.WithRequestTimeout(5*time.Second)))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = local.Close(ctx)
	})
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return local, c
}

// sameResult asserts every deterministic FlowResult field matches to the
// bit; wall clocks and the local-only Circuit are excluded.
func sameResult(t *testing.T, label string, got, want *dualvdd.FlowResult) {
	t.Helper()
	if got.Algorithm != want.Algorithm || got.Gates != want.Gates ||
		got.LowGates != want.LowGates || got.LCs != want.LCs || got.Sized != want.Sized ||
		got.STAEvals != want.STAEvals || got.CandEvals != want.CandEvals {
		t.Fatalf("%s: counters differ:\n got %+v\nwant %+v", label, got, want)
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"Power", got.Power, want.Power},
		{"ImprovePct", got.ImprovePct, want.ImprovePct},
		{"LowRatio", got.LowRatio, want.LowRatio},
		{"AreaIncrease", got.AreaIncrease, want.AreaIncrease},
		{"WorstSlack", got.WorstSlack, want.WorstSlack},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Fatalf("%s: %s differs across the wire: %v vs %v", label, f.name, f.got, f.want)
		}
	}
}

// TestEndToEndBitIdenticalAndCached is the acceptance test of the tentpole:
// for three MCNC circuits, a job submitted through the HTTP client returns
// FlowResult rows bit-identical to a local Flow run with the same seed and
// options, and resubmitting the identical job is answered from the cache —
// the hit counter increments and the sim/STA eval totals stay frozen.
func TestEndToEndBitIdenticalAndCached(t *testing.T) {
	ctx := context.Background()
	local, c := newPair(t, dualvdd.LocalWorkers(2))

	for _, bench := range []string{"x2", "mux", "z4ml"} {
		opts := []dualvdd.Option{dualvdd.WithSeed(1)}
		job := dualvdd.BenchmarkJob(bench, opts...)

		id, err := c.Submit(ctx, job)
		if err != nil {
			t.Fatalf("%s: submit: %v", bench, err)
		}
		remote, err := c.Result(ctx, id)
		if err != nil {
			t.Fatalf("%s: result: %v", bench, err)
		}
		if remote.State != dualvdd.JobDone {
			t.Fatalf("%s: job ended %s: %s", bench, remote.State, remote.Error)
		}
		if remote.Cached {
			t.Fatalf("%s: first submission claims a cache hit", bench)
		}

		flow := dualvdd.New(opts...)
		d, err := flow.PrepareBenchmark(ctx, bench)
		if err != nil {
			t.Fatal(err)
		}
		want, err := flow.Run(ctx, d)
		if err != nil {
			t.Fatal(err)
		}
		if len(remote.Results) != len(want) {
			t.Fatalf("%s: remote %d results, local %d", bench, len(remote.Results), len(want))
		}
		for i := range want {
			sameResult(t, bench+"/"+want[i].Algorithm, remote.Results[i], want[i])
		}
		if remote.Design == nil || remote.Design.Name != bench ||
			math.Float64bits(remote.Design.OrgPower) != math.Float64bits(d.OrgPower) {
			t.Fatalf("%s: design info drifted: %+v", bench, remote.Design)
		}

		// Resubmit the identical job: answered from the cache without
		// recomputation.
		before := local.Metrics()
		id2, err := c.Submit(ctx, job)
		if err != nil {
			t.Fatal(err)
		}
		cached, err := c.Result(ctx, id2)
		if err != nil {
			t.Fatal(err)
		}
		if cached.State != dualvdd.JobDone || !cached.Cached {
			t.Fatalf("%s: resubmission state %s cached %v", bench, cached.State, cached.Cached)
		}
		for i := range want {
			sameResult(t, bench+"/cached/"+want[i].Algorithm, cached.Results[i], want[i])
		}
		after := local.Metrics()
		if after.CacheHits != before.CacheHits+1 {
			t.Fatalf("%s: cache hits %d → %d, want +1", bench, before.CacheHits, after.CacheHits)
		}
		if after.STAEvals != before.STAEvals || after.CandEvals != before.CandEvals ||
			after.SimNs != before.SimNs {
			t.Fatalf("%s: cache hit recomputed: before %+v after %+v", bench, before, after)
		}
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsDone != 6 || m.CacheHits != 3 || m.CacheMisses != 3 {
		t.Fatalf("metrics over the wire: %+v", m)
	}
}

func TestEndToEndEventStream(t *testing.T) {
	ctx := context.Background()
	_, c := newPair(t)

	id, err := c.Submit(ctx, dualvdd.BenchmarkJob("b9"))
	if err != nil {
		t.Fatal(err)
	}
	events, err := c.Watch(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	first, last := "", ""
	for ev := range events {
		kind := dualvdd.EventKind(ev)
		if first == "" {
			first = kind
		}
		last = kind
		counts[kind]++
	}
	if first != dualvdd.EventKindMapped {
		t.Fatalf("stream opened with %q, want mapped", first)
	}
	if last != dualvdd.EventKindResult || counts[dualvdd.EventKindResult] != 3 {
		t.Fatalf("stream ended %q with %d results, want 3: %v", last, counts[dualvdd.EventKindResult], counts)
	}
	if counts[dualvdd.EventKindMove] == 0 || counts[dualvdd.EventKindRoundDone] == 0 {
		t.Fatalf("no per-move/per-round progress crossed the wire: %v", counts)
	}
	// The result events carry the same rows the job resource reports.
	st, err := c.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Results) != 3 {
		t.Fatalf("job resource has %d results", len(st.Results))
	}
}

func TestBenchmarksEndpointSortedStable(t *testing.T) {
	ctx := context.Background()
	_, c := newPair(t)
	got, err := c.Benchmarks(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, dualvdd.Benchmarks()) {
		t.Fatalf("server benchmark list diverges from dualvdd.Benchmarks():\n%v", got)
	}
	if len(got) != 39 {
		t.Fatalf("benchmark list has %d entries, want 39", len(got))
	}
}

func TestErrorMappingAcrossTheWire(t *testing.T) {
	ctx := context.Background()
	_, c := newPair(t)

	if _, err := c.Status(ctx, "nonesuch"); !errors.Is(err, dualvdd.ErrJobNotFound) {
		t.Fatalf("unknown id returned %v, want ErrJobNotFound", err)
	}
	if err := c.Cancel(ctx, "nonesuch"); !errors.Is(err, dualvdd.ErrJobNotFound) {
		t.Fatalf("cancel unknown id returned %v, want ErrJobNotFound", err)
	}
	if _, err := c.Watch(ctx, "nonesuch"); !errors.Is(err, dualvdd.ErrJobNotFound) {
		t.Fatalf("watch unknown id returned %v, want ErrJobNotFound", err)
	}
	if _, err := c.Submit(ctx, dualvdd.BenchmarkJob("nonesuch")); err == nil {
		t.Fatal("unknown benchmark accepted over the wire")
	}
	if _, err := c.Submit(ctx, dualvdd.Job{Config: dualvdd.DefaultConfig()}); err == nil {
		t.Fatal("empty job accepted over the wire")
	}
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSweepOverHTTP runs the same Sweep twice, once through the Local runner
// and once through the HTTP client against it: the Runner abstraction must
// make the two executions bit-identical, the per-job progress events must
// cross the wire as SSE, and re-running the sweep remotely must be answered
// entirely from the server-side cache.
func TestSweepOverHTTP(t *testing.T) {
	ctx := context.Background()
	local, c := newPair(t, dualvdd.LocalWorkers(2))

	base := dualvdd.DefaultConfig()
	base.SimWords = 32
	sweep := dualvdd.Sweep{
		Circuits:   dualvdd.SweepBenchmarks("x2", "mux"),
		Base:       base,
		Algorithms: []dualvdd.Algorithm{dualvdd.AlgoCVS, dualvdd.AlgoGscale},
		Axes:       dualvdd.Axes{VDDL: []float64{4.3, 3.9}},
	}

	// Reference: the sweep straight on the Local runner. Its points land in
	// the shared cache, so the remote sweep below must come back cached —
	// proving the wire and in-process paths share one content address.
	wantRes, err := sweep.Run(ctx, local)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	counts := map[string]int{}
	before := local.Metrics()
	gotRes, err := sweep.Run(ctx, c,
		dualvdd.SweepObserver(func(ev dualvdd.Event) {
			mu.Lock()
			counts[dualvdd.EventKind(ev)]++
			mu.Unlock()
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	after := local.Metrics()
	if len(gotRes) != len(wantRes) {
		t.Fatalf("remote sweep returned %d points, local %d", len(gotRes), len(wantRes))
	}
	for i := range wantRes {
		if !gotRes[i].Status.Cached {
			t.Fatalf("remote point %d missed the cache the local sweep filled", i)
		}
		if len(gotRes[i].Status.Results) != len(wantRes[i].Status.Results) {
			t.Fatalf("point %d: result count drifted over the wire", i)
		}
		for k, want := range wantRes[i].Status.Results {
			sameResult(t, "sweep point", gotRes[i].Status.Results[k], want)
		}
	}
	if after.STAEvals != before.STAEvals || after.CandEvals != before.CandEvals || after.SimNs != before.SimNs {
		t.Fatalf("cached remote sweep recomputed: before %+v after %+v", before, after)
	}
	if hits := after.CacheHits - before.CacheHits; hits != int64(len(wantRes)) {
		t.Fatalf("remote sweep hit the cache %d times, want %d", hits, len(wantRes))
	}
	// The sweep's own events fired.
	if counts[dualvdd.EventKindSweepPoint] != len(wantRes) || counts[dualvdd.EventKindSweepDone] != 1 {
		t.Fatalf("sweep events: %v", counts)
	}

	// A degenerate axis never reaches the wire: expansion validates every
	// point before the first submission.
	badSweep := sweep
	badSweep.Axes.VDDL = []float64{5.5}
	if _, err := badSweep.Run(ctx, c); !errors.Is(err, dualvdd.ErrInvalidConfig) {
		t.Fatalf("degenerate sweep returned %v, want ErrInvalidConfig", err)
	}
}

// TestServerRejectsDegenerateConfig bypasses the client's local validation
// with a raw POST, proving the server side also refuses a config that would
// produce NaN power numbers.
func TestServerRejectsDegenerateConfig(t *testing.T) {
	_, c := newPair(t)
	body := `{"benchmark":"x2","config":{"vhigh":5,"vlow":6,"slack_factor":1.2,` +
		`"max_area_increase":0.1,"max_iter":10,"sim_words":256,"seed":1,"fclk_hz":20000000}}`
	resp, err := http.Post(c.BaseURL()+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("degenerate config got HTTP %d, want 400", resp.StatusCode)
	}
	b, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(b), "invalid config: vlow") {
		t.Fatalf("error body lost the documented shape: %s", b)
	}
}

func TestCancelOverHTTP(t *testing.T) {
	ctx := context.Background()
	_, c := newPair(t)

	id, err := c.Submit(ctx, dualvdd.BenchmarkJob("des", dualvdd.WithSimWords(4096)))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(ctx, id); err != nil {
		t.Fatal(err)
	}
	st, err := c.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != dualvdd.JobCancelled {
		t.Fatalf("cancelled job ended %s (%s)", st.State, st.Error)
	}
}

// TestMetricsFormats pins the /metricsz content negotiation: JSON by default,
// the Prometheus text exposition under ?format=prom, and a 400 for anything
// else. The exact bytes of both encodings are pinned by the golden tests in
// internal/report; here we check the endpoint serves them.
func TestMetricsFormats(t *testing.T) {
	ctx := context.Background()
	_, c := newPair(t)
	if _, err := c.Submit(ctx, dualvdd.BenchmarkJob("x2")); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(c.BaseURL() + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("default metrics content type %q", ct)
	}

	resp, err = http.Get(c.BaseURL() + "/metricsz?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prom format got HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("prom content type %q", ct)
	}
	b, _ := io.ReadAll(resp.Body)
	for _, series := range []string{"# TYPE dualvdd_jobs_done_total counter", "dualvdd_cache_misses_total"} {
		if !strings.Contains(string(b), series) {
			t.Fatalf("prom exposition missing %q:\n%s", series, b)
		}
	}

	resp, err = http.Get(c.BaseURL() + "/metricsz?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown format got HTTP %d, want 400", resp.StatusCode)
	}
}

// readSSE slurps one raw SSE response into (ids, end-marker-seen).
func readSSE(t *testing.T, url, lastEventID string) (ids []string, ended bool) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events got HTTP %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if id, ok := strings.CutPrefix(line, "id: "); ok {
			ids = append(ids, id)
		}
		if line == "event: end" {
			ended = true
		}
	}
	return ids, ended
}

// TestEventStreamResume pins the SSE resume protocol on the wire: every data
// frame carries a monotonically increasing id, a finished stream is closed by
// an explicit `event: end` frame, and a reconnect with Last-Event-ID replays
// only the events past the cursor — the server half of Watch's reconnect.
func TestEventStreamResume(t *testing.T) {
	ctx := context.Background()
	_, c := newPair(t)

	id, err := c.Submit(ctx, dualvdd.BenchmarkJob("x2"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Result(ctx, id); err != nil {
		t.Fatal(err)
	}

	url := c.BaseURL() + "/v1/jobs/" + string(id) + "/events"
	ids, ended := readSSE(t, url, "")
	if len(ids) < 3 {
		t.Fatalf("terminal job replayed only %d events", len(ids))
	}
	if !ended {
		t.Fatal("finished stream carried no end-of-stream marker")
	}
	for i, got := range ids {
		if want := strconv.Itoa(i); got != want {
			t.Fatalf("frame %d has id %q", i, got)
		}
	}

	// Reconnect claiming all but the last two events: exactly two replayed,
	// with their original ids.
	cursor := strconv.Itoa(len(ids) - 3)
	tail, ended := readSSE(t, url, cursor)
	if !ended {
		t.Fatal("resumed stream carried no end-of-stream marker")
	}
	if len(tail) != 2 || tail[0] != strconv.Itoa(len(ids)-2) || tail[1] != strconv.Itoa(len(ids)-1) {
		t.Fatalf("resume from %s replayed ids %v", cursor, tail)
	}

	// A malformed cursor degrades to a full replay, never an error.
	all, _ := readSSE(t, url, "not-a-number")
	if len(all) != len(ids) {
		t.Fatalf("malformed cursor replayed %d of %d events", len(all), len(ids))
	}
}
