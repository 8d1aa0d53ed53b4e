package chaos

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"dualvdd"
)

// TestSourceDeterminism pins the reproducibility contract: equal seeds yield
// equal decision sequences, and a disabled fault (p 0 or 1) consumes no
// randomness, so turning one injector off cannot shift another's schedule.
func TestSourceDeterminism(t *testing.T) {
	draw := func(s *Source) []bool {
		out := make([]bool, 64)
		for i := range out {
			// Interleave no-op rolls: they must not consume the stream.
			s.Roll(0)
			s.Roll(1)
			out[i] = s.Roll(0.5)
		}
		return out
	}
	a, b := draw(NewSource(7)), draw(NewSource(7))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := draw(NewSource(8))
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical 64-draw sequences")
	}
}

// TestForkDeterminism: forks are deterministic in (seed, fork order, label)
// and distinct labels give distinct streams.
func TestForkDeterminism(t *testing.T) {
	seq := func(s *Source) []int {
		out := make([]int, 32)
		for i := range out {
			out[i] = s.Intn(1000)
		}
		return out
	}
	a := seq(NewSource(3).Fork("worker:1"))
	b := seq(NewSource(3).Fork("worker:1"))
	c := seq(NewSource(3).Fork("worker:2"))
	diff := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same fork label diverged at draw %d", i)
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("distinct fork labels produced identical streams")
	}
}

func testEntry(key string) *dualvdd.CachedResult {
	return &dualvdd.CachedResult{
		Key:     key,
		Design:  &dualvdd.DesignInfo{Name: "t", Gates: 1},
		Results: []*dualvdd.FlowResult{{Algorithm: "CVS", Power: 1}},
	}
}

// TestCacheInjection: p=1 faults fire on every op, are counted, and surface
// as errors on the fallible interface but clean misses on the swallowing one.
func TestCacheInjection(t *testing.T) {
	inner := dualvdd.NewMemoryCache(8)
	c := NewCache(inner, NewSource(1), StoreFaults{PGetErr: 1, PPutErr: 1})
	if err := c.PutErr(testEntry("k")); !errors.Is(err, ErrInjectedWrite) {
		t.Fatalf("PutErr = %v, want ErrInjectedWrite", err)
	}
	if _, _, err := c.GetErr("k"); !errors.Is(err, ErrInjectedRead) {
		t.Fatalf("GetErr = %v, want ErrInjectedRead", err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("faulted Get reported a hit")
	}
	c.Put(testEntry("k"))
	if inner.Len() != 0 {
		t.Fatal("a faulted Put still reached the inner cache")
	}
	if c.InjectedPutErrors() != 2 || c.InjectedGetErrors() != 2 {
		t.Fatalf("counters: %d put / %d get faults, want 2/2",
			c.InjectedPutErrors(), c.InjectedGetErrors())
	}

	// Faults off: a clean passthrough.
	ok := NewCache(inner, NewSource(1), StoreFaults{})
	if err := ok.PutErr(testEntry("k")); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := ok.GetErr("k"); err != nil || !hit {
		t.Fatalf("clean passthrough: hit=%v err=%v", hit, err)
	}
}

// TestJournalInjection: append faults are injected, counted, and lose the
// record; replay passes through untouched.
func TestJournalInjection(t *testing.T) {
	inner := dualvdd.NewMemoryJournal()
	j := NewJournal(inner, NewSource(1), StoreFaults{PAppendErr: 1})
	rec := dualvdd.JobRecord{Seq: 1, Key: "k", Status: dualvdd.JobStatus{ID: "job-1", State: dualvdd.JobDone}}
	if err := j.Append(rec); !errors.Is(err, ErrInjectedWrite) {
		t.Fatalf("Append = %v, want ErrInjectedWrite", err)
	}
	if j.InjectedAppendErrors() != 1 {
		t.Fatalf("append fault not counted: %d", j.InjectedAppendErrors())
	}
	n := 0
	if err := j.Replay(func(dualvdd.JobRecord) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("faulted append reached the journal: %d records", n)
	}
}

// stubTransport answers every request with a 200 and a fixed body.
type stubTransport struct{ calls int }

func (s *stubTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s.calls++
	return &http.Response{
		StatusCode: http.StatusOK,
		Body:       io.NopCloser(bytes.NewReader(make([]byte, 256))),
		Request:    req,
	}, nil
}

// TestTransportPartitionWindows pins the request-count partition schedule:
// with Every=3, Length=2, requests 4–5, 9–10, … are dropped and everything
// else passes — fully deterministic, no randomness involved.
func TestTransportPartitionWindows(t *testing.T) {
	stub := &stubTransport{}
	tr := NewTransport(stub, NewSource(1), TransportFaults{PartitionEvery: 3, PartitionLength: 2})
	req, _ := http.NewRequest(http.MethodGet, "http://worker/healthz", nil)
	var pattern []bool
	for i := 0; i < 10; i++ {
		resp, err := tr.RoundTrip(req)
		if err != nil && !errors.Is(err, ErrInjectedDrop) {
			t.Fatalf("request %d: %v", i+1, err)
		}
		if resp != nil {
			resp.Body.Close()
		}
		pattern = append(pattern, err == nil)
	}
	want := []bool{true, true, true, false, false, true, true, true, false, false}
	for i := range want {
		if pattern[i] != want[i] {
			t.Fatalf("partition pattern %v, want %v", pattern, want)
		}
	}
	if tr.Injected() != 4 || stub.calls != 6 {
		t.Fatalf("injected %d drops over %d delivered calls, want 4 over 6", tr.Injected(), stub.calls)
	}
}

// TestTransportReset: an injected reset passes the first bytes, then fails
// the body read with ECONNRESET — the mid-response peer reset.
func TestTransportReset(t *testing.T) {
	tr := NewTransport(&stubTransport{}, NewSource(1), TransportFaults{PReset: 1})
	req, _ := http.NewRequest(http.MethodGet, "http://worker/v1/jobs/x/events", nil)
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("body read ended with %v after %d bytes, want ECONNRESET", err, n)
	}
	if n == 0 || n >= 256 {
		t.Fatalf("reset cut after %d bytes, want a partial body", n)
	}
}

// TestTransport5xx: an injected 502 is synthesized without touching the
// inner transport.
func TestTransport5xx(t *testing.T) {
	stub := &stubTransport{}
	tr := NewTransport(stub, NewSource(1), TransportFaults{P5xx: 1})
	req, _ := http.NewRequest(http.MethodGet, "http://worker/healthz", nil)
	resp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway || stub.calls != 0 {
		t.Fatalf("status %d after %d inner calls, want 502 after 0", resp.StatusCode, stub.calls)
	}
}

// stubRunner is a healthy in-memory worker double: the embedded nil Runner
// covers the methods the test never calls.
type stubRunner struct{ dualvdd.Runner }

func (stubRunner) Submit(ctx context.Context, job dualvdd.Job) (dualvdd.JobID, error) {
	return "job-1", nil
}
func (stubRunner) Health(ctx context.Context) error { return nil }

// TestWorkerCrashAndRecovery: a crash takes the worker down for DownFor
// calls — health probes included — then it recovers; a poison key crashes it
// every time.
func TestWorkerCrashAndRecovery(t *testing.T) {
	job := dualvdd.BenchmarkJob("x2")
	key, err := job.Key()
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(stubRunner{}, NewSource(1), WorkerFaults{
		DownFor:    3,
		PoisonKeys: map[string]bool{key: true},
	})
	ctx := context.Background()
	if err := w.Health(ctx); err != nil {
		t.Fatalf("healthy worker failed its probe: %v", err)
	}
	if _, err := w.Submit(ctx, job); !errors.Is(err, ErrWorkerDown) {
		t.Fatalf("poison submit = %v, want ErrWorkerDown", err)
	}
	// The crash window: the next DownFor calls fail, probes included.
	for i := 0; i < 3; i++ {
		if err := w.Health(ctx); !errors.Is(err, ErrWorkerDown) {
			t.Fatalf("probe %d during the down window = %v, want ErrWorkerDown", i, err)
		}
	}
	if err := w.Health(ctx); err != nil {
		t.Fatalf("worker did not recover after the down window: %v", err)
	}
	// A clean job passes; the poison one crashes it again.
	if _, err := w.Submit(ctx, dualvdd.BenchmarkJob("mux")); err != nil {
		t.Fatalf("clean submit after recovery: %v", err)
	}
	if _, err := w.Submit(ctx, job); !errors.Is(err, ErrWorkerDown) {
		t.Fatal("poison key did not crash the recovered worker")
	}
	if w.InjectedCrashes() != 2 {
		t.Fatalf("crashes = %d, want 2", w.InjectedCrashes())
	}
}

// TestWorkerCrashEvery: the count trigger crashes exactly every CrashEvery-th
// submit that reaches a live worker; calls eaten by the down window do not
// count.
func TestWorkerCrashEvery(t *testing.T) {
	w := NewWorker(stubRunner{}, NewSource(1), WorkerFaults{CrashEvery: 3, DownFor: 1})
	ctx := context.Background()
	var got []bool
	for i := 0; i < 8; i++ {
		_, err := w.Submit(ctx, dualvdd.BenchmarkJob("x2"))
		got = append(got, err == nil)
	}
	// The 3rd and 6th submits to reach the worker crash it; the call after
	// each crash falls in the down window.
	want := []bool{true, true, false, false, true, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("submit outcomes %v, want %v", got, want)
		}
	}
	if w.InjectedCrashes() != 2 {
		t.Fatalf("crashes = %d, want 2", w.InjectedCrashes())
	}
}

// TestTearTail truncates exactly the requested tail and clamps at zero.
func TestTearTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, []byte("0123456789"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := TearTail(path, 4); err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path)
	if string(b) != "012345" {
		t.Fatalf("torn file holds %q, want %q", b, "012345")
	}
	if err := TearTail(path, 100); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); len(b) != 0 {
		t.Fatalf("over-long tear left %d bytes", len(b))
	}
	if err := TearTail(filepath.Join(t.TempDir(), "missing"), 1); err == nil {
		t.Fatal("tearing a missing file succeeded")
	}
}
