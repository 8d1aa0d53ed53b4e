package chaos

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"dualvdd"
)

// ErrWorkerDown is what a crashed worker answers with until it comes back:
// every call fails, including health probes, so the coordinator's breaker
// sees a dead process, not a flaky one.
var ErrWorkerDown = errors.New("chaos: worker down (injected crash)")

// RunnerWithHealth is the worker surface the injector wraps: a Runner plus
// the health probe. It structurally matches fleet.WorkerClient without chaos
// importing fleet.
type RunnerWithHealth interface {
	dualvdd.Runner
	Health(ctx context.Context) error
}

// WorkerFaults configures the process injector. Zero values inject nothing.
type WorkerFaults struct {
	// PCrash kills the worker on a submit: the submit fails, and the worker
	// stays down for the next DownFor calls (health probes included) before
	// recovering.
	PCrash float64
	// CrashEvery kills the worker on every CrashEvery-th submit that reaches
	// it while it is up, with the same down window as PCrash: a crash
	// schedule by count that fires however few submits roll PCrash. Zero
	// disables it.
	CrashEvery int
	// DownFor is how many calls a crash eats before the worker recovers;
	// zero means 8.
	DownFor int
	// PHang blocks a submit on its context instead of answering — the
	// wedged-process failure deadline budgets exist for.
	PHang float64
	// PoisonKeys marks job keys (dualvdd.Job.Key()) that crash any worker
	// they are submitted to, every time — the input quarantine exists for.
	PoisonKeys map[string]bool
}

// Worker wraps a worker client with injected crashes, hangs, and poison
// jobs.
type Worker struct {
	inner RunnerWithHealth
	src   *Source
	f     WorkerFaults

	mu   sync.Mutex
	down int // remaining calls to fail before recovery

	submits atomic.Int64 // submits that reached the worker while it was up
	crashes atomic.Int64
	hangs   atomic.Int64
}

// NewWorker wraps inner with the given faults drawn from src.
func NewWorker(inner RunnerWithHealth, src *Source, f WorkerFaults) *Worker {
	if f.DownFor == 0 {
		f.DownFor = 8
	}
	return &Worker{inner: inner, src: src, f: f}
}

var _ RunnerWithHealth = (*Worker)(nil)

// crash marks the worker down for the configured window.
func (w *Worker) crash() {
	w.crashes.Add(1)
	w.mu.Lock()
	w.down = w.f.DownFor
	w.mu.Unlock()
}

// gate consumes one call from the down window; true means this call fails.
func (w *Worker) gate() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.down > 0 {
		w.down--
		return true
	}
	return false
}

// Submit applies the crash/hang/poison schedule, then delegates.
func (w *Worker) Submit(ctx context.Context, job dualvdd.Job) (dualvdd.JobID, error) {
	if w.gate() {
		return "", ErrWorkerDown
	}
	n := w.submits.Add(1)
	if len(w.f.PoisonKeys) > 0 {
		if key, err := job.Key(); err == nil && w.f.PoisonKeys[key] {
			w.crash()
			return "", ErrWorkerDown
		}
	}
	if every := int64(w.f.CrashEvery); (every > 0 && n%every == 0) || w.src.Roll(w.f.PCrash) {
		w.crash()
		return "", ErrWorkerDown
	}
	if w.src.Roll(w.f.PHang) {
		w.hangs.Add(1)
		<-ctx.Done()
		return "", ctx.Err()
	}
	return w.inner.Submit(ctx, job)
}

// Status delegates unless the worker is down.
func (w *Worker) Status(ctx context.Context, id dualvdd.JobID) (*dualvdd.JobStatus, error) {
	if w.gate() {
		return nil, ErrWorkerDown
	}
	return w.inner.Status(ctx, id)
}

// Watch delegates unless the worker is down.
func (w *Worker) Watch(ctx context.Context, id dualvdd.JobID) (<-chan dualvdd.Event, error) {
	if w.gate() {
		return nil, ErrWorkerDown
	}
	return w.inner.Watch(ctx, id)
}

// Result delegates unless the worker is down.
func (w *Worker) Result(ctx context.Context, id dualvdd.JobID) (*dualvdd.JobStatus, error) {
	if w.gate() {
		return nil, ErrWorkerDown
	}
	return w.inner.Result(ctx, id)
}

// Cancel delegates unless the worker is down.
func (w *Worker) Cancel(ctx context.Context, id dualvdd.JobID) error {
	if w.gate() {
		return ErrWorkerDown
	}
	return w.inner.Cancel(ctx, id)
}

// Health fails while the worker is down — a crash is visible to the
// coordinator's probe loop, which is what lets the breaker half-open later.
func (w *Worker) Health(ctx context.Context) error {
	if w.gate() {
		return ErrWorkerDown
	}
	return w.inner.Health(ctx)
}

// InjectedCrashes and InjectedHangs report how many faults actually fired.
func (w *Worker) InjectedCrashes() int64 { return w.crashes.Load() }
func (w *Worker) InjectedHangs() int64   { return w.hangs.Load() }
