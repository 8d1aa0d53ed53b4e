package dualvdd

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Batch fans a fixed list of independent work items across a bounded worker
// pool. It is the engine behind suite-scale evaluation (Sweep, the Local
// worker pool, the benchmark suites): results come back in input order
// regardless of scheduling, and the reported error is deterministic — so a
// parallel run is bit-identical to a serial one whenever the per-item work
// is itself deterministic, which the seeded flow guarantees.
//
// The zero value runs with GOMAXPROCS workers.
type Batch struct {
	// Workers bounds the pool; 0 or negative means runtime.GOMAXPROCS(0).
	// The pool never exceeds the item count.
	Workers int
}

// workers resolves the pool size for n items.
func (b Batch) workers(n int) int {
	w := b.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Each runs fn(ctx, i) for every i in [0, n) on the pool. See BatchMap for
// the cancellation and error contract.
func (b Batch) Each(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	_, err := BatchMap(ctx, b, n, func(ctx context.Context, i int) (struct{}, error) {
		return struct{}{}, fn(ctx, i)
	})
	return err
}

// BatchMap runs fn(ctx, i) for every i in [0, n) on b's worker pool and
// returns the results indexed by input position — deterministic output order
// at any worker count.
//
// The first failure makes the pool skip higher-index items that have not
// started yet; an item is never skipped because of a failure at a higher
// index, and items run under the caller's ctx, so an item's outcome cannot
// be distorted by sibling scheduling. That makes the reported error
// deterministic: the lowest-index intrinsically-failing item always runs —
// every item below it succeeds, so nothing can skip it — and its error is
// returned at any worker count. On error the result slice is still returned
// with every completed item filled in; failed and skipped slots hold the
// zero value.
func BatchMap[T any](ctx context.Context, b Batch, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, ctx.Err()
	}
	pool, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make([]error, n)
	idx := make(chan int)
	var failedMin atomic.Int64 // lowest index that failed so far; n = none
	failedMin.Store(int64(n))
	var wg sync.WaitGroup
	for w := 0; w < b.workers(n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := ctx.Err(); err != nil {
					errs[i] = err // the caller's ctx is done; drain
					continue
				}
				if err := pool.Err(); err != nil && failedMin.Load() < int64(i) {
					errs[i] = err // a lower-index item already failed; skip
					continue
				}
				r, err := fn(ctx, i)
				if err != nil {
					errs[i] = err
					lowerTo(&failedMin, i)
					cancel()
					continue
				}
				results[i] = r
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results, firstError(errs)
}

// lowerTo lowers v to i unless it already holds a smaller value.
func lowerTo(v *atomic.Int64, i int) {
	for {
		cur := v.Load()
		if int64(i) >= cur || v.CompareAndSwap(cur, int64(i)) {
			return
		}
	}
}

// firstError picks the error to report from per-item errors kept in index
// order under BatchMap's skip rule.
func firstError(errs []error) error {
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		if !cancelled(err) {
			// The skip rule guarantees every error sits at or above the
			// lowest intrinsically-failing index, so the first hard error
			// of this index-order scan is that item's. Cancellation-class
			// errors below it can only come from the caller's own ctx
			// expiring, in which case a hard failure that did complete is
			// the more informative report.
			return err
		}
	}
	return first
}
