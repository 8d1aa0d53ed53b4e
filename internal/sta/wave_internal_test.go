package sta

import (
	"math/rand"
	"testing"
)

// TestWaveOrder drains the engine's two waves after random pushes, repeats
// included, over fractional priorities: the forward wave must pop in
// ascending and the backward wave in descending priority, each queued gate
// exactly once, and leave no gate marked queued.
func TestWaveOrder(t *testing.T) {
	const n = 64
	inc, err := NewIncremental(invChain(n), lib, 100)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(27))
	// Distinct priorities in a random order: integers, halves and quarters,
	// and -1 (a dead gate's).
	prio := make([]float64, n)
	for i, k := range rng.Perm(n) {
		prio[i] = float64(k)/4 - 1
	}
	for trial := 0; trial < 200; trial++ {
		for _, w := range []struct {
			name   string
			q      *wave
			before func(a, b float64) bool
		}{
			{"forward", &inc.fwd, func(a, b float64) bool { return a < b }},
			{"backward", &inc.bwd, func(a, b float64) bool { return a > b }},
		} {
			queued := make(map[int]bool)
			for range 1 + rng.Intn(3*n) {
				gi := rng.Intn(n)
				w.q.push(gi, prio)
				queued[gi] = true
			}
			last := -1
			for len(w.q.heap) > 0 {
				gi := w.q.pop(prio)
				if !queued[gi] {
					t.Fatalf("trial %d: %s wave popped gate %d, not queued or popped twice", trial, w.name, gi)
				}
				delete(queued, gi)
				if last >= 0 && !w.before(prio[last], prio[gi]) {
					t.Fatalf("trial %d: %s wave popped priority %g after %g", trial, w.name, prio[gi], prio[last])
				}
				last = gi
			}
			if len(queued) > 0 {
				t.Fatalf("trial %d: %s wave never popped %d queued gates", trial, w.name, len(queued))
			}
			for gi, in := range w.q.in {
				if in {
					t.Fatalf("trial %d: %s wave still marks gate %d queued", trial, w.name, gi)
				}
			}
		}
	}
}
