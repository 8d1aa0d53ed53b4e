package fleet

import (
	"fmt"
	"sort"
	"testing"
)

// remove unregisters a worker's virtual nodes. The coordinator registers its
// workers once and never removes one; the ring tests use it to show that a
// removal moves only the removed worker's keys.
func (r *ring) remove(worker string) {
	kept := r.points[:0]
	for _, p := range r.points {
		if p.worker != worker {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// workers returns the distinct worker names on the ring, sorted.
func (r *ring) workers() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range r.points {
		if !seen[p.worker] {
			seen[p.worker] = true
			out = append(out, p.worker)
		}
	}
	sort.Strings(out)
	return out
}

// TestRingDeterministicAndStable: the same key always lands on the same
// worker, independent of registration order.
func TestRingDeterministicAndStable(t *testing.T) {
	a := newRing(64)
	for _, w := range []string{"w1", "w2", "w3"} {
		a.add(w)
	}
	b := newRing(64)
	for _, w := range []string{"w3", "w1", "w2"} {
		b.add(w)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("group-%d", i)
		if a.pick(key, nil) != b.pick(key, nil) {
			t.Fatalf("key %s placed differently under different registration orders", key)
		}
		if a.pick(key, nil) != a.pick(key, nil) {
			t.Fatalf("key %s placement not deterministic", key)
		}
	}
}

// TestRingBalance: with enough vnodes, no worker owns a grossly
// disproportionate share of keys.
func TestRingBalance(t *testing.T) {
	r := newRing(128)
	workers := []string{"w1", "w2", "w3", "w4"}
	for _, w := range workers {
		r.add(w)
	}
	counts := map[string]int{}
	const keys = 4000
	for i := 0; i < keys; i++ {
		counts[r.pick(fmt.Sprintf("key-%d", i), nil)]++
	}
	for _, w := range workers {
		share := float64(counts[w]) / keys
		if share < 0.10 || share > 0.45 {
			t.Fatalf("worker %s owns %.0f%% of keys — ring badly unbalanced: %v", w, share*100, counts)
		}
	}
}

// TestRingMinimalMovement: removing one worker moves only the keys it
// owned; every other key keeps its placement. This is the property that
// keeps warm state warm when a worker dies.
func TestRingMinimalMovement(t *testing.T) {
	r := newRing(64)
	for _, w := range []string{"w1", "w2", "w3"} {
		r.add(w)
	}
	const keys = 1000
	before := make([]string, keys)
	for i := range before {
		before[i] = r.pick(fmt.Sprintf("key-%d", i), nil)
	}
	r.remove("w2")
	moved := 0
	for i := range before {
		after := r.pick(fmt.Sprintf("key-%d", i), nil)
		if after == "w2" {
			t.Fatalf("key-%d still placed on the removed worker", i)
		}
		if before[i] == "w2" {
			continue // had to move
		}
		if after != before[i] {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys moved that the removed worker never owned", moved)
	}
}

// TestRingSkipIsTheRedispatchRule: skipping a key's owner yields the next
// worker on the arc, deterministically, and skipping everyone yields "".
func TestRingSkipIsTheRedispatchRule(t *testing.T) {
	r := newRing(64)
	for _, w := range []string{"w1", "w2", "w3"} {
		r.add(w)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		owner := r.pick(key, nil)
		fallback := r.pick(key, map[string]bool{owner: true})
		if fallback == owner || fallback == "" {
			t.Fatalf("key %s fell back from %s to %q", key, owner, fallback)
		}
		if again := r.pick(key, map[string]bool{owner: true}); again != fallback {
			t.Fatalf("key %s fallback not deterministic: %s vs %s", key, fallback, again)
		}
	}
	all := map[string]bool{"w1": true, "w2": true, "w3": true}
	if got := r.pick("any", all); got != "" {
		t.Fatalf("all-skipped pick returned %q, want empty", got)
	}
	if got := newRing(8).pick("any", nil); got != "" {
		t.Fatalf("empty ring pick returned %q, want empty", got)
	}
}

// TestRingWorkers: distinct names, sorted, unaffected by vnode count.
func TestRingWorkers(t *testing.T) {
	r := newRing(16)
	r.add("w2")
	r.add("w1")
	r.add("w1") // duplicate add is a no-op
	got := r.workers()
	if len(got) != 2 || got[0] != "w1" || got[1] != "w2" {
		t.Fatalf("workers() = %v", got)
	}
	if len(r.points) != 32 {
		t.Fatalf("duplicate add grew the ring to %d points", len(r.points))
	}
}
