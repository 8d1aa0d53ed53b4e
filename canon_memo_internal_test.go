package dualvdd

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dualvdd/internal/blif"
)

// freshCanonical encodes the job's input without the memo.
func freshCanonical(t *testing.T, j Job) []byte {
	t.Helper()
	net, err := j.network()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := blif.WriteNetwork(&buf, net); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// benchmarkBLIF is the benchmark's network as .names-form BLIF text.
func benchmarkBLIF(t *testing.T, name string) string {
	t.Helper()
	return string(freshCanonical(t, BenchmarkJob(name)))
}

// TestCanonicalMemoConcurrent has eight goroutines key and submit shared and
// distinct inputs at once on a cold memo: every Key and GroupKey, and the
// content address of every job a Local accepts, must equal the address
// hashed from a fresh encoding. Run it under -race.
func TestCanonicalMemoConcurrent(t *testing.T) {
	ctx := context.Background()
	const goroutines = 8
	opts := []Option{WithSimWords(16), WithAlgorithms(AlgoCVS)}
	shared := []Job{BenchmarkJob("z4ml", opts...), BLIFJob(benchmarkBLIF(t, "x2"), opts...)}
	type want struct {
		job        Job
		key, group string
	}
	var wants [goroutines][]want
	for g := range wants {
		own := BLIFJob(fmt.Sprintf(".model m%d\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n", g), opts...)
		for _, job := range append([]Job{own}, shared...) {
			canon := freshCanonical(t, job)
			key, err := job.contentKey(canon)
			if err != nil {
				t.Fatal(err)
			}
			group, err := job.groupKey(canon)
			if err != nil {
				t.Fatal(err)
			}
			wants[g] = append(wants[g], want{job, key, group})
		}
	}

	l := NewLocal(LocalWorkers(2))
	defer drain(t, l)
	ResetCanonMemo()
	var wg sync.WaitGroup
	ids := make([][]JobID, goroutines)
	for g := range wants {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for _, w := range wants[g] {
					key, err := w.job.Key()
					if err != nil || key != w.key {
						t.Errorf("goroutine %d: Key = %s, %v; want %s", g, key, err, w.key)
					}
					group, err := w.job.GroupKey()
					if err != nil || group != w.group {
						t.Errorf("goroutine %d: GroupKey = %s, %v; want %s", g, group, err, w.group)
					}
					id, err := l.Submit(ctx, w.job)
					if err != nil {
						t.Errorf("goroutine %d: submit: %v", g, err)
						continue
					}
					if j, err := l.table.find(id); err != nil || j.key != w.key {
						t.Errorf("goroutine %d: job %s carries another content address (%v)", g, id, err)
					}
					ids[g] = append(ids[g], id)
				}
			}
		}(g)
	}
	wg.Wait()
	for _, gids := range ids {
		for _, id := range gids {
			if st, err := l.Result(ctx, id); err != nil || st.State != JobDone {
				t.Fatalf("job %s: %+v, %v", id, st, err)
			}
		}
	}
}

// TestCanonicalMemoStoresNoFailure keys a malformed BLIF model, an unknown
// benchmark and a model whose text is a memoized benchmark's name
// repeatedly: every call fails with the first call's error, and no encoding
// is left behind under any of them.
func TestCanonicalMemoStoresNoFailure(t *testing.T) {
	if _, err := BenchmarkJob("x2").Key(); err != nil {
		t.Fatal(err)
	}
	for _, job := range []Job{
		BLIFJob(".model m\n.inputs a\n.outputs f\n11 1\n.end\n"),
		BenchmarkJob("no-such-circuit"),
		BLIFJob("x2"),
	} {
		_, first := job.Key()
		if first == nil {
			t.Fatalf("%+v keyed without an error", job)
		}
		for i := 0; i < 3; i++ {
			_, kerr := job.Key()
			_, gerr := job.GroupKey()
			if kerr == nil || gerr == nil || kerr.Error() != first.Error() || gerr.Error() != first.Error() {
				t.Fatalf("call %d: Key err %v, GroupKey err %v; want %v from both", i, kerr, gerr, first)
			}
		}
		if canon := canonMemo.get(job.inputID()); canon != nil {
			t.Fatalf("a failed input left %d bytes in the memo", len(canon))
		}
	}
}

// TestCanonicalMemoBound drives a small memo with a seeded mix of encodings
// and reads: the bytes it charges never exceed its limit and always equal
// what its resident entries cost, an encoding larger than the limit is not
// stored, and eviction takes the least recently used entry first.
func TestCanonicalMemoBound(t *testing.T) {
	const unit = 100 + canonEntryBytes
	id := func(i int) [sha256.Size]byte { return sha256.Sum256([]byte{byte(i)}) }
	m := newCanonicalMemo(3 * unit)
	check := func(step string) {
		t.Helper()
		m.mu.Lock()
		defer m.mu.Unlock()
		held := 0
		for el := m.lru.Front(); el != nil; el = el.Next() {
			held += len(el.Value.(*canonEntry).canon) + canonEntryBytes
		}
		if m.size != held || m.size > m.limit || len(m.entries) != m.lru.Len() {
			t.Fatalf("%s: charged %d, entries cost %d, limit %d, %d indexed of %d listed",
				step, m.size, held, m.limit, len(m.entries), m.lru.Len())
		}
	}

	for i := 0; i < 3; i++ {
		m.put(id(i), make([]byte, 100))
	}
	m.get(id(0)) // 1 is now the least recently used
	m.put(id(3), make([]byte, 100))
	check("after the fourth put")
	for i, resident := range []bool{true, false, true, true} {
		if got := m.get(id(i)) != nil; got != resident {
			t.Fatalf("entry %d resident = %v, want %v (least recently used evicted first)", i, got, resident)
		}
	}
	m.put(id(9), make([]byte, m.limit))
	if m.get(id(9)) != nil {
		t.Fatal("an encoding larger than the limit was stored")
	}
	if m.get(id(0)) == nil {
		t.Fatal("an encoding too large to store evicted a resident entry")
	}

	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 500; step++ {
		if k := rng.Intn(16); rng.Intn(3) == 0 {
			m.get(id(k))
		} else {
			m.put(id(k), make([]byte, rng.Intn(2*unit)))
		}
		check(fmt.Sprint("step ", step))
	}
}

// TestCanonicalMemoSharedBytesAreClipped checks the memo hands out bytes no
// caller can append into: the capacity ends at the length on the miss that
// stores an encoding and on the hit that reads it.
func TestCanonicalMemoSharedBytesAreClipped(t *testing.T) {
	ResetCanonMemo()
	job := BLIFJob(benchmarkBLIF(t, "C880"))
	for _, memo := range []string{"miss", "hit"} {
		canon, err := job.canonical()
		if err != nil {
			t.Fatal(err)
		}
		if cap(canon) != len(canon) {
			t.Fatalf("%s: canonical bytes have capacity %d past length %d", memo, cap(canon), len(canon))
		}
	}
}

// TestCanonicalMemoHitBuildsNothing is the guard that a memo hit builds no
// circuit: keying des again allocates a few dozen times, where building and
// writing its network allocates about thirty thousand.
func TestCanonicalMemoHitBuildsNothing(t *testing.T) {
	job := BenchmarkJob("des")
	if _, err := job.Key(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := job.Key(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 200 {
		t.Fatalf("a memo hit on des allocates %.0f times, want at most 200", allocs)
	}
}
