package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"dualvdd"
)

// fakeKey deterministically makes a syntactically valid content address.
func fakeKey(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
	return hex.EncodeToString(sum[:])
}

// entry builds a distinguishable CachedResult for a key.
func entry(key string, tag int) *dualvdd.CachedResult {
	return &dualvdd.CachedResult{
		Key:    key,
		Design: &dualvdd.DesignInfo{Name: fmt.Sprintf("ckt-%d", tag), Gates: tag},
		Results: []*dualvdd.FlowResult{{
			Algorithm: "CVS", Power: float64(tag), Gates: tag, STAEvals: int64(tag),
		}},
	}
}

func TestCASRoundTrip(t *testing.T) {
	c, err := OpenCAS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := fakeKey(1)
	if _, ok := c.Get(key); ok {
		t.Fatal("empty CAS reported a hit")
	}
	want := entry(key, 7)
	c.Put(want)
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("Put entry not returned by Get")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if c.Bytes() <= 0 {
		t.Fatalf("Bytes = %d, want > 0", c.Bytes())
	}
}

func TestCASSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCAS(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		c.Put(entry(fakeKey(i), i))
	}
	bytes := c.Bytes()

	re, err := OpenCAS(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 5 {
		t.Fatalf("reopened Len = %d, want 5", re.Len())
	}
	if re.Bytes() != bytes {
		t.Fatalf("reopened Bytes = %d, want %d", re.Bytes(), bytes)
	}
	for i := 0; i < 5; i++ {
		got, ok := re.Get(fakeKey(i))
		if !ok || !reflect.DeepEqual(got, entry(fakeKey(i), i)) {
			t.Fatalf("entry %d lost across reopen (ok=%v)", i, ok)
		}
	}
}

// TestCASCrashSafety simulates a crash mid-Put: a torn temp file and a
// corrupt finished entry must neither surface as results nor poison reopen.
func TestCASCrashSafety(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCAS(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := fakeKey(1)
	c.Put(entry(good, 1))

	// A write that died before rename: partial JSON in a temp file.
	torn := fakeKey(2)
	shard := filepath.Join(dir, torn[:2])
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	tornPath := filepath.Join(shard, torn+".tmp12345")
	if err := os.WriteFile(tornPath, []byte(`{"key":"`+torn), 0o644); err != nil {
		t.Fatal(err)
	}
	// A finished entry whose bytes got corrupted on disk.
	bad := fakeKey(3)
	shard = filepath.Join(dir, bad[:2])
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(shard, bad+".json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := OpenCAS(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := re.Get(torn); ok {
		t.Fatal("torn temp file surfaced as an entry")
	}
	if _, err := os.Stat(tornPath); !os.IsNotExist(err) {
		t.Fatalf("reopen did not sweep the torn temp file: %v", err)
	}
	if _, ok := re.Get(bad); ok {
		t.Fatal("corrupt entry surfaced as a hit instead of a miss")
	}
	got, ok := re.Get(good)
	if !ok || !reflect.DeepEqual(got, entry(good, 1)) {
		t.Fatal("good entry lost next to the torn one")
	}
}

// TestCASWrongKeyIsMiss pins the defense against a file stored under the
// wrong name: the payload's own key must match the request.
func TestCASWrongKeyIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCAS(dir)
	if err != nil {
		t.Fatal(err)
	}
	mismatched := fakeKey(1)
	c.Put(entry(fakeKey(2), 2)) // honest entry under its own key
	// Forge a file under `mismatched` holding fakeKey(2)'s payload.
	honest, _ := os.ReadFile(c.path(fakeKey(2)))
	if err := os.MkdirAll(filepath.Dir(c.path(mismatched)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.path(mismatched), honest, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenCAS(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := re.Get(mismatched); ok {
		t.Fatal("entry with mismatched embedded key served as a hit")
	}
}

// TestCASConcurrentReadersDuringEviction hammers Get from many goroutines
// while Puts continuously evict: every hit must carry the right payload, and
// nothing may panic or race (the suite runs under -race in CI).
func TestCASConcurrentReadersDuringEviction(t *testing.T) {
	c, err := OpenCAS(t.TempDir(), CASMaxEntries(8))
	if err != nil {
		t.Fatal(err)
	}
	const keys = 32
	for i := 0; i < keys; i++ {
		c.Put(entry(fakeKey(i), i))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := rng.Intn(keys)
				if got, ok := c.Get(fakeKey(i)); ok {
					if got.Key != fakeKey(i) || got.Design.Gates != i {
						t.Errorf("Get(%d) returned wrong payload %+v", i, got.Design)
						return
					}
				}
			}
		}(g)
	}
	for round := 0; round < 50; round++ {
		for i := 0; i < keys; i++ {
			c.Put(entry(fakeKey(i), i))
		}
	}
	close(stop)
	wg.Wait()
	if n := c.Len(); n != 8 {
		t.Fatalf("Len = %d after eviction, want 8", n)
	}
}

// TestCASMatchesMemoryCache differential-tests the disk CAS against the
// in-memory reference under a seeded random op sequence: same hits, same
// misses, same payloads, same resident count at every step.
func TestCASMatchesMemoryCache(t *testing.T) {
	const limit, keys = 6, 16
	disk, err := OpenCAS(t.TempDir(), CASMaxEntries(limit))
	if err != nil {
		t.Fatal(err)
	}
	mem := dualvdd.NewMemoryCache(limit)
	rng := rand.New(rand.NewSource(99))
	for op := 0; op < 2000; op++ {
		i := rng.Intn(keys)
		key := fakeKey(i)
		if rng.Intn(2) == 0 {
			e := entry(key, i)
			disk.Put(e)
			mem.Put(e)
		} else {
			dg, dok := disk.Get(key)
			mg, mok := mem.Get(key)
			if dok != mok {
				t.Fatalf("op %d: Get(%d) disk hit=%v mem hit=%v", op, i, dok, mok)
			}
			if dok && !reflect.DeepEqual(dg, mg) {
				t.Fatalf("op %d: Get(%d) payloads differ", op, i)
			}
		}
		if disk.Len() != mem.Len() {
			t.Fatalf("op %d: Len disk=%d mem=%d", op, disk.Len(), mem.Len())
		}
	}
}

func TestJournalRoundTripAndReplayDuringAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.log")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	var want []dualvdd.JobRecord
	for i := 0; i < 10; i++ {
		rec := dualvdd.JobRecord{
			Seq: int64(i + 1), Key: fakeKey(i),
			Status: dualvdd.JobStatus{ID: dualvdd.JobID(fmt.Sprintf("job-%06d", i+1)), State: dualvdd.JobDone},
		}
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	var got []dualvdd.JobRecord
	if err := j.Replay(func(rec dualvdd.JobRecord) error {
		got = append(got, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestJournalTornTail simulates a crash mid-append: the torn final line is
// dropped, every whole record before it survives, and appends after reopen
// land after the torn bytes without corrupting earlier records.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.log")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(dualvdd.JobRecord{Seq: int64(i + 1), Key: fakeKey(i),
			Status: dualvdd.JobStatus{ID: "job-x", State: dualvdd.JobDone}}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":4,"key":"tor`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	count := 0
	if err := re.Replay(func(rec dualvdd.JobRecord) error {
		count++
		if rec.Seq != int64(count) {
			t.Fatalf("record %d has seq %d", count, rec.Seq)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("replayed %d records, want 3 (torn tail dropped)", count)
	}
}

// TestJournalMatchesMemoryJournal differential-tests the disk journal
// against the in-memory reference.
func TestJournalMatchesMemoryJournal(t *testing.T) {
	disk, err := OpenJournal(filepath.Join(t.TempDir(), "jobs.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	mem := dualvdd.NewMemoryJournal()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		rec := dualvdd.JobRecord{
			Seq: int64(i + 1), Key: fakeKey(rng.Intn(10)),
			Status: dualvdd.JobStatus{
				ID:    dualvdd.JobID(fmt.Sprintf("job-%06d", i+1)),
				State: []dualvdd.JobState{dualvdd.JobDone, dualvdd.JobFailed, dualvdd.JobCancelled}[rng.Intn(3)],
				Error: "e",
			},
		}
		if err := disk.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := mem.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	collect := func(s dualvdd.JobStore) []dualvdd.JobRecord {
		var out []dualvdd.JobRecord
		if err := s.Replay(func(rec dualvdd.JobRecord) error {
			out = append(out, rec)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if d, m := collect(disk), collect(mem); !reflect.DeepEqual(d, m) {
		t.Fatalf("disk and memory journals replay differently:\n disk %+v\n mem %+v", d, m)
	}
}

// TestJobKeyCanonicalization pins the no-collision-by-construction property
// of the content address: every significant dimension of a job moves the
// key, while pure formatting does not. Combined with
// SHA-256 this is what makes CAS key collisions impossible in practice: two
// jobs share a key only if their canonical encodings are identical, and
// identical canonical encodings compute identical results.
func TestJobKeyCanonicalization(t *testing.T) {
	const model = ".model tiny\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n"
	// Same circuit, different layout/whitespace/continuation formatting.
	const reformatted = ".model tiny\n.inputs a \\\nb\n.outputs y\n\n.names a b y\n11 1\n.end\n"

	base := dualvdd.BLIFJob(model)
	baseKey, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}

	same := dualvdd.BLIFJob(reformatted)
	if k, err := same.Key(); err != nil || k != baseKey {
		t.Fatalf("formatting changed the key: %q vs %q (err %v)", k, baseKey, err)
	}

	distinct := map[string]dualvdd.Job{}
	vlow := base
	vlow.Config.Rails = []float64{5.0, 3.9}
	distinct["vlow"] = vlow
	seed := base
	seed.Config.Seed = 2
	distinct["seed"] = seed
	words := base
	words.Config.SimWords = 128
	distinct["simwords"] = words
	algos := base
	algos.Algorithms = []dualvdd.Algorithm{dualvdd.AlgoCVS}
	distinct["algorithms"] = algos
	net := dualvdd.BLIFJob(".model tiny\n.inputs a b\n.outputs y\n.names a b y\n10 1\n.end\n")
	distinct["netlist"] = net

	seen := map[string]string{baseKey: "base"}
	for name, job := range distinct {
		k, err := job.Key()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("%s collides with %s on key %s", name, prev, k)
		}
		seen[k] = name
	}

	// GroupKey: Vlow and the algorithm set do NOT move it (one warm group
	// serves a whole low-rail sweep), the netlist does.
	baseGroup, err := base.GroupKey()
	if err != nil {
		t.Fatal(err)
	}
	if g, _ := vlow.GroupKey(); g != baseGroup {
		t.Fatal("Vlow changed the placement GroupKey")
	}
	if g, _ := algos.GroupKey(); g != baseGroup {
		t.Fatal("algorithm set changed the placement GroupKey")
	}
	if g, _ := net.GroupKey(); g == baseGroup {
		t.Fatal("distinct netlists share a placement GroupKey")
	}
	if g, _ := seed.GroupKey(); g == baseGroup {
		t.Fatal("seed change did not move the placement GroupKey")
	}
}
