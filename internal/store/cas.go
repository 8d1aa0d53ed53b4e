// Package store provides the disk-backed durable-state implementations of
// the dualvdd job service: a directory CAS for results (dualvdd.ResultCache)
// and an append-only job journal (dualvdd.JobStore). Both survive the
// process; the in-memory versions in the root package are the reference
// implementations the differential suite holds these to.
package store

import (
	"container/list"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"dualvdd"
)

// CAS is a content-addressed result store on disk: one JSON file per entry,
// named by the entry's hex SHA-256 key and sharded into 256 subdirectories by
// the key's first byte. Writes are atomic (temp file in the shard directory,
// then rename), so a crash mid-Put leaves at most a stale *.tmp file that the
// next Open sweeps up — never a half-entry served as a result. Reads validate
// the stored key against the requested one and treat any decode failure as a
// miss: a corrupt entry degrades to recomputation, not to a wrong answer.
//
// Eviction is LRU by entry count (MaxEntries; 0 = unbounded), with recency
// seeded from file modification times at Open. Concurrent readers are safe
// during eviction: an entry deleted between index lookup and file read is
// simply a miss.
type CAS struct {
	dir  string
	max  int
	sync bool

	mu    sync.Mutex
	index map[string]*list.Element // guarded by mu
	lru   *list.List               // guarded by mu; front = most recent; values are *casEntry
	bytes int64                    // guarded by mu
}

// casEntry is the in-memory index record of one on-disk entry.
type casEntry struct {
	key  string
	size int64
}

// CASOption configures OpenCAS.
type CASOption func(*CAS)

// CASMaxEntries bounds the store to n entries, LRU-evicted (0, the default,
// means unbounded).
func CASMaxEntries(n int) CASOption {
	return func(c *CAS) {
		if n >= 0 {
			c.max = n
		}
	}
}

// CASSync makes every Put fsync the entry file before the rename that
// publishes it, so a machine crash cannot leave a published name pointing at
// unwritten data. Off by default: the rename already guarantees atomicity
// against process crashes, and a cache entry lost to a power cut is just a
// recomputation.
func CASSync() CASOption {
	return func(c *CAS) { c.sync = true }
}

// OpenCAS opens (creating as needed) a directory CAS. Existing entries are
// indexed — recency seeded oldest-first from modification times — and stale
// temp files from interrupted writes are removed.
//
//lint:unguarded-ok construction: the CAS is not shared until OpenCAS returns
func OpenCAS(dir string, opts ...CASOption) (*CAS, error) {
	c := &CAS{
		dir:   dir,
		index: make(map[string]*list.Element),
		lru:   list.New(),
	}
	for _, opt := range opts {
		opt(c)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open cas: %w", err)
	}
	type found struct {
		casEntry
		mtime int64
	}
	var entries []found
	shards, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: open cas: %w", err)
	}
	for _, shard := range shards {
		if !shard.IsDir() || len(shard.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, shard.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			name := f.Name()
			path := filepath.Join(dir, shard.Name(), name)
			if strings.Contains(name, ".tmp") {
				// Leftover from an interrupted Put: never observable as an
				// entry, safe to sweep.
				_ = os.Remove(path)
				continue
			}
			key, ok := strings.CutSuffix(name, ".json")
			if !ok || !validKey(key) || !strings.HasPrefix(key, shard.Name()) {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			entries = append(entries, found{casEntry{key: key, size: info.Size()}, info.ModTime().UnixNano()})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].mtime != entries[j].mtime {
			return entries[i].mtime < entries[j].mtime
		}
		return entries[i].key < entries[j].key // stable under equal mtimes
	})
	for i := range entries {
		e := &entries[i].casEntry
		c.index[e.key] = c.lru.PushFront(&casEntry{key: e.key, size: e.size})
		c.bytes += e.size
	}
	c.evictLocked()
	return c, nil
}

var (
	_ dualvdd.ResultCache   = (*CAS)(nil)
	_ dualvdd.FallibleCache = (*CAS)(nil)
)

// validKey reports whether key is a hex SHA-256 digest — the only file names
// the CAS creates or trusts.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	_, err := hex.DecodeString(key)
	return err == nil
}

// path returns the entry's sharded on-disk location.
func (c *CAS) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".json")
}

// Get reads the entry under key, returning a miss for absent, concurrently
// evicted, or undecodable entries — and for backend read errors, which only
// GetErr distinguishes.
func (c *CAS) Get(key string) (*dualvdd.CachedResult, bool) {
	res, ok, _ := c.GetErr(key)
	return res, ok
}

// GetErr is Get with the failure reason (dualvdd.FallibleCache): an absent,
// concurrently evicted, or corrupt entry is a clean miss, while a read error
// on a file the index says exists — a dying backend — is returned as an
// error so wrappers like dualvdd.DegradingCache can trip on it.
func (c *CAS) GetErr(key string) (*dualvdd.CachedResult, bool, error) {
	if !validKey(key) {
		return nil, false, nil
	}
	c.mu.Lock()
	el, ok := c.index[key]
	if ok {
		c.lru.MoveToFront(el)
	}
	c.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	// The read happens outside the lock: eviction may race us and delete the
	// file, which is fine — that is a miss, not an error.
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("store: cas get: %w", err)
	}
	var res dualvdd.CachedResult
	if err := json.Unmarshal(b, &res); err != nil || res.Key != key || res.Design == nil {
		return nil, false, nil // corrupt entry: a miss, never a wrong answer
	}
	return &res, true, nil
}

// Put writes the entry atomically and evicts past MaxEntries. Failures are
// silent — the CAS is a cache, and a failed write degrades to recomputation;
// PutErr is the same write with the reason surfaced.
func (c *CAS) Put(res *dualvdd.CachedResult) { _ = c.PutErr(res) }

// PutErr is Put with the failure reason (dualvdd.FallibleCache): a non-nil
// error — ENOSPC, a read-only mount, a vanished directory — means the entry
// was not stored.
func (c *CAS) PutErr(res *dualvdd.CachedResult) error {
	if res == nil || !validKey(res.Key) {
		return nil // not a backend failure: nothing valid to store
	}
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("store: cas put: %w", err)
	}
	shard := filepath.Join(c.dir, res.Key[:2])
	if err := os.MkdirAll(shard, 0o755); err != nil {
		return fmt.Errorf("store: cas put: %w", err)
	}
	tmp, err := os.CreateTemp(shard, res.Key+".tmp*")
	if err != nil {
		return fmt.Errorf("store: cas put: %w", err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("store: cas put: %w", err)
	}
	if c.sync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			_ = os.Remove(tmp.Name())
			return fmt.Errorf("store: cas sync: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("store: cas put: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path(res.Key)); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("store: cas put: %w", err)
	}
	size := int64(len(b))
	c.mu.Lock()
	if el, ok := c.index[res.Key]; ok {
		c.bytes += size - el.Value.(*casEntry).size
		el.Value.(*casEntry).size = size
		c.lru.MoveToFront(el)
	} else {
		c.index[res.Key] = c.lru.PushFront(&casEntry{key: res.Key, size: size})
		c.bytes += size
	}
	c.evictLocked()
	c.mu.Unlock()
	return nil
}

// evictLocked drops least-recently-used entries past the bound.
// caller holds c.mu.
func (c *CAS) evictLocked() {
	for c.max > 0 && c.lru.Len() > c.max {
		oldest := c.lru.Back()
		e := oldest.Value.(*casEntry)
		c.lru.Remove(oldest)
		delete(c.index, e.key)
		c.bytes -= e.size
		_ = os.Remove(c.path(e.key))
	}
}

// Len is the resident entry count.
func (c *CAS) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Bytes is the total size of the resident entries' JSON payloads.
func (c *CAS) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Close is a no-op: the CAS holds no file descriptors between calls. It
// exists to satisfy dualvdd.ResultCache.
func (c *CAS) Close() error { return nil }
