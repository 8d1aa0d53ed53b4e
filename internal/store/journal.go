package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"dualvdd"
)

// Journal is the disk-backed dualvdd.JobStore: one JSON record per line,
// appended with O_APPEND so each Append is a single atomic write. Replay
// reads the file front to back and stops at the first undecodable line —
// after a crash mid-append the torn tail is the only thing lost, never a
// record before it. The journal records outcomes, not work: replaying it
// restores a service's terminal job history and ID sequence, while the CAS
// restores the results themselves.
//
// Durability is configurable: by default appends land in the OS page cache
// (a process crash loses nothing, a machine crash may lose the unsynced
// tail), while JournalSyncEvery(n) fsyncs on a cadence — n=1 is
// commit-level durability, one fsync per record.
type Journal struct {
	path      string
	syncEvery int

	mu      sync.Mutex
	f       *os.File
	pending int // appends since the last fsync
}

// JournalOption configures OpenJournal.
type JournalOption func(*Journal)

// JournalSyncEvery makes the journal fsync after every n appends: 1 syncs on
// every record (commit durability), larger n amortizes the fsync over a
// window of records, and 0 — the default — never syncs explicitly, leaving
// durability to the OS. Whatever the cadence, Close and Sync always flush.
func JournalSyncEvery(n int) JournalOption {
	return func(j *Journal) {
		if n >= 0 {
			j.syncEvery = n
		}
	}
}

// OpenJournal opens (creating as needed) the journal file at path. A torn
// final line — the footprint of a crash mid-append — is truncated away first,
// so post-crash appends start on a fresh line instead of gluing onto the torn
// prefix and losing themselves to it.
func OpenJournal(path string, opts ...JournalOption) (*Journal, error) {
	if err := repairTornTail(path); err != nil {
		return nil, fmt.Errorf("store: open journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open journal: %w", err)
	}
	j := &Journal{path: path, f: f}
	for _, opt := range opts {
		opt(j)
	}
	return j, nil
}

// repairTornTail truncates a trailing partial line. Records are single-line
// JSON written in one O_APPEND write each, so a crash can only leave a
// newline-less prefix of the final record; everything before the last
// newline is whole. A missing or empty file needs no repair.
func repairTornTail(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	buf := make([]byte, 4096)
	off := size
	for off > 0 {
		n := int64(len(buf))
		if n > off {
			n = off
		}
		if _, err := f.ReadAt(buf[:n], off-n); err != nil {
			return err
		}
		for i := n - 1; i >= 0; i-- {
			if buf[i] == '\n' {
				end := off - n + i + 1
				if end == size {
					return nil // clean tail
				}
				return f.Truncate(end)
			}
		}
		off -= n
	}
	if size == 0 {
		return nil
	}
	return f.Truncate(0) // no newline at all: one torn record, drop it
}

var _ dualvdd.JobStore = (*Journal)(nil)

// Append writes one record as a single line, fsyncing when the configured
// cadence comes due.
func (j *Journal) Append(rec dualvdd.JobRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: journal append: %w", err)
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("store: journal %s is closed", j.path)
	}
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("store: journal append: %w", err)
	}
	j.pending++
	if j.syncEvery > 0 && j.pending >= j.syncEvery {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("store: journal sync: %w", err)
		}
		j.pending = 0
	}
	return nil
}

// Sync forces the journal to stable storage regardless of the configured
// cadence. A no-op on a closed journal.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("store: journal sync: %w", err)
	}
	j.pending = 0
	return nil
}

// Replay streams the journal's records in append order, reading through a
// separate handle so it can run while appends continue. A torn or corrupt
// line ends the replay silently: everything after a torn write is suspect,
// and losing the tail of a crashed journal is the documented trade.
func (j *Journal) Replay(fn func(rec dualvdd.JobRecord) error) error {
	r, err := os.Open(j.path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("store: journal replay: %w", err)
	}
	defer r.Close()
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for scanner.Scan() {
		var rec dualvdd.JobRecord
		if err := json.Unmarshal(scanner.Bytes(), &rec); err != nil {
			return nil // torn tail — stop at the last whole record
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return scanner.Err()
}

// Close flushes (fsyncing if any cadence is configured) and closes the
// underlying file; Append fails afterwards.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	var err error
	if j.syncEvery > 0 && j.pending > 0 {
		err = j.f.Sync()
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
