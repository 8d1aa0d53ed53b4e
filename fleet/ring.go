// Package fleet shards dualvdd jobs across a set of worker services. A
// Coordinator implements dualvdd.Runner — the same interface Local and the
// HTTP client satisfy — so everything built on the Runner contract (the
// HTTP server, Sweep, the CLI) works over a fleet unchanged. Jobs are
// placed on workers by consistent hashing on Job.GroupKey, the warm-prep
// grouping: every point of one circuit's sweep lands on the same worker,
// whose prepared state is already warm for it. Workers are health-checked
// and jobs on a dead worker are re-dispatched to the next live one; paired
// with a durable result cache, a restarted coordinator re-submits only the
// points the cache has not seen — resumable sweeps.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// ring is a consistent-hash ring over worker names. Each worker owns vnodes
// points on a 64-bit circle; a key is placed on the first point clockwise
// from its own hash. Adding or removing one worker moves only the keys in
// the arcs it owned — the rest of the fleet keeps its warm state.
type ring struct {
	vnodes int
	points []ringPoint // sorted by hash
}

// ringPoint is one virtual node.
type ringPoint struct {
	hash   uint64
	worker string
}

// ringHash positions a string on the circle. SHA-256 (truncated) rather
// than a fast hash: placement must be uniform and deterministic across
// processes, and hashing happens once per worker registration and once per
// job — never in an inner loop.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// newRing builds an empty ring; vnodes <= 0 gets the default 64.
func newRing(vnodes int) *ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	return &ring{vnodes: vnodes}
}

// add registers a worker's virtual nodes. Adding a present worker is a
// no-op.
func (r *ring) add(worker string) {
	for _, p := range r.points {
		if p.worker == worker {
			return
		}
	}
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{
			hash:   ringHash(fmt.Sprintf("%s#%d", worker, i)),
			worker: worker,
		})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// pick returns the key's owner among workers not in skip, walking clockwise
// from the key's position; "" when every worker is skipped or the ring is
// empty. With an empty skip set this is plain consistent hashing; with the
// dead set skipped it is the re-dispatch rule — the key's arc order decides
// the fallback worker, deterministically.
func (r *ring) pick(key string, skip map[string]bool) string {
	if len(r.points) == 0 {
		return ""
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !skip[p.worker] {
			return p.worker
		}
	}
	return ""
}
