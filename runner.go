package dualvdd

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"dualvdd/internal/blif"
	"dualvdd/internal/logic"
	"dualvdd/internal/mcnc"
)

// Runner is the transport-agnostic job surface of the package: submit a Job,
// stream its progress, collect its result, cancel it. Local runs jobs
// in-process on a bounded worker pool; the client package implements the same
// interface over HTTP against a server — a program switches between the two
// by swapping one constructor.
//
// All methods are safe for concurrent use. The ctx parameter bounds the call
// (a Submit that cannot queue, a Result that waits), never the job itself:
// jobs run under their own per-job context and are stopped with Cancel.
type Runner interface {
	// Submit validates and enqueues a job, returning its ID. A content-hit
	// against the runner's result cache completes the job immediately.
	// Returns ErrQueueFull when the bounded queue has no room and ErrClosed
	// after a shutdown began.
	Submit(ctx context.Context, job Job) (JobID, error)
	// Status reports the job's current state without waiting.
	Status(ctx context.Context, id JobID) (*JobStatus, error)
	// Watch streams the job's progress events: the full history so far is
	// replayed first, then live events follow until a terminal state closes
	// the channel. A done ctx — or, on a remote transport, a severed
	// connection — also closes it, so a closed channel means "stream over",
	// not "job done": confirm the outcome with Result or Status.
	Watch(ctx context.Context, id JobID) (<-chan Event, error)
	// Result waits until the job reaches a terminal state and returns its
	// final status. A done ctx abandons the wait with ctx.Err() — the job
	// keeps running.
	Result(ctx context.Context, id JobID) (*JobStatus, error)
	// Cancel stops a queued or running job: a queued job reads cancelled
	// as soon as Cancel returns, a running one stops at its next
	// cancellation check. Cancelling a terminal job is a no-op.
	Cancel(ctx context.Context, id JobID) error
}

// Sentinel errors of the Runner contract. The client package maps HTTP
// status codes back onto these, so errors.Is works across transports.
var (
	// ErrJobNotFound reports an unknown JobID.
	ErrJobNotFound = errors.New("dualvdd: job not found")
	// ErrQueueFull reports a bounded queue with no room; the submission was
	// not accepted and may be retried.
	ErrQueueFull = errors.New("dualvdd: job queue full")
	// ErrClosed reports a runner that has begun shutting down.
	ErrClosed = errors.New("dualvdd: runner closed")
	// ErrBudgetExhausted reports a submission whose end-to-end deadline
	// budget (WithJobBudget) was already spent when it reached admission —
	// the work would be dead on arrival, so it is rejected instead of run.
	ErrBudgetExhausted = errors.New("dualvdd: job deadline budget exhausted")
)

// JobID identifies a submitted job within one runner.
type JobID string

// JobState is a point in the job lifecycle:
//
//	queued ──► running ──► done
//	   │           │   └──► failed
//	   └───────────┴──────► cancelled
//
// Cached submissions are born done.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// Job is one unit of work for a Runner: a circuit (a named MCNC benchmark or
// a BLIF model) plus the fully resolved flow configuration. Jobs are plain
// data — everything a Runner needs crosses process boundaries, which is what
// makes the interface transport-agnostic. Build one with BenchmarkJob or
// BLIFJob; the functional options they accept are the same ones Flow takes
// (WithObserver is meaningless here and ignored — Watch is the observation
// channel).
type Job struct {
	// Benchmark names one of the 39 MCNC stand-in circuits. Exactly one of
	// Benchmark and BLIF must be set.
	Benchmark string `json:"benchmark,omitempty"`
	// BLIF is a technology-independent .names-form BLIF model.
	BLIF string `json:"blif,omitempty"`
	// Config is the resolved flow configuration.
	Config Config `json:"config"`
	// Algorithms selects which algorithms run, in order; empty means all
	// three in the paper's order.
	Algorithms []Algorithm `json:"algorithms,omitempty"`
}

// BenchmarkJob builds a Job for a named MCNC benchmark under the paper's
// default configuration plus options.
func BenchmarkJob(name string, opts ...Option) Job {
	f := New(opts...)
	return Job{Benchmark: name, Config: f.Config(), Algorithms: f.Algorithms()}
}

// BLIFJob builds a Job for a BLIF model under the paper's default
// configuration plus options.
func BLIFJob(model string, opts ...Option) Job {
	f := New(opts...)
	return Job{BLIF: model, Config: f.Config(), Algorithms: f.Algorithms()}
}

// Validate checks the job is well-formed without touching its circuit: the
// input is exactly one of Benchmark/BLIF, the algorithms are known, and the
// Config passes Config.Validate (so a degenerate voltage pair is rejected at
// Submit instead of surfacing as NaN power numbers from a worker).
func (j Job) Validate() error {
	if (j.Benchmark == "") == (j.BLIF == "") {
		return errors.New("dualvdd: job needs exactly one of Benchmark or BLIF")
	}
	if err := j.Config.Validate(); err != nil {
		return err
	}
	for _, a := range j.Algorithms {
		switch a {
		case AlgoCVS, AlgoDscale, AlgoGscale:
		default:
			return fmt.Errorf("dualvdd: job names unknown algorithm %q", a)
		}
	}
	return nil
}

// algorithms resolves the empty-means-all default.
func (j Job) algorithms() []Algorithm {
	if len(j.Algorithms) == 0 {
		return Algorithms()
	}
	return append([]Algorithm(nil), j.Algorithms...)
}

// network materializes the job's input circuit.
func (j Job) network() (*logic.Network, error) {
	if j.Benchmark != "" {
		return mcnc.Generate(j.Benchmark)
	}
	return blif.ParseNetwork(strings.NewReader(j.BLIF))
}

// Key returns the job's content address: a hex SHA-256 over the canonical
// BLIF of the input network, the resolved Config and the resolved algorithm
// list. Two jobs with the same key compute the same results, so a runner may
// answer one from the other's cached FlowResults. Canonicalization goes
// through parse → deterministic re-emit, so formatting differences (layout,
// whitespace, continuation lines) do not defeat the cache. Anything that can
// steer the flow stays significant: signal names, node and cube order, and
// of course the netlist itself. The canonical BLIF is memoized per process
// (see canonical), so keying an input seen before builds no circuit.
func (j Job) Key() (string, error) {
	canon, err := j.canonical()
	if err != nil {
		return "", err
	}
	return j.contentKey(canon)
}

// GroupKey returns the job's placement address: like Key, but with the low
// rail of a pair and the algorithm list excluded.
// It is exactly the warm-prep group a Local runs the job in — every point of
// one circuit's low-rail sweep shares a GroupKey — which is why a fleet
// coordinator shards on it: repeat traffic for one circuit lands on the
// worker whose prepared state is already warm for it. A multi-rail config
// keeps its full Rails list in the group address, so points with distinct
// rail tables keep distinct affinity.
func (j Job) GroupKey() (string, error) {
	canon, err := j.canonical()
	if err != nil {
		return "", err
	}
	return j.groupKey(canon)
}

// canonical validates the job and returns its circuit's canonical BLIF: the
// one encoding both of the job's addresses hash, so a caller that needs both
// encodes once. The bytes are memoized per process under the job's raw input
// (inputID): only a memo miss builds the circuit and writes it, and only a
// success is stored, so a bad input fails the same way on every call. The
// returned slice is shared and its capacity ends at its length; callers only
// read it.
func (j Job) canonical() ([]byte, error) {
	if err := j.Validate(); err != nil {
		return nil, err
	}
	id := j.inputID()
	if canon := canonMemo.get(id); canon != nil {
		return canon, nil
	}
	net, err := j.network()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := blif.WriteNetwork(&buf, net); err != nil {
		return nil, err
	}
	// An exact-size copy: the memo charges what it holds, and an append by
	// a caller cannot write into the shared bytes.
	canon := append(make([]byte, 0, buf.Len()), buf.Bytes()...)
	canonMemo.put(id, canon)
	return canon, nil
}

// inputID is the memo key of the job's raw input: a SHA-256 over the
// benchmark name or the inline BLIF text, tagged so that neither can pose
// as the other. Equal raw inputs encode equally; the converse is not needed,
// since two raw inputs with one canonical form only cost a second entry.
func (j Job) inputID() [sha256.Size]byte {
	if j.Benchmark != "" {
		return sha256.Sum256([]byte("benchmark\n" + j.Benchmark))
	}
	return sha256.Sum256([]byte("blif\n" + j.BLIF))
}

// canonMemoBytes bounds the canonical-encoding memo. The 39 benchmarks'
// encodings total 0.43 MB (des, the largest, is 63 KB), so the bound holds
// the whole suite several times over, inline variants included.
const canonMemoBytes = 4 << 20

// canonEntryBytes is what the memo charges an entry on top of its encoding:
// roughly the entry, its list element and its map slot.
const canonEntryBytes = 160

// canonMemo is the process-wide memo of canonical encodings. Every runner
// and caller in the process shares it: an entry is a pure function of its
// input, so sharing changes what keying costs, never a key.
var canonMemo = newCanonicalMemo(canonMemoBytes)

// canonicalMemo maps a job's input ID to its canonical BLIF, evicting the
// least recently used entries past a byte limit. It is safe for concurrent
// use.
type canonicalMemo struct {
	limit int

	mu      sync.Mutex
	size    int                                 // guarded by mu; bytes charged by resident entries
	entries map[[sha256.Size]byte]*list.Element // guarded by mu
	lru     *list.List                          // guarded by mu; front = most recent; values are *canonEntry
}

// canonEntry is one memoized encoding.
type canonEntry struct {
	id    [sha256.Size]byte
	canon []byte
}

func newCanonicalMemo(limit int) *canonicalMemo {
	return &canonicalMemo{limit: limit, entries: make(map[[sha256.Size]byte]*list.Element), lru: list.New()}
}

// get returns the encoding memoized under id, or nil.
func (m *canonicalMemo) get(id [sha256.Size]byte) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[id]
	if !ok {
		return nil
	}
	m.lru.MoveToFront(el)
	return el.Value.(*canonEntry).canon
}

// put memoizes canon under id and evicts from the least recently used end
// until the entries fit the limit. An encoding that alone exceeds the limit
// is not stored, and one already stored under id (a racing miss wrote the
// same bytes) is kept.
func (m *canonicalMemo) put(id [sha256.Size]byte, canon []byte) {
	cost := len(canon) + canonEntryBytes
	if cost > m.limit {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[id]; ok {
		return
	}
	m.entries[id] = m.lru.PushFront(&canonEntry{id: id, canon: canon})
	m.size += cost
	for m.size > m.limit {
		oldest := m.lru.Back()
		e := m.lru.Remove(oldest).(*canonEntry)
		delete(m.entries, e.id)
		m.size -= len(e.canon) + canonEntryBytes
	}
}

// contentKey hashes the content address (Key) over the canonical BLIF.
func (j Job) contentKey(canon []byte) (string, error) {
	// The config is hashed in its wire form (Config.MarshalJSON), which
	// writes a two-rail list as the vhigh/vlow pair it was before the list
	// existed.
	cfg, err := json.Marshal(j.Config)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "dualvdd-job/1\n%s\n", cfg)
	for _, a := range j.algorithms() {
		fmt.Fprintf(h, "%s ", a)
	}
	h.Write([]byte{'\n'})
	h.Write(canon)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// groupKey hashes the warm-prep group address (GroupKey) over the canonical
// BLIF: jobs with the same group share one prepared design. Its config
// bytes are prepWire's.
func (j Job) groupKey(canon []byte) (string, error) {
	cfg, err := prepWire(j.Config)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "dualvdd-warmprep/1\n%s\n", cfg)
	h.Write(canon)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// tenantKey is the context key of WithTenant.
type tenantKey struct{}

// WithTenant tags a context with the tenant a submission is accounted to.
// A fleet coordinator applies its per-tenant quotas and rate limits to the
// tag at admission; runners without tenancy ignore it. The client package
// forwards the tag over HTTP as a request header, and the server restores
// it, so tenancy crosses the wire transparently.
func WithTenant(ctx context.Context, tenant string) context.Context {
	return context.WithValue(ctx, tenantKey{}, tenant)
}

// TenantFromContext returns the tenant tag, or "" for untagged contexts.
func TenantFromContext(ctx context.Context) string {
	t, _ := ctx.Value(tenantKey{}).(string)
	return t
}

// jobBudgetKey is the context key of WithJobBudget.
type jobBudgetKey struct{}

// WithJobBudget tags a context with an end-to-end deadline budget for the
// submission it carries: the job must finish within d of now. The tag stores
// an absolute deadline, so the remaining budget shrinks naturally as the
// submission crosses hops — client retries, coordinator admission, worker
// dispatch each read what is left, not what was granted. A runner rejects an
// exhausted budget at admission with ErrBudgetExhausted and bounds the
// accepted job's execution by the remainder. Unlike the ctx deadline, the
// budget outlives the Submit call: it bounds the job, not the request that
// delivered it.
func WithJobBudget(ctx context.Context, d time.Duration) context.Context {
	//lint:wallclock-ok the budget seam itself: end-to-end deadlines are wall time by contract
	return context.WithValue(ctx, jobBudgetKey{}, time.Now().Add(d))
}

// JobBudget returns the remaining budget of a tagged context (possibly
// negative once overspent) and whether a budget is set at all.
func JobBudget(ctx context.Context) (time.Duration, bool) {
	dl, ok := ctx.Value(jobBudgetKey{}).(time.Time)
	if !ok {
		return 0, false
	}
	return time.Until(dl), true //lint:wallclock-ok the budget seam itself; see WithJobBudget
}

// DesignInfo is the serializable summary of a prepared design — what
// EventMapped reports, kept on the job status so late watchers and remote
// clients see it without replaying the stream.
type DesignInfo struct {
	// Name is the circuit name.
	Name string `json:"name"`
	// Gates is the number of live mapped gates.
	Gates int `json:"gates"`
	// MinDelay is the minimum-delay mapping's critical path (ns); Tspec the
	// relaxed constraint handed to the algorithms.
	MinDelay float64 `json:"min_delay_ns"`
	Tspec    float64 `json:"tspec_ns"`
	// OrgPower is the single-supply power in watts.
	OrgPower float64 `json:"org_power_w"`
}

// mapped is the EventMapped a job reports for this design: cache hits and
// Local runs synthesize it, since neither maps the circuit for the job.
func (d *DesignInfo) mapped() EventMapped {
	return EventMapped{Circuit: d.Name, Gates: d.Gates, MinDelay: d.MinDelay, Tspec: d.Tspec, OrgPower: d.OrgPower}
}

// JobStatus is a snapshot of one job. Terminal snapshots are immutable.
type JobStatus struct {
	ID    JobID    `json:"id"`
	State JobState `json:"state"`
	// Error holds the failure message of a failed or cancelled job.
	Error string `json:"error,omitempty"`
	// Cached reports that the job was answered from the result cache
	// without recomputation.
	Cached bool `json:"cached,omitempty"`
	// Design summarizes the prepared circuit once mapping finished.
	Design *DesignInfo `json:"design,omitempty"`
	// Results holds one FlowResult per requested algorithm, in request
	// order, once the job is done. Job results never carry a Circuit —
	// local and wire-decoded statuses have the same shape; run the Flow
	// directly when the scaled netlist itself is wanted.
	Results []*FlowResult `json:"results,omitempty"`
}

// Metrics is a counters snapshot of a job service — what the server exposes
// at /metricsz. Gauges (queued, running, cache entries) describe the moment;
// the rest are monotonic totals since construction.
type Metrics struct {
	// JobsQueued and JobsRunning are current gauges.
	JobsQueued  int `json:"jobs_queued"`
	JobsRunning int `json:"jobs_running"`
	// JobsDone, JobsFailed and JobsCancelled count terminal jobs; done
	// includes cache hits.
	JobsDone      int64 `json:"jobs_done"`
	JobsFailed    int64 `json:"jobs_failed"`
	JobsCancelled int64 `json:"jobs_cancelled"`
	// CacheHits and CacheMisses count Submit-time cache lookups;
	// CacheEntries is the current resident entry count and CacheBytes the
	// cache's storage footprint where the implementation accounts it (the
	// disk CAS does; the memory cache reports 0).
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	CacheEntries int   `json:"cache_entries"`
	CacheBytes   int64 `json:"cache_bytes,omitempty"`
	// StoreErrors counts failed writes to the durable stores (journal
	// appends, CAS puts). Jobs never fail on them — durability is
	// best-effort — but a non-zero count means restarts may recompute.
	StoreErrors int64 `json:"store_errors,omitempty"`
	// StoreDegraded is 1 while the result cache is serving from its
	// in-memory fallback because the disk backend errored persistently
	// (DegradingCache), 0 otherwise.
	StoreDegraded int `json:"store_degraded,omitempty"`
	// BudgetRejects counts submissions refused at admission because their
	// end-to-end deadline budget (WithJobBudget) was already exhausted.
	BudgetRejects int64 `json:"budget_rejects,omitempty"`
	// SubmitDedups counts resubmissions absorbed by an in-flight job with the
	// same content address: typically a client retry whose first POST landed
	// but whose response died in transit. The caller gets the live job's ID;
	// nothing is queued, computed, or charged twice.
	SubmitDedups int64 `json:"submit_dedups,omitempty"`
	// MultiRailJobs counts accepted jobs configured with three or more supply
	// rails (Config.Rails) — the slice of the workload on the multi-rail path
	// rather than the paper's classic two-rail setup. Cache hits and dedups
	// add nothing; like the eval counters, it measures actual computation.
	MultiRailJobs int64 `json:"multi_rail_jobs,omitempty"`
	// PrepBuilds and PrepReuses count the warm prepared states a Local built
	// and the runs that rode an existing one; PrepGroups is the current
	// resident group count. Reuses/Builds is the amortization ratio.
	PrepBuilds int64 `json:"prep_builds,omitempty"`
	PrepReuses int64 `json:"prep_reuses,omitempty"`
	PrepGroups int   `json:"prep_groups,omitempty"`
	// STAEvals and CandEvals total the incremental-timing and Dscale
	// candidate evaluations spent by completed runs. Cache hits add nothing —
	// the pair is how a test proves "no recomputation".
	STAEvals  int64 `json:"sta_evals"`
	CandEvals int64 `json:"cand_evals"`

	// Fleet-level gauges, set only by a fleet.Coordinator. WorkersLive and
	// WorkersDead partition the registered worker set by health;
	// PointsInFlight counts accepted jobs not yet terminal (JobsQueued +
	// JobsRunning); Redispatches counts jobs moved off a dead worker onto a
	// live one.
	WorkersLive    int   `json:"workers_live,omitempty"`
	WorkersDead    int   `json:"workers_dead,omitempty"`
	PointsInFlight int   `json:"points_in_flight,omitempty"`
	Redispatches   int64 `json:"redispatches,omitempty"`
	// QuarantinedJobs counts jobs failed as poison: they exhausted the
	// coordinator's re-dispatch budget (each attempt killing its worker) and
	// were quarantined instead of re-dispatched forever.
	QuarantinedJobs int64 `json:"quarantined_jobs,omitempty"`
	// AdmissionRejects totals submissions refused at admission (quota or
	// rate limit); TenantRejects breaks the total down per tenant. The
	// tenant tag arrives in an unauthenticated header, so the breakdown is
	// bounded: the first TenantRejectTags tenants refused are named, and
	// every later one is counted under TenantRejectsOther. The values
	// always sum to AdmissionRejects.
	AdmissionRejects int64            `json:"admission_rejects,omitempty"`
	TenantRejects    map[string]int64 `json:"tenant_rejects,omitempty"`
}

// The bound on Metrics.TenantRejects: at most TenantRejectTags named
// tenants plus the TenantRejectsOther key that folds in the rest (a tenant
// whose own tag is TenantRejectsOther shares that key).
const (
	TenantRejectTags   = 64
	TenantRejectsOther = "(other)"
)

// MetricsProvider is implemented by runners that keep service counters
// (Local does). The server's /metricsz endpoint type-asserts for it.
type MetricsProvider interface {
	Metrics() Metrics
}
