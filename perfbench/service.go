package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dualvdd"
	"dualvdd/client"
	"dualvdd/fleet"
	"dualvdd/internal/blif"
	"dualvdd/internal/mcnc"
	"dualvdd/internal/store"
	"dualvdd/server"
)

const (
	serviceJobs    = 1000 // jobs per round: p99 keeps ten samples beyond it
	serviceClients = 2    // closed-loop clients, one per core
	// The CLI defaults of `dualvdd serve` and `dualvdd fleet`.
	cacheEntries    = 256
	queueDepth      = 64
	journalSync     = 16 // -durability interval
	requestTimeout  = time.Minute
	workerRetryBase = 100 * time.Millisecond
	workerRetryMax  = time.Second
)

// servicePoint is one point of the service mix.
type servicePoint struct {
	circuit string
	rails   []float64
}

// serviceCircuits are the load generator's circuits.
var serviceCircuits = []string{"x2", "pm1", "z4ml"}

// servicePoints is the 69-point grid: each circuit at VDDL 3.0 to 4.8 V in
// 0.1 V steps, and on the 3-rail tables [5.0, m, 3.3].
func servicePoints() []servicePoint {
	var pts []servicePoint
	for _, c := range serviceCircuits {
		for i := 0; i <= 18; i++ {
			pts = append(pts, servicePoint{c, []float64{5.0, math.Round(30+float64(i)) / 10}})
		}
		for _, m := range []float64{4.6, 4.3, 4.0, 3.7} {
			pts = append(pts, servicePoint{c, []float64{5.0, m, 3.3}})
		}
	}
	return pts
}

// draw is one job of a round: a point, submitted by name or as inline BLIF.
type draw struct {
	point int
	blif  bool
}

// serviceMix draws one round of n jobs from rng: Zipf(s=1.2) ranks over a
// fresh permutation of the points, and half of the draws as inline BLIF.
// Each round draws its own permutation, so the hot points differ from round
// to round and a run's medians do not hinge on which few points one
// permutation made hot.
func serviceMix(rng *rand.Rand, points, n int) []draw {
	perm := rng.Perm(points)
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(points-1))
	out := make([]draw, n)
	for i := range out {
		out[i].point = perm[zipf.Uint64()]
	}
	for _, i := range rng.Perm(n)[:n/2] {
		out[i].blif = true
	}
	return out
}

// job builds the point's job: CVS at 32 simulation words, the load
// generator's defaults.
func (p servicePoint) job(blifText string) dualvdd.Job {
	opts := []dualvdd.Option{
		dualvdd.WithRails(p.rails...),
		dualvdd.WithSimWords(32),
		dualvdd.WithAlgorithms(dualvdd.AlgoCVS),
	}
	if blifText != "" {
		return dualvdd.BLIFJob(blifText, opts...)
	}
	return dualvdd.BenchmarkJob(p.circuit, opts...)
}

// circuitBLIF is the circuit's network as .names-form BLIF.
func circuitBLIF(name string) (string, error) {
	net, err := mcnc.Generate(name)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := blif.WriteNetwork(&buf, net); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// serviceRef is a point's expected job outcome, from an in-process Flow run.
type serviceRef struct {
	design, results string
}

func designPrint(d *dualvdd.DesignInfo) string {
	b, _ := json.Marshal(d) // a DesignInfo always encodes
	return string(b)
}

func serviceReference(ctx context.Context, p servicePoint) (serviceRef, error) {
	job := p.job("")
	flow := dualvdd.New(dualvdd.FromConfig(job.Config), dualvdd.WithAlgorithms(job.Algorithms...))
	d, err := flow.PrepareBenchmark(ctx, p.circuit)
	if err != nil {
		return serviceRef{}, err
	}
	res, err := flow.Run(ctx, d)
	if err != nil {
		return serviceRef{}, err
	}
	info := &dualvdd.DesignInfo{Name: d.Name, Gates: d.Circuit.NumLiveGates(),
		MinDelay: d.MinDelay, Tspec: d.Tspec, OrgPower: d.OrgPower}
	return serviceRef{design: designPrint(info), results: fingerprint(res)}, nil
}

// stack is the fleet path wired the way `dualvdd fleet -store` and two
// `dualvdd serve` workers wire it, on loopback TCP in this process.
type stack struct {
	dir     string
	cache   *dualvdd.DegradingCache
	journal *store.Journal
	locals  []*dualvdd.Local
	co      *fleet.Coordinator
	servers []*http.Server
	client  *client.Client
	counts  *seamCounts
}

// serve starts an HTTP server for h on a free loopback port.
func (s *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.servers = append(s.servers, srv)
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed at Shutdown
	return "http://" + ln.Addr().String(), nil
}

// startStack opens empty stores under dir, starts two workers and the
// coordinator, and waits for the coordinator's first health probe. With a
// tracer the stack's seams carry the tracing wrappers.
func startStack(ctx context.Context, dir string, tr *tracer) (_ *stack, err error) {
	s := &stack{dir: dir, counts: &seamCounts{}}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	cas, err := store.OpenCAS(filepath.Join(dir, "cas"), store.CASMaxEntries(cacheEntries))
	if err != nil {
		return nil, err
	}
	s.cache = dualvdd.NewDegradingCache(cas, cacheEntries, 3)
	if s.journal, err = store.OpenJournal(filepath.Join(dir, "jobs.log"), store.JournalSyncEvery(journalSync)); err != nil {
		return nil, err
	}
	wrapH := func(h http.Handler) http.Handler {
		if tr == nil {
			return h
		}
		return tracedHandler{h: h, tr: tr}
	}

	var urls []string
	for i := 0; i < 2; i++ {
		local := dualvdd.NewLocal(dualvdd.LocalWorkers(1), dualvdd.LocalQueueDepth(queueDepth),
			dualvdd.LocalCacheEntries(cacheEntries))
		s.locals = append(s.locals, local)
		var r dualvdd.Runner = local
		if tr != nil {
			res := newResidence(tr)
			r = wrapRunner(local, &tracedRunner{tr: tr, side: "local",
				afterSubmit: func(id dualvdd.JobID, end int64) {
					peak(&s.counts.queueDepth, int64(local.Metrics().JobsQueued))
					res.submit(id, end)
				},
				afterResult: res.result})
		}
		url, err := s.serve(wrapH(server.New(r, server.WithRequestTimeout(requestTimeout))))
		if err != nil {
			return nil, err
		}
		urls = append(urls, url)
	}

	var cache dualvdd.ResultCache = s.cache
	var journal dualvdd.JobStore = s.journal
	fopts := []fleet.Option{
		fleet.WithVnodes(64),
		fleet.WithHealth(2*time.Second, time.Second, 2),
		fleet.WithRedispatchBudget(3),
		fleet.WithDispatchPatience(30 * time.Second),
	}
	var copts []client.Option
	if tr != nil {
		cache = wrapCache(cache, tr, s.counts)
		journal = &tracedJournal{s: journal, tr: tr, n: s.counts}
		fopts = append(fopts, fleet.WithDialer(tracedDialer(tr, s.counts)))
		copts = append(copts, client.WithHTTPClient(&http.Client{
			Transport: &countingTransport{rt: http.DefaultTransport, tr: tr, n: s.counts}}))
	}
	fopts = append(fopts, fleet.WithResultCache(cache), fleet.WithJobStore(journal))
	if s.co, err = fleet.New(urls, fopts...); err != nil {
		return nil, err
	}
	var cr dualvdd.Runner = s.co
	if tr != nil {
		cr = wrapRunner(s.co, &tracedRunner{tr: tr, side: "coord"})
	}
	url, err := s.serve(wrapH(server.New(cr, server.WithRequestTimeout(requestTimeout))))
	if err != nil {
		return nil, err
	}
	if s.client, err = client.New(url, copts...); err != nil {
		return nil, err
	}
	if err := s.client.Health(ctx); err != nil {
		return nil, fmt.Errorf("coordinator health: %w", err)
	}
	return s, nil
}

// close drains the coordinator, then the workers, shuts the servers down,
// closes the stores and removes them. Every step is best-effort: the stack
// is discarded either way.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if s.co != nil {
		_ = s.co.Close(ctx)
	}
	for _, l := range s.locals {
		_ = l.Close(ctx)
	}
	for _, srv := range s.servers {
		_ = srv.Shutdown(ctx)
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	if s.journal != nil {
		_ = s.journal.Close()
	}
	if s.cache != nil {
		_ = s.cache.Close()
	}
	_ = os.RemoveAll(s.dir)
}

// setupServiceProbe is the service's set-up as the probe measures it.
func setupServiceProbe(ctx context.Context, o options) (func(), error) {
	s, err := startStack(ctx, filepath.Join(o.dir, fmt.Sprintf("probe-%d", os.Getpid())), nil)
	if err != nil {
		return nil, err
	}
	return s.close, nil
}

// jobOut is one client-observed job.
type jobOut struct {
	st  *dualvdd.JobStatus
	lat time.Duration
	err error
}

// round is one service round's outcome.
type round struct {
	jobs      []jobOut
	wall, cpu float64            // s of the closed loop, set-up and teardown excluded
	rssMB     float64            // peak resident set size during the loop
	layers    map[string]float64 // traced rounds only
}

// serviceRound runs one closed-loop round of the jobs on a fresh stack.
func serviceRound(ctx context.Context, dir string, tr *tracer, jobs []dualvdd.Job) (*round, error) {
	s, err := startStack(ctx, dir, tr)
	if err != nil {
		return nil, err
	}
	c0 := readCounters()
	meter := startPass()
	outs := make([]jobOut, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < serviceClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
				outs[i] = serviceJob(ctx, tr, s.client, jobs[i], i)
			}
		}()
	}
	wg.Wait()
	r := &round{jobs: outs, wall: time.Since(start).Seconds()}
	r.cpu, r.rssMB = meter.end()
	if tr == nil {
		s.close()
		return r, nil
	}
	var localHits, dedups int64
	for _, l := range s.locals {
		lm := l.Metrics()
		localHits += lm.CacheHits
		dedups += lm.SubmitDedups
	}
	redispatches := s.co.Metrics().Redispatches
	// Closing drains the coordinator, so the spans it records after a job
	// is published (the journal append) land in this round.
	s.close()
	c := readCounters().sub(c0)
	spans := tr.take()
	st := statsOf(spans)
	m := layersOf(st, c, passWork{})
	n := s.counts
	gets := st.count["store.cas_get"]
	for k, v := range map[string]float64{
		"http.server_ms":          st.ms("http.server"),
		"http.hop_ms":             st.ms("http.hop"),
		"http.round_trips":        float64(st.count["http.hop"]),
		"http.retries":            float64(n.retries.Load()),
		"http.resp_bytes":         float64(n.respBytes.Load()),
		"store.cas_get_ms":        st.ms("store.cas_get"),
		"store.cas_gets":          float64(gets),
		"store.journal_append_ms": st.ms("store.journal_append"),
		"store.journal_appends":   float64(st.count["store.journal_append"]),
		"store.cas_put_ms":        st.ms("store.cas_put"),
		"store.cas_puts":          float64(st.count["store.cas_put"]),
		"store.errors":            float64(n.storeErrors.Load() + s.cache.Errors()),
		"fleet.dispatch_ms":       st.ms("fleet.dispatch"),
		"fleet.dispatches":        float64(n.dispatches.Load()),
		"fleet.redispatches":      float64(redispatches),
		"fleet.health_probes":     float64(n.healthProbes.Load()),
		"fleet.worker_cache_hits": float64(n.workerCacheHits.Load()),
		"local.submit_ms":         st.ms("local.submit"),
		"local.result_ms":         st.ms("local.job"),
		"local.queue_depth":       float64(n.queueDepth.Load()),
		"local.cache_hits":        float64(localHits),
		"local.submit_dedups":     float64(dedups),
	} {
		m[k] = v
	}
	if gets > 0 {
		m["store.cas_hit_ratio"] = float64(n.casHits.Load()) / float64(gets)
	}
	tr.keep(spans)
	r.layers = m
	return r, nil
}

// serviceJob submits one job and waits for its result. Traced, the job's
// content and placement keys are computed first, as their own spans.
func serviceJob(ctx context.Context, tr *tracer, c *client.Client, job dualvdd.Job, i int) jobOut {
	op := ""
	if tr != nil {
		op = fmt.Sprint("job-", i)
		_, ks := tr.begin(ctx, "runner.key", op)
		_, kerr := job.Key()
		ks.end()
		_, gs := tr.begin(ctx, "runner.group_key", op)
		_, gerr := job.GroupKey()
		gs.end()
		if err := errors.Join(kerr, gerr); err != nil {
			return jobOut{err: err}
		}
	}
	start := time.Now()
	jctx, js := tr.begin(ctx, "job", op)
	id, err := c.Submit(jctx, job)
	var st *dualvdd.JobStatus
	if err == nil {
		st, err = c.Result(jctx, id)
	}
	js.end()
	return jobOut{st: st, lat: time.Since(start), err: err}
}

// checkService counts a round's jobs and failures: a job that errored or
// did not finish, or whose design or results (ignoring Cached) differ from
// the in-process Flow run of its point. It returns the successful jobs and
// their latencies.
func checkService(out *outcome, outs []jobOut, mix []draw, refs []serviceRef) (int, []float64) {
	ok := 0
	var lat []float64
	for i, j := range outs {
		out.attempted++
		ref := refs[mix[i].point]
		switch {
		case j.err != nil:
			out.fail(false, "service job %d: %v", i, j.err)
		case j.st.State != dualvdd.JobDone:
			out.fail(false, "service job %d: %s: %s", i, j.st.State, j.st.Error)
		case j.st.Design == nil || designPrint(j.st.Design) != ref.design || fingerprint(j.st.Results) != ref.results:
			out.fail(true, "service job %d: result differs from the in-process flow", i)
		default:
			ok++
			lat = append(lat, float64(j.lat)/1e6)
		}
	}
	return ok, lat
}

// runService drives the fleet path: a closed loop of two clients against a
// coordinator with a disk CAS and journal over two workers, each round on a
// fresh, empty stack. Untraced, it runs rounds until the run's time is up;
// traced, it alternates untraced and traced rounds and reports the traced
// rounds' per-layer medians.
func runService(ctx context.Context, o options) (*outcome, error) {
	pts := servicePoints()
	blifs := map[string]string{}
	for _, c := range serviceCircuits {
		b, err := circuitBLIF(c)
		if err != nil {
			return nil, err
		}
		blifs[c] = b
	}
	refs := make([]serviceRef, len(pts))
	for i, p := range pts {
		r, err := serviceReference(ctx, p)
		if err != nil {
			return nil, fmt.Errorf("service reference %s %v: %w", p.circuit, p.rails, err)
		}
		refs[i] = r
	}
	rng := rand.New(rand.NewSource(o.seed))
	nextRound := func() ([]draw, []dualvdd.Job) {
		mix := serviceMix(rng, len(pts), serviceJobs)
		jobs := make([]dualvdd.Job, len(mix))
		for i, d := range mix {
			p := pts[d.point]
			if d.blif {
				jobs[i] = p.job(blifs[p.circuit])
			} else {
				jobs[i] = p.job("")
			}
		}
		return mix, jobs
	}

	out := &outcome{}
	dir := filepath.Join(o.dir, fmt.Sprintf("service-%d", os.Getpid()))
	var tracedWalls, plainWalls []float64
	var layerRounds []map[string]float64
	tr := newTracer(false)
	minRounds := 1
	if o.trace {
		minRounds = 4 // two of each kind
	}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for round := 0; round < minRounds || time.Now().Before(deadline); round++ {
		var rt *tracer
		if o.trace && round%2 == 1 {
			rt = tr
		}
		mix, jobs := nextRound()
		r, err := serviceRound(ctx, dir, rt, jobs)
		if err != nil {
			return nil, err
		}
		ok, lat := checkService(out, r.jobs, mix, refs)
		switch {
		case rt != nil:
			tracedWalls = append(tracedWalls, r.wall)
			layerRounds = append(layerRounds, r.layers)
		case o.trace:
			plainWalls = append(plainWalls, r.wall)
		default:
			out.passes = append(out.passes, timedPass{wall: r.wall, cpu: r.cpu, rssMB: r.rssMB, ops: ok, latMs: lat})
		}
	}
	if o.trace {
		out.layers = map[string]float64{}
		for _, m := range perLayer {
			var vals []float64
			for _, r := range layerRounds {
				vals = append(vals, r[m.name])
			}
			out.layers[m.name] = median(vals)
		}
		out.layers["trace.overhead_pct"] = (median(tracedWalls)/median(plainWalls) - 1) * 100
		out.spans = tr.kept
	}
	return out, nil
}
