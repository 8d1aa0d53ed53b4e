package main

import (
	"flag"
	"fmt"
	"path/filepath"
	"time"

	"dualvdd"
	"dualvdd/fleet"
	"dualvdd/internal/store"
	"dualvdd/server"
)

// workerList is a repeatable -worker flag; each occurrence may itself be a
// comma list, so `-worker a,b -worker c` and `-worker a -worker b -worker c`
// are the same fleet.
type workerList []string

func (w *workerList) String() string { return fmt.Sprint([]string(*w)) }

func (w *workerList) Set(s string) error {
	*w = append(*w, splitList(s)...)
	return nil
}

// openStores opens the durable-state pair under dir: the result CAS in
// dir/cas and the job journal at dir/jobs.log. Both subcommands that take a
// -store flag wire the same layout, so a `dualvdd fleet` can be pointed at a
// directory a `dualvdd serve` wrote, and vice versa.
//
// durability picks the fsync policy of both stores:
//
//	none      appends land in the page cache; a machine crash may lose the tail
//	interval  the journal fsyncs every 16 records (the default)
//	commit    every journal record and every CAS entry is fsynced before ack
//
// The CAS is wrapped in a DegradingCache: if the disk starts failing
// persistently the service trips to a bounded in-memory cache (visible as
// the store_degraded metric) instead of going down with it.
func openStores(dir string, cacheEntries int, durability string) (dualvdd.ResultCache, *store.Journal) {
	casOpts := []store.CASOption{store.CASMaxEntries(cacheEntries)}
	journalOpts := []store.JournalOption{}
	switch durability {
	case "none":
		journalOpts = append(journalOpts, store.JournalSyncEvery(0))
	case "interval":
		journalOpts = append(journalOpts, store.JournalSyncEvery(16))
	case "commit":
		journalOpts = append(journalOpts, store.JournalSyncEvery(1))
		casOpts = append(casOpts, store.CASSync())
	default:
		fatal(fmt.Errorf("unknown -durability %q (none|interval|commit)", durability))
	}
	cas, err := store.OpenCAS(filepath.Join(dir, "cas"), casOpts...)
	if err != nil {
		fatal(err)
	}
	journal, err := store.OpenJournal(filepath.Join(dir, "jobs.log"), journalOpts...)
	if err != nil {
		fatal(err)
	}
	fallback := cacheEntries
	if fallback <= 0 {
		fallback = 256 // the disk CAS may be unbounded; the memory fallback never is
	}
	return dualvdd.NewDegradingCache(cas, fallback, 3), journal
}

// runFleet is the `dualvdd fleet` subcommand: a sharding coordinator over N
// worker services, itself served behind the same HTTP API as `dualvdd serve`
// — clients cannot tell the difference. Jobs are placed on workers by
// consistent hashing of their warm-prep group key, finished results land in
// the (optionally disk-backed) CAS, and with -store a restarted coordinator
// answers every already-computed point from disk without recomputation.
func runFleet(args []string) {
	fs := flag.NewFlagSet("dualvdd fleet", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	var workers workerList
	fs.Var(&workers, "worker", "worker base URL (repeatable, or comma-separated)")
	storeDir := fs.String("store", "", "durable state directory (disk result CAS + job journal); empty keeps everything in memory")
	durability := fs.String("durability", "interval", "fsync policy for -store: none|interval|commit")
	cacheEntries := fs.Int("cache-entries", 256, "content-addressed result cache size (0 means unbounded on disk)")
	vnodes := fs.Int("vnodes", 64, "virtual nodes per worker on the hash ring")
	healthInterval := fs.Duration("health-interval", 2*time.Second, "worker health probe period")
	healthTimeout := fs.Duration("health-timeout", time.Second, "per-probe timeout")
	deadAfter := fs.Int("dead-after", 2, "consecutive probe failures before a worker is marked dead")
	redispatchBudget := fs.Int("redispatch-budget", 3, "dispatch attempts that may kill their worker before a job is quarantined as poison")
	dispatchPatience := fs.Duration("dispatch-patience", 30*time.Second, "how long a job waits for any live worker before failing undeliverable")
	tenantRate := fs.Float64("tenant-rate", 0, "per-tenant admission rate in jobs/sec (0 disables rate limiting)")
	tenantBurst := fs.Int("tenant-burst", 1, "per-tenant admission burst")
	tenantQuota := fs.Int("tenant-quota", 0, "per-tenant in-flight job quota (0 disables)")
	requestTimeout := fs.Duration("request-timeout", time.Minute, "how long a ?wait=1 status poll may block")
	drainTimeout := fs.Duration("drain-timeout", time.Minute, "shutdown grace; jobs still running after this are cancelled")
	fs.Parse(args)

	if len(workers) == 0 {
		fatal(fmt.Errorf("fleet: at least one -worker URL is required"))
	}

	fopts := []fleet.Option{
		fleet.WithVnodes(*vnodes),
		fleet.WithHealth(*healthInterval, *healthTimeout, *deadAfter),
		fleet.WithTenantRate(*tenantRate, *tenantBurst),
		fleet.WithTenantQuota(*tenantQuota),
		fleet.WithRedispatchBudget(*redispatchBudget),
		fleet.WithDispatchPatience(*dispatchPatience),
	}
	if *storeDir != "" {
		cache, journal := openStores(*storeDir, *cacheEntries, *durability)
		defer journal.Close()
		fopts = append(fopts, fleet.WithResultCache(cache), fleet.WithJobStore(journal))
	} else {
		fopts = append(fopts, fleet.WithResultCache(dualvdd.NewMemoryCache(*cacheEntries)))
	}

	co, err := fleet.New(workers, fopts...)
	if err != nil {
		fatal(err)
	}
	api := server.New(co, server.WithRequestTimeout(*requestTimeout))
	serveHTTP(*listen, fmt.Sprintf("fleet of %d workers ", len(workers)), api, co.Close, *drainTimeout)
}
