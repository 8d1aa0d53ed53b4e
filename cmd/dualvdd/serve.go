package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dualvdd"
	"dualvdd/server"
)

// runServe is the `dualvdd serve` subcommand: a Local job service behind the
// HTTP API. It prints the bound address (so -listen with port 0 is usable
// from scripts), serves until SIGINT/SIGTERM, then drains gracefully —
// in-flight and queued jobs finish before the process exits, bounded by
// -drain-timeout.
func runServe(args []string) {
	fs := flag.NewFlagSet("dualvdd serve", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	workers := fs.Int("workers", 1, "concurrent job workers")
	queueDepth := fs.Int("queue-depth", 64, "bounded job queue depth (a full queue rejects submissions with 429)")
	cacheEntries := fs.Int("cache-entries", 256, "content-addressed result cache size (0 disables)")
	storeDir := fs.String("store", "", "durable state directory (disk result CAS + job journal); empty keeps everything in memory")
	durability := fs.String("durability", "interval", "fsync policy for -store: none|interval|commit")
	requestTimeout := fs.Duration("request-timeout", time.Minute, "how long a ?wait=1 status poll may block")
	drainTimeout := fs.Duration("drain-timeout", time.Minute, "shutdown grace; jobs still running after this are cancelled")
	fs.Parse(args)

	lopts := []dualvdd.LocalOption{
		dualvdd.LocalWorkers(*workers),
		dualvdd.LocalQueueDepth(*queueDepth),
		dualvdd.LocalCacheEntries(*cacheEntries),
	}
	if *storeDir != "" {
		cache, journal := openStores(*storeDir, *cacheEntries, *durability)
		defer journal.Close()
		lopts = append(lopts, dualvdd.LocalResultCache(cache), dualvdd.LocalJobStore(journal))
	}
	local := dualvdd.NewLocal(lopts...)
	api := server.New(local, server.WithRequestTimeout(*requestTimeout))
	serveHTTP(*listen, "", api, local.Close, *drainTimeout)
}

// serveHTTP is what serve and fleet share: it listens on addr, prints the
// bound address (what names the service, if anything, goes before "serving
// on"), serves api until SIGINT/SIGTERM, then drains the runner through
// drain within drainTimeout and shuts the HTTP server down. An expired drain
// exits 1.
func serveHTTP(addr, what string, api http.Handler, drain func(context.Context) error, drainTimeout time.Duration) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dualvdd: %sserving on http://%s\n", what, ln.Addr())

	// No WriteTimeout: it would cut long SSE streams; the server applies
	// per-write deadlines to those itself.
	httpSrv := &http.Server{Handler: api, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-stop:
		fmt.Fprintf(os.Stderr, "dualvdd: %v — draining\n", sig)
	case err := <-errc:
		fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	// Drain the job service first: queued and running jobs complete (new
	// submissions 503 with ErrClosed meanwhile), which also ends their SSE
	// streams — http.Server.Shutdown never interrupts active requests, so
	// the transport can only close after the jobs do. If the grace period
	// expires, remaining jobs are cancelled and we exit without waiting on
	// lingering connections.
	drainErr := drain(ctx)
	_ = httpSrv.Shutdown(ctx)
	if drainErr != nil {
		fmt.Fprintf(os.Stderr, "dualvdd: drain expired, jobs cancelled: %v\n", drainErr)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "dualvdd: drained")
}
