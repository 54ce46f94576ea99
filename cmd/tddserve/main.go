// Command tddserve is a long-running HTTP/JSON query service over
// temporal deductive databases: the Section 3.3 serving workload.
// Programs are registered once (POST /programs), preprocessed into their
// relational specifications, and then arbitrarily many queries are
// answered from the cached specification in O(rewrite) time each.
//
// Usage:
//
//	tddserve [flags] [unitfile.tdd ...]
//
// Each unitfile argument is preloaded into the registry at boot; its
// assigned id is printed to stdout.
//
// Flags:
//
//	-addr a     listen address (default 127.0.0.1:8080; port 0 picks a free port)
//	-workers n  concurrent query evaluations (default: number of CPUs)
//	-queue n    additional requests allowed to wait for a worker (default
//	            4×workers, min 64); beyond it requests fast-fail with 503 +
//	            Retry-After
//	-cache n    warm specifications kept resident, one LRU (default 64)
//	-timeout d  per-request deadline (default 30s; negative disables)
//	-window n   period-certification window budget per program (0 = engine default)
//	-quiet      suppress per-request logs
//	-slowquery d  log the full phase trace of requests slower than d (0 disables)
//	-slow-keep n  slow queries retained with full traces for GET /debug/slow
//	            (default 64; negative disables retention)
//	-pprof      mount net/http/pprof under /debug/pprof/
//	-data DIR   durable mode: base sources + WAL under DIR, warm recovery on restart
//	-fsync p    WAL fsync policy: always | interval | off (default interval)
//	-fsync-interval d  background fsync cadence under -fsync interval (default 100ms)
//	-follow URL read-only follower: tail the leader's WAL feed, reject writes
//	-follow-interval d leader poll cadence (default 500ms)
//
// Endpoints:
//
//	POST /programs               {"unit": "..."} or {"rules": "...", "facts": "..."}
//	GET  /programs               registered ids
//	POST /programs/{id}/ask      {"query": "even(1000000)"}
//	POST /programs/{id}/answers  {"query": "even(T)", "limit": 10}
//	GET  /programs/{id}/period   certified minimal period
//	GET  /programs/{id}/spec     exported relational specification (JSON)
//	GET  /programs/{id}/wal      replication feed: batches past ?from=N, base at 0
//	GET  /healthz                liveness
//	GET  /metrics                counters, latency histograms, cache stats (JSON)
//	GET  /metrics.prom           the same counters in Prometheus text exposition
//	GET  /debug/flights          in-flight requests (age, trace id) and
//	                             coalescable evaluations with joiner counts
//	GET  /debug/slow             ring buffer of the last -slow-keep slow queries
//	                             with their full phase trees
//	GET  /debug/graph            ?id=PROGRAM: predicate dependency SCC
//	                             condensation; &q=QUERY adds the query's
//	                             relevance slice
//
// Query endpoints accept ?trace=1 to return the request's phase tree
// (parse, classify, certify-period with fixpoint sweeps, answer) and the
// program's per-rule firing table inline in the response, and ?profile=1
// to return the program's EXPLAIN ANALYZE join-cost profile (per rule and
// body-literal position: tuples scanned, bindings matched, selectivity,
// attributed time, bucketed by timestamp stratum, plus per-predicate
// cardinalities). Every response carries an X-Trace-Id header matching
// the request log line; an inbound X-Trace-Id is honored, so proxies and
// followers can correlate across servers.
//
// The server shuts down gracefully on SIGINT/SIGTERM: the listener
// closes, in-flight requests drain, then the worker pool stops.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tdd/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tddserve:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent query evaluations (0 = number of CPUs)")
	queue := flag.Int("queue", 0, "waiting requests beyond the running ones (0 = 4x workers)")
	cache := flag.Int("cache", 64, "warm specifications kept resident (LRU)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline (negative disables)")
	window := flag.Int("window", 0, "period-certification window budget (0 = default)")
	quiet := flag.Bool("quiet", false, "suppress per-request logs")
	slowQuery := flag.Duration("slowquery", 0, "log full phase traces of requests slower than this (0 disables)")
	slowKeep := flag.Int("slow-keep", 0, "slow queries retained for GET /debug/slow (0 = default 64; negative disables)")
	pprofFlag := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	dataDir := flag.String("data", "", "data directory for durable programs (base sources + WAL); empty = in-memory only")
	fsync := flag.String("fsync", "interval", `WAL fsync policy: "always", "interval", or "off"`)
	fsyncInterval := flag.Duration("fsync-interval", 100*time.Millisecond, "background fsync cadence under -fsync interval")
	follow := flag.String("follow", "", "leader base URL; run as a read-only follower tailing its WAL feed")
	followInterval := flag.Duration("follow-interval", 500*time.Millisecond, "leader poll cadence under -follow")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	cfg := server.Config{
		Workers:        *workers,
		Queue:          *queue,
		CacheSize:      *cache,
		RequestTimeout: *timeout,
		MaxWindow:      *window,
		SlowQueryLog:   *slowQuery,
		SlowQueryKeep:  *slowKeep,
		EnablePprof:    *pprofFlag,
		DataDir:        *dataDir,
		Fsync:          *fsync,
		FsyncInterval:  *fsyncInterval,
		Follow:         *follow,
		FollowInterval: *followInterval,
	}
	if *slowQuery > 0 {
		// The slow-query log is the point of the flag; it must survive
		// -quiet.
		cfg.Logger = logger
	}
	if !*quiet {
		cfg.Logger = logger
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	if *dataDir != "" {
		progs, batches := srv.Recovered()
		fmt.Printf("tddserve: recovered %d program(s), %d batch(es) from %s\n", progs, batches, *dataDir)
	}
	if *follow != "" {
		fmt.Printf("tddserve: read-only follower of %s\n", *follow)
	}

	// Preload unit files so the cache is warm before the first request.
	for _, file := range flag.Args() {
		src, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		ent, existing, err := srv.Registry().Register(string(src), "", "")
		if err != nil {
			return fmt.Errorf("preloading %s: %w", file, err)
		}
		_ = existing
		fmt.Printf("tddserve: loaded %s as %s\n", file, ent.ID())
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The resolved address line is machine-readable: with -addr host:0
	// callers (tests, scripts) parse the actual port from it.
	fmt.Printf("tddserve: listening on http://%s\n", l.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	fmt.Println("tddserve: shutdown complete")
	return nil
}
