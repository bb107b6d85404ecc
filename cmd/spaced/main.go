// Command spaced serves constructed search spaces over HTTP. Clients
// submit a problem definition once; spaced constructs the space with
// the optimized solver (or any baseline method), caches it under its
// content address, and answers membership, bounds, sampling, and
// neighbor queries from the materialized result — so many clients share
// one construction.
//
//	spaced -addr :8080 -max-spaces 64 -max-bytes 2147483648
//
// Endpoints (see internal/service for request/response shapes):
//
//	POST /v1/spaces                   build or cache-hit; returns id + build stats
//	GET  /v1/spaces/{id}              metadata and true parameter bounds
//	POST /v1/spaces/{id}/contains     O(log n) membership tests
//	POST /v1/spaces/{id}/sample       seeded uniform/stratified/LHS sampling
//	POST /v1/spaces/{id}/neighbors    hamming/adjacent neighbors
//	POST /v1/spaces/{id}/sessions     create an ask/tell tuning session
//	POST .../sessions/{sid}/ask       next batch of configurations to measure
//	POST .../sessions/{sid}/tell      report measured scores/costs
//	GET  .../sessions/{sid}/best      best configuration found + trace
//	DEL  .../sessions/{sid}           end the session
//	GET  /v1/methods                  construction methods
//	POST /v1/compare                  race methods on one definition
//	GET  /v1/stats                    request + cache + session metrics
//	GET  /metrics                     Prometheus text exposition
//	GET  /v1/trace/{id}               per-request span breakdown by request ID
//	GET  /v1/trace/recent             most recently finished traces
//	GET  /v1/builds                   in-flight builds/restores with live progress
//	GET  /v1/events                   lifecycle event journal (builds, evictions, sessions)
//	GET  /v1/spaces/{id}/stats        per-space usage and cost attribution
//	GET  /healthz                     liveness
//
// Construction runs on the parallel engine by default: each build
// draws workers from a shared -build-workers pool (a lone build gets
// the whole pool, a burst splits it, so concurrent builds cannot
// oversubscribe the box), and its output is byte-identical to a
// sequential build. A client that disconnects mid-build cancels the
// construction (unless other clients are waiting on the same space);
// the optimized, both chain-of-trees, and brute-force methods stop
// mid-build, the other baselines before starting (their input size is
// admission-bounded). SIGINT/SIGTERM drain in-flight requests before
// exit.
//
// With -store-dir set, built spaces also live in an on-disk snapshot
// tier: completed builds are written through, LRU eviction demotes to
// disk instead of discarding, queries on a demoted space restore it
// transparently, and a restarted daemon warm-starts from the blobs —
// re-submitting a previously built definition is a cache hit with zero
// new solver work.
//
//	spaced -addr :8080 -store-dir /var/lib/spaced -store-max-bytes 34359738368
//
// Every response carries an X-Request-ID header (client-supplied or
// generated). With -trace-buffer > 0 (the default), each request also
// records a span breakdown — queue wait, admission, build, store
// write-through, encode — retrievable at /v1/trace/{id} while it stays
// in the ring. -slow-ms logs any request slower than the threshold
// with its slowest span, and -log-format json switches the structured
// log to machine-readable output for collectors.
//
// The operations plane rides on the same rings: GET /v1/builds lists
// every in-flight construction and restore with live done/total task
// progress, node counts, waiter counts, and ETA; with -event-buffer
// > 0 (the default) a bounded journal records lifecycle events —
// build start/finish/cancel, admission and busy rejections, evictions,
// demotions, restores, quarantines, session churn — at GET /v1/events;
// and GET /v1/spaces/{id}/stats attributes queries, batch rows, build
// time, and resident bytes to each space. `spacecli top` renders all
// three as a polling terminal view.
//
// With -pprof set, a net/http/pprof listener runs on its own address
// (never the public one) so hot-path regressions are diagnosable
// against a live daemon; see the README's "Solver hot path" section
// for a capture recipe.
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	// Registers the profiling handlers on http.DefaultServeMux, which is
	// served ONLY on the optional -pprof listener — the main service
	// handler is a dedicated mux, so profiling is never exposed on the
	// public address.
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"searchspace/internal/obs"
	"searchspace/internal/service"
	"searchspace/internal/store"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxSpaces := flag.Int("max-spaces", 128, "max cached spaces (0 = unlimited)")
	maxBytes := flag.Int64("max-bytes", 4<<30, "max estimated bytes of cached spaces (0 = unlimited)")
	maxCartesian := flag.Float64("max-cartesian", 1e12, "reject definitions whose unconstrained size exceeds this before building (0 = unlimited)")
	maxExhaustive := flag.Float64("max-exhaustive-cartesian", 1e8, "tighter pre-build limit for exhaustive methods (brute-force, original, iterative-sat; 0 = unlimited)")
	maxBuilds := flag.Int("max-builds", 4, "max concurrent constructions; excess builds queue (0 = unlimited)")
	buildWorkers := flag.Int("build-workers", 0, "total solver workers shared by concurrent constructions; a lone build gets the whole pool, a burst splits it (0 = GOMAXPROCS)")
	maxSessions := flag.Int("max-sessions", 4096, "max live tuning sessions; least recently used beyond this are evicted (0 = unlimited)")
	sessionTTL := flag.Duration("session-ttl", 30*time.Minute, "idle tuning sessions expire after this (0 = never)")
	storeDir := flag.String("store-dir", "", "directory for the on-disk snapshot tier; built spaces are written through and survive eviction and restarts (empty = persistence off)")
	storeMaxBytes := flag.Int64("store-max-bytes", 32<<30, "max bytes of snapshot blobs in -store-dir; least recently used beyond this are garbage-collected (0 = unlimited)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown deadline")
	pprofAddr := flag.String("pprof", "", "optional net/http/pprof listen address (e.g. 127.0.0.1:6060) for diagnosing hot-path regressions against a live daemon; empty = off")
	traceBuffer := flag.Int("trace-buffer", 512, "finished request traces kept for /v1/trace/{id} (0 = tracing off)")
	eventBuffer := flag.Int("event-buffer", 1024, "lifecycle events kept for /v1/events — build start/finish/cancel, evict, demote, restore, quarantine, session churn (0 = journaling off)")
	slowMs := flag.Int("slow-ms", 0, "log requests slower than this many milliseconds with their slowest span (0 = off)")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	flag.Parse()

	if *logFormat != "text" && *logFormat != "json" {
		slog.Error("spaced: -log-format must be text or json", "got", *logFormat)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, *logFormat, slog.LevelInfo)
	// Library layers (the snapshot store's quarantine warning, for one)
	// log through the process default; route them to the same handler.
	slog.SetDefault(logger)

	if *pprofAddr != "" {
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr,
				"cpu_profile", "go tool pprof http://"+*pprofAddr+"/debug/pprof/profile?seconds=10")
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Error("pprof listener", "err", err)
			}
		}()
	}

	var blobs *store.Store
	if *storeDir != "" {
		var err error
		blobs, err = store.Open(store.Config{Dir: *storeDir, MaxBytes: *storeMaxBytes})
		if err != nil {
			logger.Error("snapshot store open failed", "dir", *storeDir, "err", err)
			os.Exit(1)
		}
		st := blobs.Stats()
		// Warm start: every scanned blob is a space the next build of
		// that definition gets as a cache hit without rebuilding.
		logger.Info("snapshot store warm start", "dir", *storeDir, "snapshots", st.Blobs, "bytes", st.Bytes)
	}

	reg := service.NewRegistry(service.RegistryConfig{
		MaxEntries: *maxSpaces, MaxBytes: *maxBytes,
		MaxCartesian: *maxCartesian, MaxExhaustiveCartesian: *maxExhaustive,
		MaxConcurrentBuilds: *maxBuilds,
		BuildWorkers:        *buildWorkers,
		Store:               blobs,
	})
	srv := service.NewServerObs(reg, service.SessionConfig{
		MaxSessions: *maxSessions, TTL: *sessionTTL,
	}, service.ObsConfig{
		TraceBuffer:   *traceBuffer,
		EventBuffer:   *eventBuffer,
		SlowThreshold: time.Duration(*slowMs) * time.Millisecond,
		Logger:        logger,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Info("spaced listening", "addr", *addr,
			"max_spaces", *maxSpaces, "max_bytes", *maxBytes,
			"trace_buffer", *traceBuffer, "slow_ms", *slowMs)
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)

	select {
	case err := <-errCh:
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	case sig := <-sigCh:
		logger.Info("draining", "signal", sig.String(), "deadline", drainTimeout.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err == nil {
		// A build or restore finishing as the server stops still writes
		// the snapshots of what it evicted; let those land before
		// exiting. (A drain that timed out leaves requests and their
		// builds running, so it does not wait.)
		reg.Wait()
	} else if !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("shutdown", "err", err)
	}
	logger.Info("final cache state", "cache", reg.Stats().String())
	if blobs != nil {
		logger.Info("final store state", "store", blobs.Stats().String())
	}
	st := srv.Sessions().Stats()
	logger.Info("final session state",
		"active", st.Active, "created", st.Created,
		"expired_ttl", st.ExpiredTTL, "evicted_lru", st.EvictedLRU,
		"deleted", st.Deleted, "dehydrated", st.Dehydrated, "rehydrated", st.Rehydrated)
}
