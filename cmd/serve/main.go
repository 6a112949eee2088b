// Command serve runs the backbone-as-a-service daemon: an HTTP server that
// computes WCDS backbones, dilation reports and backbone broadcasts on
// demand, with a bounded worker pool, a content-addressed result cache and
// Prometheus-style metrics.
//
// Usage:
//
//	serve [flags]
//
//	-addr :8080      listen address
//	-workers 0       pool goroutines (0 = GOMAXPROCS)
//	-queue 0         pending-job queue bound (0 = 4 × workers)
//	-cache 1024      result-cache entries
//	-timeout 30s     per-request deadline (queue wait + compute)
//	-maxnodes 20000  largest accepted network
//	-grace 30s       graceful-drain window before in-flight work is cancelled
//
// The server drains gracefully on SIGINT/SIGTERM: the listener closes, the
// pool finishes accepted jobs, then the process exits. Past the -grace
// window, still-running jobs and open sessions are cancelled through their
// run contexts instead of being waited out.
//
// Endpoints:
//
//	POST /v1/backbone   {"seed":42,"n":500,"avgDegree":10,"algorithm":"II","mode":"sync"}
//	POST /v1/dilation   {"seed":42,"n":300,"avgDegree":8,"pairs":500}
//	POST /v1/broadcast  {"seed":42,"n":300,"avgDegree":8,"source":0}
//	POST /v1/batch      {"sizes":[...],"degrees":[...],"seeds":[...],"workloads":[...]}
//	POST /v1/shard      batch spec + {"lo":0,"hi":8} — one scenario range, rows
//	                    keep global indices (cluster mode; see cmd/fleet)
//	GET  /healthz
//	GET  /metrics
//
// Batch and shard requests accept ?stream=ndjson to stream rows as they
// finish. A group of serve processes forms a cluster-mode fleet behind
// cmd/fleet, which fans one sweep out over /v1/shard and merges the rows
// back digest-identically.
//
// The command serves; it does not grade itself. Concurrent mixed load
// through the real HTTP stack, with 429s retried until every request ends
// 200 and the cache hits, is the service package's TestConcurrentMixedLoad.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wcdsnet/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "pool goroutines (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 0, "pending-job queue bound (0 = 4 × workers)")
		cacheSize = flag.Int("cache", 1024, "result-cache entries")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-request deadline")
		maxNodes  = flag.Int("maxnodes", 20000, "largest accepted network")
		maxBatch  = flag.Int("maxbatch", 0, "largest accepted batch sweep in scenarios (0 = default, -1 = unbounded)")
		grace     = flag.Duration("grace", 30*time.Second, "graceful-drain window; past it, in-flight jobs and open sessions are cancelled")
	)
	flag.Parse()

	svc := service.New(service.Options{
		Workers:           *workers,
		QueueSize:         *queue,
		CacheSize:         *cacheSize,
		RequestTimeout:    *timeout,
		MaxNodes:          *maxNodes,
		MaxBatchScenarios: *maxBatch,
	})
	defer svc.Close()

	server := &http.Server{Addr: *addr, Handler: svc.Handler()}
	errc := make(chan error, 1)
	go func() {
		fmt.Printf("serve: listening on %s\n", *addr)
		if err := server.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("serve: %v, draining\n", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := server.Shutdown(ctx); err != nil {
		if !errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("shutdown: %w", err)
		}
		// Grace period expired with work still running (long jobs, open
		// session streams). Cancel it all through the run contexts, then
		// give the unwound handlers a moment before closing the listener
		// hard.
		fmt.Println("serve: grace period expired, cancelling in-flight work")
		svc.CancelInFlight()
		ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel2()
		if err := server.Shutdown(ctx2); err != nil {
			_ = server.Close()
		}
	}
	svc.Close() // drain the pool after the listener stops accepting
	fmt.Println("serve: drained, bye")
	return nil
}
