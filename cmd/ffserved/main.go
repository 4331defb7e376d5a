// Command ffserved is the simulation-as-a-service daemon: a long-running
// HTTP/JSON front door over the experiment registry and the inline
// scenario builder, serving many tenants from one warm process instead of
// cold-starting ffbench per request. Jobs run concurrently on a bounded
// worker pool with per-job panic isolation, timeouts, and cancel; repeated
// scenario shapes lease pooled warm fabrics; /metrics exposes
// Prometheus-style series. OPERATIONS.md is the operator's manual: every
// endpoint, flag, signal, and metric.
//
// Usage:
//
//	ffserved                     # listen on :8080
//	ffserved -addr 127.0.0.1:9090
//	ffserved -workers 16 -queue 256
//	ffserved -timeout 5m         # per-job wall-clock ceiling
//	ffserved -shards 4           # engine worker count for registry runs (default 1)
//	ffserved -pool 64            # idle warm-fabric pool entries
//	ffserved -drain-grace 60s    # shutdown grace on SIGTERM/SIGINT
//
// SIGTERM/SIGINT stop admission, finish (or, past the grace, cancel)
// in-flight jobs, and exit 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fastflex/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 8, "concurrent job slots")
	queue := flag.Int("queue", 64, "queued-job bound (beyond it, 429)")
	timeout := flag.Duration("timeout", 10*time.Minute, "per-job wall-clock ceiling")
	shards := flag.Int("shards", 1, "engine worker count for registry fig3, fig3x, fig3f and a6; results are identical for every value")
	pool := flag.Int("pool", 32, "idle warm-fabric pool entries")
	maxJobs := flag.Int("max-jobs", 1024, "retained finished-job records")
	drainGrace := flag.Duration("drain-grace", 30*time.Second, "shutdown grace for in-flight jobs")
	flag.Parse()

	mgr := serve.NewManager(serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		PoolSize:       *pool,
		MaxJobs:        *maxJobs,
		Shards:         *shards,
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           serve.NewServer(mgr),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("ffserved: listening on %s (workers=%d queue=%d timeout=%v shards=%d)",
		*addr, *workers, *queue, *timeout, *shards)

	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "ffserved: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	log.Printf("ffserved: signal received, draining (grace %v)", *drainGrace)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	if n, err := mgr.Drain(drainCtx); err != nil {
		log.Printf("ffserved: drain grace expired, canceled %d job(s)", n)
	} else {
		log.Printf("ffserved: drained cleanly")
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("ffserved: http shutdown: %v", err)
	}
	mgr.Close(time.Second)
	log.Printf("ffserved: bye")
}
