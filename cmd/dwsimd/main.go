// dwsimd is the simulation-as-a-service daemon: a long-running HTTP
// server that accepts simulation jobs as validated JSON, one point each,
// deduplicates them through the singleflight report.Session, executes
// them on a bounded worker pool over the on-disk result store,
// and streams observability events for traced runs as Server-Sent
// Events. See README "Running the server" for the endpoint reference.
//
// Usage:
//
//	dwsimd -addr :8091
//	dwsimd -addr :8091 -j 4 -cachemb 256
//
//	curl -s localhost:8091/healthz
//	curl -s -X POST localhost:8091/v1/jobs -d '{"schema_version":1,"bench":"Merge","knobs":{"scheme":"DWS.ReviveSplit"}}'
//	curl -s localhost:8091/v1/jobs/j001
//	curl -s localhost:8091/v1/results/<result_key>
//	curl -sN localhost:8091/v1/jobs/j002/stream        # traced job: SSE
//	curl -s localhost:8091/metrics                     # Prometheus text
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/report"
	"repro/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8091", "listen address")
		cacheMB  = flag.Int64("cachemb", 0, "LRU byte cap on the store in MiB (0 = unbounded)")
		openSess = report.SessionFlags(flag.CommandLine)
	)
	flag.Parse()
	// Past 2^43 - 1 MiB the byte count overflows; either bad value would
	// otherwise reach the store as "unbounded".
	if *cacheMB < 0 || *cacheMB >= 1<<43 {
		fmt.Fprintf(os.Stderr, "dwsimd: -cachemb %d: want 0 (unbounded) to %d MiB\n", *cacheMB, int64(1<<43-1))
		os.Exit(1)
	}

	session, st := openSess("dwsimd", report.StoreOptions{MaxBytes: *cacheMB << 20})

	srv := serve.New(serve.Config{Session: session, Store: st})
	srv.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dwsimd:", err)
		os.Exit(1)
	}
	// No WriteTimeout: an SSE stream is many writes, each with its own deadline.
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	// SIGINT/SIGTERM: stop accepting, give open requests a moment (a stream
	// of a running job would otherwise hold the process), then drain the
	// jobs already accepted, however long they take, and exit 0. A second
	// signal kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		<-ctx.Done()
		stop()
		grace, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		if hs.Shutdown(grace) != nil {
			hs.Close() //nolint:errcheck // the listener is already closed
		}
	}()
	// Announced only now, so whoever reads the line may signal at once.
	fmt.Fprintf(os.Stderr, "dwsimd: serving on http://%s/ (POST /v1/jobs, GET /metrics; schema v%d)\n",
		ln.Addr(), serve.WireSchemaVersion)
	if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "dwsimd:", err)
		os.Exit(1)
	}
	<-closed
	srv.Close()
}
