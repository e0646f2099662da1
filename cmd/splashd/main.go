// Command splashd serves the characterization suite over HTTP:
// experiment requests (which table or figure, which programs, which
// machine parameters) run on one shared engine and return the same JSON
// that `characterize -format json` prints.
//
// Usage:
//
//	splashd                          # listen on :8095, cached, GOMAXPROCS workers
//	splashd -addr 127.0.0.1:9000
//	splashd -j 8 -cache-dir /var/cache/splash2
//	splashd -no-cache                # memo only, nothing on disk
//	splashd -max-inflight 4 -max-queue 16 -per-client 8
//	splashd -timeout 5m              # per-experiment timeout
//	splashd -drain-timeout 30s       # graceful SIGTERM budget
//	splashd -progress                # per-experiment progress on stderr
//	splashd -fault 'error@2=job:run fft*' -fault-seed 7   # chaos drill
//
// Endpoints:
//
//	GET  /healthz                    # 200 while serving, 503 while draining
//	GET  /v1/experiments?kind=...    # run (or join, or revalidate) an experiment
//	POST /v1/experiments             # same, JSON body (core.Request schema)
//	GET  /metrics                    # queue depth, cache hit ratio, coalescing
//
// The kind=working-set-sampled experiment serves the SHARDS-sampled
// working-set estimate; the sampleRate and sampleSeed query parameters
// (or JSON fields) select the sampling configuration and are part of
// that kind's content address, so estimates at different rates cache
// and coalesce independently. No other kind reads them, so on any other
// kind they are validated and then left out of the address.
//
// Responses carry a deterministic ETag (the request's content address):
// repeat a request with If-None-Match to get 304 without any execution.
// A request is addressed by the fields its kind reads, so equivalent
// concurrent requests — not only identical ones, e.g. kind=table1 with
// and without plist — coalesce onto one execution, and once it has
// finished cleanly its rendered bytes answer every repeat without engine
// work; saturation sheds load with 429 + Retry-After.
// SIGINT/SIGTERM stops accepting work, drains live flights up to
// -drain-timeout, then exits.
//
// Clients may bound a request with a deadline — the timeoutMs body
// field, the deadline query parameter ("30s", "2m"), or the
// X-Splashd-Deadline header. Doomed work is cancelled rather than left
// to wedge an execution slot, and the client gets 504 with a JSON error
// carrying the CLI exit-taxonomy code. Deadlines are excluded from the
// request's content address, so impatient and patient clients coalesce.
//
// Daemons sharing a cache directory (or sharing one with characterize
// runs) hold cross-process work leases, executing each expensive
// experiment once fleet-wide. A lease is a file lock the kernel drops
// when its holder dies, so a crashed daemon's experiments go to the next
// contender at once. Every run appends a durable journal under
// <cache-dir>/journal, removed at a clean exit, for `characterize
// -resume` crash forensics.
//
// Requests are validated by core.Request.Canonical, the same validator
// characterize's flags pass through, so a spec characterize rejects with
// exit 1 is answered 400 here.
//
// Exit status: 0 — clean shutdown; 1 — usage error; 3 — runtime error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"splash2/internal/cli"
	"splash2/internal/core"
	"splash2/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("splashd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	engineOptions := cli.EngineFlags(fs)
	var (
		addr         = fs.String("addr", ":8095", "listen address")
		maxInflight  = fs.Int("max-inflight", 4, "experiments executing concurrently")
		maxQueue     = fs.Int("max-queue", 16, "experiments queued behind the executing ones")
		perClient    = fs.Int("per-client", 8, "concurrent requests per client")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for live experiments")
	)
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "splashd: unexpected argument %q\n", fs.Arg(0))
		return cli.ExitUsage
	}
	eo, err := engineOptions()
	if err != nil {
		fmt.Fprintln(stderr, "splashd:", err)
		return cli.ExitUsage
	}
	eo.Context = ctx

	engine, err := core.NewEngine(eo)
	if err != nil {
		fmt.Fprintln(stderr, "splashd:", err)
		return cli.ExitRuntime
	}
	// Close removes the journal; left behind, the next resume would
	// report this daemon as a crashed run.
	defer engine.Close()
	srv := serve.New(ctx, engine, serve.Options{
		MaxInflight: *maxInflight,
		MaxQueue:    *maxQueue,
		PerClient:   *perClient,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "splashd:", err)
		return cli.ExitRuntime
	}
	hs := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(stdout, "splashd: listening on %s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(stderr, "splashd:", err)
		return cli.ExitRuntime
	case <-ctx.Done():
	}

	// Graceful stop: refuse new experiments, let live flights finish,
	// then close the listener and idle connections.
	fmt.Fprintln(stderr, "splashd: draining")
	drained := srv.BeginDrain(*drainTimeout)
	shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(stderr, "splashd:", err)
		return cli.ExitRuntime
	}
	if !drained {
		fmt.Fprintln(stderr, "splashd: drain timed out; in-flight experiments abandoned")
	}
	fmt.Fprintln(stderr, "splashd: stopped")
	return cli.ExitOK
}
