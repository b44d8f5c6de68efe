// Command exyserve runs the sweep-serving daemon: an HTTP/JSON API over
// the simulator's population-sweep and single-slice experiments, with a
// bounded job queue, pooled Reset()-recycled simulators, progress
// streaming, a content-addressed store of simulated (generation, slice)
// cells, and graceful drain on SIGINT/SIGTERM.
//
// Every exyserve is also a sweep-fabric coordinator: other exyserve
// processes started with --worker --join <url> register with it, lease
// (generation, slice-range) shards of its population sweeps, and upload
// results the coordinator merges bit-identically to a single-process
// run. A worker keeps its own HTTP API (health, metrics, its own local
// jobs) while its fabric loop computes remote shards.
//
// Usage:
//
//	exyserve [--addr=localhost:8080] [--workers=2] [--queue=16]
//	         [--sweep-workers=0] [--result-budget=0] [--checkpoint-dir=DIR]
//	         [--trace-dir=DIR]
//	         [--drain-timeout=30s] [--log-format=text|json] [--pprof]
//	         [--worker --join=URL]
//	         [--fabric-lease-ttl=10s] [--fabric-shard-slices=8]
//
// Quickstart (single process):
//
//	exyserve --addr=localhost:8080 &
//	curl -s localhost:8080/v1/jobs -d '{"spec":{"preset":"tiny"}}' # submit
//	curl -s localhost:8080/v1/jobs/j000001                         # poll
//	curl -sN localhost:8080/v1/jobs/j000001/stream                 # JSONL progress
//	curl -s localhost:8080/metrics                                 # Prometheus text
//	curl -s localhost:8080/healthz                                 # health doc
//
// Quickstart (1 coordinator + 2 workers):
//
//	exyserve --addr=localhost:8080 &
//	exyserve --addr=localhost:8081 --worker --join=http://localhost:8080 &
//	exyserve --addr=localhost:8082 --worker --join=http://localhost:8080 &
//	curl -s localhost:8080/v1/jobs -d '{"spec":{"preset":"quick"}}' # sharded sweep
//	curl -s localhost:8080/metrics | grep fabric                   # lease/steal/cells
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"exysim/internal/fabric"
	"exysim/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("exyserve", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:8080", "listen address")
	workers := fs.Int("workers", 2, "jobs executing concurrently")
	queue := fs.Int("queue", 16, "queued-job backlog before 429s")
	sweepWorkers := fs.Int("sweep-workers", 0, "worker goroutines per population sweep (0 = GOMAXPROCS)")
	resultBudget := fs.Int64("result-budget", 0, "bytes of simulated cells kept for reuse (0 = 16 MiB default, negative disables)")
	ckptDir := fs.String("checkpoint-dir", "", "checkpoint population jobs under DIR for resume")
	traceDir := fs.String("trace-dir", "", "content-addressed trace population store under DIR (enables POST /v1/traces)")
	drain := fs.Duration("drain-timeout", serve.DrainDefault, "grace period for in-flight jobs on shutdown")
	logFormat := fs.String("log-format", "text", "structured log format on stderr (text|json)")
	enablePprof := fs.Bool("pprof", false, "mount /debug/pprof on the API listener")
	workerMode := fs.Bool("worker", false, "join a coordinator's sweep fabric and compute leased shards")
	join := fs.String("join", "", "coordinator URL to join (requires --worker)")
	fabricTTL := fs.Duration("fabric-lease-ttl", 0, "fabric lease TTL before shards are stolen (0 = 10s default)")
	fabricShard := fs.Int("fabric-shard-slices", 0, "slices per fabric work unit (0 = 8 default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workerMode && *join == "" {
		fmt.Fprintln(os.Stderr, "exyserve: --worker requires --join=URL")
		return 2
	}
	if !*workerMode && *join != "" {
		fmt.Fprintln(os.Stderr, "exyserve: --join requires --worker")
		return 2
	}
	var handler slog.Handler
	switch *logFormat {
	case "text", "":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "exyserve: unknown --log-format %q (text|json)\n", *logFormat)
		return 2
	}
	logger := slog.New(handler)

	srv := serve.New(serve.Config{
		Workers:           *workers,
		QueueDepth:        *queue,
		SweepParallelism:  *sweepWorkers,
		ResultBudget:      *resultBudget,
		CheckpointDir:     *ckptDir,
		TraceDir:          *traceDir,
		EnablePprof:       *enablePprof,
		FabricLeaseTTL:    *fabricTTL,
		FabricShardSlices: *fabricShard,
		Logger:            logger,
	})
	httpSrv := &http.Server{Handler: srv.Handler()}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "exyserve:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "exyserve: listening on http://%s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	// Worker mode: join the coordinator's fabric and compute leased
	// shards on this process's pool and population table. The loop runs until
	// drain, which hands outstanding leases back instead of letting
	// them age out.
	var (
		fw         *fabric.Worker
		workerDone chan error
		stopWorker context.CancelFunc
	)
	if *workerMode {
		host, err := os.Hostname()
		if err != nil {
			host = "exyserve"
		}
		name := fmt.Sprintf("%s-%d", host, os.Getpid())
		// Trace shards name populations by content id; resolve the ones
		// this worker doesn't hold from the coordinator's bundle endpoint.
		srv.SetTraceFetcher(serve.HTTPTraceFetcher(*join))
		fw = fabric.NewWorker(fabric.NewClient(*join), name, srv.ShardRunner())
		var wctx context.Context
		wctx, stopWorker = context.WithCancel(context.Background())
		defer stopWorker()
		workerDone = make(chan error, 1)
		fmt.Fprintf(os.Stderr, "exyserve: joining fabric at %s as %s\n", *join, name)
		go func() { workerDone <- fw.Run(wctx) }()
	}

	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "exyserve:", err)
		return 1
	case err := <-workerDone:
		// A worker that cannot stay joined (version skew, coordinator
		// gone for good) is useless: exit so the supervisor restarts it.
		fmt.Fprintln(os.Stderr, "exyserve: fabric worker stopped:", err)
		return 1
	case <-ctx.Done():
	}

	// Drain: stop accepting connections, let in-flight jobs finish (or
	// checkpoint and abandon at the deadline), then exit. A fabric
	// worker first stops leasing and explicitly hands its outstanding
	// leases back so the coordinator requeues them immediately.
	fmt.Fprintf(os.Stderr, "exyserve: draining (up to %s)\n", *drain)
	code := 0
	if fw != nil {
		stopWorker()
		select {
		case <-workerDone:
		case <-time.After(*drain):
			code = 1
		}
		if err := fw.Release(); err != nil {
			fmt.Fprintln(os.Stderr, "exyserve: fabric lease handback failed:", err)
		}
	}
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "exyserve: drain deadline hit, in-flight jobs canceled")
		code = 1
	}
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "exyserve:", err)
		code = 1
	}
	fmt.Fprintln(os.Stderr, "exyserve: stopped")
	return code
}
