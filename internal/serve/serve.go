// Package serve is the sweep-serving daemon behind cmd/exyserve: a
// long-running HTTP/JSON API that accepts population-sweep and
// single-slice jobs, runs them on a bounded worker pool over one shared
// simulator pool (per-generation Reset() recycling — no per-request
// construction), streams progress as JSONL or SSE, answers a submission
// at once when every (generation, slice) cell it needs is in its
// content-addressed result store, sheds load with 429 once the queue is
// full, and drains gracefully on shutdown: in-flight
// sweeps finish — or, past the drain deadline, abandon cooperatively
// with their completed slices checkpointed for a resume after restart.
//
// Endpoints:
//
//	POST   /v1/jobs             submit (202 queued; 200 when every cell
//	                            is stored; 429 + Retry-After when full;
//	                            503 draining; 413 for a body over 1 MiB;
//	                            400 past the request bounds)
//	GET    /v1/jobs             list tracked jobs: every queued and running
//	                            job plus the newest 1024 finished ones
//	GET    /v1/jobs/{id}        one job's state and result (404 once a
//	                            finished job is evicted from the table)
//	GET    /v1/jobs/{id}/stream progress stream (JSONL; SSE if requested)
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	POST   /v1/traces           upload a ChampSim trace (raw or .gz body);
//	                            SimPoint-sliced into a weighted population
//	                            and stored content-addressed (needs
//	                            Config.TraceDir; dedup on re-upload;
//	                            413 for a body over 1 GiB)
//	GET    /v1/traces           list stored trace populations
//	GET    /v1/traces/{id}      one population's metadata
//	GET    /v1/traces/{id}/bundle  the population as a self-verifying
//	                            binary bundle (what fabric workers fetch)
//	GET    /healthz             liveness doc: uptime, drain state, queue
//	                            depth, in-flight jobs, stored cells
//	GET    /metrics             Prometheus text exposition by default;
//	                            JSON with Accept: application/json or
//	                            ?format=json
//	GET    /debug/pprof/...     Go profiling (only with Config.EnablePprof)
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"exysim/internal/core"
	"exysim/internal/experiments"
	"exysim/internal/fabric"
	"exysim/internal/obs"
	"exysim/internal/robust"
	"exysim/internal/tracestore"
	"exysim/internal/workload"
)

// Config sizes the daemon.
type Config struct {
	// Workers is the number of jobs executing concurrently (default 2).
	// Each population job additionally fans out SweepParallelism worker
	// goroutines internally.
	Workers int
	// QueueDepth bounds the queued-but-not-running backlog (default 16);
	// submissions beyond it are rejected with 429.
	QueueDepth int
	// SweepParallelism is the per-population-job worker count
	// (experiments.WithWorkers); 0 uses GOMAXPROCS. Servers running
	// several sweeps concurrently set it so one request cannot claim
	// every core.
	SweepParallelism int
	// ResultBudget bounds the bytes of the result store, which holds the
	// cells of population jobs (shared with the fabric coordinator) and
	// of slice jobs: 0 means experiments.DefaultResultBudget, negative
	// disables the store.
	ResultBudget int64
	// CheckpointDir, when set, checkpoints the cells every population
	// job computes in-process (its local batch) to <dir>/<digest>.ckpt
	// and resumes from it — a drained or crashed sweep picks up where it
	// stopped when the job is resubmitted.
	CheckpointDir string
	// TraceDir, when set, opens a content-addressed trace population
	// store there and mounts the /v1/traces upload/serve endpoints;
	// population jobs may then reference stored traces by id. Empty
	// disables uploads — the server can still run trace jobs whose
	// population arrives via SetTraceFetcher (worker mode).
	TraceDir string
	// SnapshotBudget bounds the resident bytes of cached warm-state
	// snapshots (experiments.WarmCache): 0 means the default
	// (experiments.DefaultSnapshotBudget, 2 GiB), negative disables
	// snapshot caching — sweeps then re-warm every pair cold.
	SnapshotBudget int64
	// FabricLeaseTTL is the distributed-sweep lease TTL: how long a
	// fabric worker may go silent before its shards are stolen. 0 uses
	// the fabric default (10s).
	FabricLeaseTTL time.Duration
	// FabricShardSlices caps the slice-range width of a fabric work
	// unit; 0 uses the fabric default (8).
	FabricShardSlices int
	// EnablePprof mounts Go's /debug/pprof handlers on the API mux.
	// Off by default: profiling endpoints expose heap contents and
	// should only face operators.
	EnablePprof bool
	// Logger receives structured request/job logs, keyed by job id and
	// spec digest so one job's lines correlate across its lifecycle.
	// nil discards logs.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	return c
}

// Server owns the job queue, the worker goroutines, and the shared
// simulator pool. Create with New, expose via Handler, stop with
// Shutdown.
type Server struct {
	cfg     Config
	pool    *experiments.SimPool
	warm    *experiments.WarmCache
	reg     *obs.Registry
	results *experiments.ResultStore
	fabric  *fabric.Coordinator
	mux     *http.ServeMux

	// store is the content-addressed trace population store (nil without
	// Config.TraceDir). traceFetch, when set (SetTraceFetcher), resolves
	// populations this process doesn't hold — worker mode fetches bundles
	// from its coordinator. Resolved populations stay in warm's
	// population table.
	store      *tracestore.Store
	traceFetch func(id string) (*tracestore.Population, error)
	traceMu    sync.Mutex

	// baseCtx parents every job context; killRemaining cancels them all
	// when the drain deadline passes.
	baseCtx       context.Context
	killRemaining context.CancelFunc

	queue chan *Job
	wg    sync.WaitGroup

	mu       sync.Mutex
	draining bool
	jobs     map[string]*Job
	order    []string // insertion order for listing
	nextID   int
	// retired counts the terminal jobs in jobs; trimJobs keeps it at or
	// under jobCap (maxRetainedJobs; in-package tests lower it).
	retired int
	jobCap  int

	// testHook, when set (in-package tests only), runs at the start of
	// every job execution — the seam that lets tests hold a worker busy
	// deterministically instead of timing against real sweeps.
	testHook func(*Job)

	running     atomic.Int64
	submitted   atomic.Uint64
	completed   atomic.Uint64
	failed      atomic.Uint64
	canceled    atomic.Uint64
	rejected    atomic.Uint64
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64

	// Latency histograms (microseconds), all lock-free on the record
	// path: queueWait covers admission → worker pickup, runDur covers
	// job execution, streamLat covers one progress-frame write+flush.
	// sliceWall and heartbeat aggregate fleet-wide across every
	// population job via per-job SweepTelemetry collectors that share
	// these instances.
	queueWait *obs.Histogram
	runDur    *obs.Histogram
	streamLat *obs.Histogram
	sliceWall *obs.Histogram
	heartbeat *obs.Histogram

	started time.Time
	log     *slog.Logger
}

// New builds a server and starts its workers.
func New(cfg Config) *Server {
	s := newServer(cfg)
	s.startWorkers()
	return s
}

// newServer builds the server without starting workers, so in-package
// tests can install testHook race-free before any job runs.
func newServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	if cfg.CheckpointDir != "" {
		// Create eagerly so a missing directory doesn't fail every
		// population job; a genuinely unwritable path still surfaces as
		// a per-job checkpoint error.
		os.MkdirAll(cfg.CheckpointDir, 0o755)
	}
	base, kill := context.WithCancel(context.Background())
	warm := experiments.NewWarmCache()
	if cfg.SnapshotBudget != 0 {
		// Negative disables snapshot caching; the population table stays.
		warm.SetSnapshotBudget(cfg.SnapshotBudget)
	}
	results := experiments.NewResultStore(cfg.ResultBudget, warm)
	s := &Server{
		cfg:     cfg,
		pool:    experiments.NewSimPool(),
		warm:    warm,
		reg:     obs.NewRegistry(),
		results: results,
		fabric: fabric.NewCoordinator(fabric.Config{
			LeaseTTL:    cfg.FabricLeaseTTL,
			ShardSlices: cfg.FabricShardSlices,
			Results:     results,
		}),
		baseCtx:       base,
		killRemaining: kill,
		queue:         make(chan *Job, cfg.QueueDepth),
		jobs:          map[string]*Job{},
		jobCap:        maxRetainedJobs,
		queueWait:     obs.NewHistogram(),
		runDur:        obs.NewHistogram(),
		streamLat:     obs.NewHistogram(),
		sliceWall:     obs.NewHistogram(),
		heartbeat:     obs.NewHistogram(),
		started:       time.Now(),
		log:           cfg.Logger,
	}
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.TraceDir != "" {
		st, err := tracestore.Open(cfg.TraceDir)
		if err != nil {
			// Degrade to upload-less serving rather than refusing to start:
			// synthetic jobs are unaffected, and trace uploads answer 503.
			s.log.Error("trace store unavailable", "dir", cfg.TraceDir, "err", err)
		} else {
			s.store = st
		}
	}
	sc := s.reg.Scope("serve")
	sc.Counter("jobs_submitted", s.submitted.Load)
	sc.Counter("jobs_completed", s.completed.Load)
	sc.Counter("jobs_failed", s.failed.Load)
	sc.Counter("jobs_canceled", s.canceled.Load)
	sc.Counter("jobs_rejected", s.rejected.Load)
	// Jobs answered from the result store at submit, and jobs queued.
	sc.Counter("cache_hits", s.cacheHits.Load)
	sc.Counter("cache_misses", s.cacheMisses.Load)
	rc := sc.Child("results")
	rc.Gauge("cells", func() float64 { n, _ := s.results.Stats(); return float64(n) })
	rc.Counter("evictions", func() uint64 { _, e := s.results.Stats(); return e })
	sc.Gauge("jobs_running", func() float64 { return float64(s.running.Load()) })
	sc.Gauge("queue_depth", func() float64 { return float64(len(s.queue)) })
	sc.Histogram("queue_wait_us", s.queueWait)
	sc.Histogram("run_us", s.runDur)
	sc.Histogram("stream_latency_us", s.streamLat)
	sc.Histogram("slice_wall_us", s.sliceWall)
	sc.Histogram("heartbeat_gap_us", s.heartbeat)
	pc := sc.Child("pool")
	pc.Counter("sims_built", s.pool.Built)
	pc.Counter("evictions", s.pool.Evictions)
	pc.Gauge("idle", func() float64 { return float64(s.pool.Idle()) })
	// Warm-cache reuse efficiency: suite_hits/misses and decode_hits/
	// misses show how often a sweep reused a resident suite and a
	// compiled μop stream; populations, population_bytes and
	// population_evictions describe the population table that holds
	// suites and trace populations; snapshot_forks vs captures show how
	// often a (generation, slice) pair skipped its warmup by forking the
	// stored warm image, capture_skips how many first warmups the
	// second-touch rule left uncaptured.
	wc := sc.Child("warm")
	warmStat := func(f func(experiments.WarmStats) uint64) func() uint64 {
		return func() uint64 { return f(s.warm.Stats()) }
	}
	wc.Counter("suite_hits", warmStat(func(w experiments.WarmStats) uint64 { return w.SuiteHits }))
	wc.Counter("suite_misses", warmStat(func(w experiments.WarmStats) uint64 { return w.SuiteMisses }))
	wc.Counter("decode_hits", warmStat(func(w experiments.WarmStats) uint64 { return w.DecodeHits }))
	wc.Counter("decode_misses", warmStat(func(w experiments.WarmStats) uint64 { return w.DecodeMisses }))
	wc.Gauge("populations", func() float64 { return float64(s.warm.Stats().Populations) })
	wc.Gauge("population_bytes", func() float64 { return float64(s.warm.Stats().PopulationBytes) })
	wc.Counter("population_evictions", warmStat(func(w experiments.WarmStats) uint64 { return w.PopulationEvictions }))
	wc.Counter("snapshot_hits", warmStat(func(w experiments.WarmStats) uint64 { return w.SnapshotHits }))
	wc.Counter("snapshot_misses", warmStat(func(w experiments.WarmStats) uint64 { return w.SnapshotMisses }))
	wc.Counter("snapshot_captures", warmStat(func(w experiments.WarmStats) uint64 { return w.Captures }))
	wc.Counter("snapshot_forks", warmStat(func(w experiments.WarmStats) uint64 { return w.Forks }))
	wc.Counter("snapshot_evictions", warmStat(func(w experiments.WarmStats) uint64 { return w.Evictions }))
	wc.Counter("snapshot_invalidations", warmStat(func(w experiments.WarmStats) uint64 { return w.Invalidations }))
	wc.Counter("capture_errors", warmStat(func(w experiments.WarmStats) uint64 { return w.CaptureErrors }))
	wc.Counter("capture_skips", warmStat(func(w experiments.WarmStats) uint64 { return w.CaptureSkips }))
	wc.Gauge("snapshot_bytes", func() float64 { return float64(s.warm.Stats().SnapshotBytes) })
	wc.Gauge("snapshot_entries", func() float64 { return float64(s.warm.Stats().SnapshotEntries) })
	// Fabric health: worker membership, lease churn (expiries and
	// steals are the failure-recovery signal), and the cells its sweeps
	// found in the result store.
	fc := sc.Child("fabric")
	fstat := func(f func(fabric.Stats) uint64) func() uint64 {
		return func() uint64 { return f(s.fabric.Stats()) }
	}
	fc.Counter("workers_joined", fstat(func(f fabric.Stats) uint64 { return f.WorkersJoined }))
	fc.Counter("workers_evicted", fstat(func(f fabric.Stats) uint64 { return f.WorkersEvicted }))
	fc.Counter("sweeps_submitted", fstat(func(f fabric.Stats) uint64 { return f.SweepsSubmitted }))
	fc.Counter("shards_planned", fstat(func(f fabric.Stats) uint64 { return f.ShardsPlanned }))
	fc.Counter("shards_completed", fstat(func(f fabric.Stats) uint64 { return f.ShardsCompleted }))
	fc.Counter("shard_errors", fstat(func(f fabric.Stats) uint64 { return f.ShardErrors }))
	fc.Counter("leases_granted", fstat(func(f fabric.Stats) uint64 { return f.LeasesGranted }))
	fc.Counter("leases_expired", fstat(func(f fabric.Stats) uint64 { return f.LeasesExpired }))
	fc.Counter("steals", fstat(func(f fabric.Stats) uint64 { return f.Steals }))
	fc.Counter("completes_duplicate", fstat(func(f fabric.Stats) uint64 { return f.CompletesDuplicate }))
	fc.Counter("local_runs", fstat(func(f fabric.Stats) uint64 { return f.LocalRuns }))
	fc.Counter("cell_hits", fstat(func(f fabric.Stats) uint64 { return f.CacheHits }))
	fc.Counter("cell_misses", fstat(func(f fabric.Stats) uint64 { return f.CacheMisses }))
	fc.Gauge("workers_live", func() float64 { return float64(s.fabric.Stats().WorkersLive) })
	fc.Gauge("lease_waiters", func() float64 { return float64(s.fabric.Stats().LeaseWaiters) })
	fc.Gauge("shard_wall_mean_s", func() float64 {
		wall := s.fabric.Stats().ShardWall
		return wall.Mean()
	})
	// Trace population resolution: hits answered from the population
	// table, misses decoded from the store or fetched from a peer; and
	// the populations on disk.
	tc := sc.Child("tracestore")
	tc.Counter("hits", warmStat(func(w experiments.WarmStats) uint64 { return w.TraceHits }))
	tc.Counter("misses", warmStat(func(w experiments.WarmStats) uint64 { return w.TraceMisses }))
	if s.store != nil {
		tc.Gauge("populations", func() float64 { return float64(s.store.Len()) })
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/traces", s.handleTraceUpload)
	mux.HandleFunc("GET /v1/traces", s.handleTraceList)
	mux.HandleFunc("GET /v1/traces/{id}", s.handleTraceGet)
	mux.HandleFunc("GET /v1/traces/{id}/bundle", s.handleTraceBundle)
	mux.HandleFunc("POST /v1/fabric/join", s.handleFabricJoin)
	mux.HandleFunc("POST /v1/fabric/lease", s.handleFabricLease)
	mux.HandleFunc("POST /v1/fabric/complete", s.handleFabricComplete)
	mux.HandleFunc("POST /v1/fabric/heartbeat", s.handleFabricHeartbeat)
	mux.HandleFunc("POST /v1/fabric/leave", s.handleFabricLeave)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux
	return s
}

func (s *Server) startWorkers() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Handler returns the HTTP API. Responses are gzip-compressed for
// clients that accept it, except progress streams and pprof.
func (s *Server) Handler() http.Handler { return gzipHandler(s.mux) }

// Fabric exposes the server's sweep-fabric coordinator, for in-process
// workers (benchmarks, tests) and topology introspection.
func (s *Server) Fabric() *fabric.Coordinator { return s.fabric }

// Metrics snapshots the server's obs registry (what /metrics serves).
func (s *Server) Metrics() obs.Snapshot { return s.reg.Snapshot() }

// Shutdown drains the server: no new submissions are accepted, queued
// and running jobs finish, then the workers exit. Fabric leases stop
// parking, so no lease request holds up an http.Server shutdown, while
// queued shards are still granted. If ctx expires first, the remaining
// jobs are canceled cooperatively (population sweeps with a checkpoint
// keep their completed slices) and Shutdown returns ctx.Err after they
// stop.
func (s *Server) Shutdown(ctx context.Context) error {
	s.fabric.Drain()
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.killRemaining()
		<-done
		return ctx.Err()
	}
}

// worker executes jobs until the queue closes and empties.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
		s.trimJobs()
	}
}

// maxRetainedJobs bounds the job table: past this many terminal (done,
// failed, canceled) jobs, the oldest-submitted terminal job is evicted
// and its id answers 404. Resubmitting its request may still be
// answered from the result store.
const maxRetainedJobs = 1024

// trimJobs records that a job just reached a terminal state and evicts
// the oldest terminal jobs beyond jobCap. Queued and running jobs are
// never evicted.
func (s *Server) trimJobs() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retired++
	for i := 0; s.retired > s.jobCap && i < len(s.order); {
		id := s.order[i]
		if !s.jobs[id].view().Status.terminal() {
			i++
			continue
		}
		delete(s.jobs, id)
		s.order = slices.Delete(s.order, i, i+1)
		s.retired--
	}
}

func (s *Server) runJob(job *Job) {
	if job.ctx.Err() != nil || !job.start() {
		// Canceled while queued (DELETE or drain kill): never ran.
		s.canceled.Add(1)
		job.finish(StatusCanceled, nil, "canceled before start")
		s.log.Info("job canceled before start", "job", job.id, "digest", job.digest)
		return
	}
	s.queueWait.ObserveSince(job.enqueued)
	s.running.Add(1)
	defer s.running.Add(-1)
	if s.testHook != nil {
		s.testHook(job)
	}
	s.log.Info("job started", "job", job.id, "digest", job.digest, "kind", job.req.Kind)

	t0 := time.Now()
	var result json.RawMessage
	var err error
	switch job.req.Kind {
	case "slice":
		result, err = s.runSlice(job)
	default:
		result, err = s.runPopulation(job)
	}
	s.runDur.ObserveSince(t0)
	dur := time.Since(t0)
	switch {
	case err == nil:
		s.completed.Add(1)
		job.finish(StatusDone, result, "")
		s.log.Info("job done", "job", job.id, "digest", job.digest, "dur", dur)
	case errors.Is(err, context.Canceled):
		s.canceled.Add(1)
		job.finish(StatusCanceled, nil, "canceled")
		s.log.Info("job canceled", "job", job.id, "digest", job.digest, "dur", dur)
	default:
		s.failed.Add(1)
		job.finish(StatusFailed, nil, err.Error())
		s.log.Warn("job failed", "job", job.id, "digest", job.digest, "dur", dur, "err", err)
	}
}

// runPopulation executes a full sweep through the fabric coordinator
// and returns its versioned SummaryDoc. Cells an earlier job computed
// come from the result store; the rest go to live fabric workers or,
// with none live, to one local batch on this server's simulator pool,
// warm cache and checkpoint. Every path merges bit-identically to a
// single-process experiments.Run.
func (s *Server) runPopulation(job *Job) (json.RawMessage, error) {
	var ckpt []experiments.Option
	if s.cfg.CheckpointDir != "" {
		path := filepath.Join(s.cfg.CheckpointDir, job.digest+".ckpt")
		ckpt = append(ckpt, experiments.WithCheckpoint(path), experiments.WithResume())
	}
	req := fabric.SubmitReq{
		Spec:       job.spec,
		Gens:       job.gens,
		OnProgress: job.setProgress,
		Local:      s.shardRunner(ckpt...),
	}
	if job.req.Trace != "" {
		pop, err := s.population(job.req.Trace)
		if err != nil {
			return nil, err
		}
		req.Trace, req.Slices = pop.Meta.ID, pop.Slices
	} else {
		// The warm-cached suite: the local batch sweeps these same slices.
		req.Slices = s.warm.Suite(job.spec)
	}
	p, err := s.fabric.Submit(job.ctx, req)
	if err != nil {
		return nil, err
	}
	return json.Marshal(p.SummaryDoc())
}

// ShardRunner returns the fabric work function backed by this server's
// simulator pool, warm cache, and telemetry — what cmd/exyserve's
// worker mode computes grants from a remote coordinator with.
func (s *Server) ShardRunner() fabric.RunFunc { return s.shardRunner() }

// shardRunner is ShardRunner with extra options for every batch: a
// population job's local runner adds its checkpoint.
func (s *Server) shardRunner(extra ...experiments.Option) fabric.RunFunc {
	return func(ctx context.Context, job fabric.ShardJob) ([]*experiments.ShardDoc, error) {
		opts := []experiments.Option{
			experiments.WithSimPool(s.pool),
			// One process-lifetime cache: the second sweep over a pair
			// captures its warm-state snapshot, every later one forks it
			// instead of re-warming.
			experiments.WithWarmSnapshots(s.warm),
			// Per-batch collector, fleet-shared histograms: every sweep's
			// slice wall times and heartbeat gaps land in the server's
			// /metrics distributions.
			experiments.WithTelemetry(&experiments.SweepTelemetry{
				SliceWall: s.sliceWall,
				Heartbeat: s.heartbeat,
			}),
		}
		if s.cfg.SweepParallelism > 0 {
			opts = append(opts, experiments.WithWorkers(s.cfg.SweepParallelism))
		}
		if len(job.Gens) > 0 {
			// Predictor-lab shards carry their full generation set in the
			// grant; everything else runs the default M1..M6.
			opts = append(opts, experiments.WithGenerations(job.Gens))
		}
		if job.Trace != "" {
			pop, err := s.population(job.Trace)
			if err != nil {
				return nil, err
			}
			opts = append(opts, experiments.WithPopulation(pop.Meta.ID, pop.Slices))
		}
		if job.Progress != nil {
			opts = append(opts, experiments.WithProgressFunc(func(done, _ int, _ uint64) { job.Progress(done) }))
		}
		return experiments.RunShards(ctx, job.Spec, job.Units, append(opts, extra...)...)
	}
}

// runSlice executes one guarded (generation, slice) pair on a pooled
// simulator and stores its clean result under the job's sliceCell.
func (s *Server) runSlice(job *Job) (json.RawMessage, error) {
	g, _ := core.GenByName(job.req.Gen) // validated at submit
	sl, err := workload.ByName(job.req.Slice, job.spec)
	if err != nil {
		return nil, err
	}
	job.setProgress(0, 1)
	sim := s.pool.Get(g)
	t0 := time.Now()
	res, fail := robust.RunGuarded(sim, sl, robust.Options{
		CheckInvariants: true,
		Cancel:          job.ctx.Done(),
		HeartbeatHist:   s.heartbeat,
	})
	s.sliceWall.ObserveSince(t0)
	if fail != nil {
		// The instance may be torn mid-update: discard, never re-pool.
		if fail.Kind == robust.KindCanceled && job.ctx.Err() != nil {
			return nil, job.ctx.Err()
		}
		return nil, fmt.Errorf("%s/%s: %s: %s", fail.Gen, fail.Slice, fail.Kind, fail.Err)
	}
	s.pool.Put(sim)
	s.results.Put(sliceCell(job.digest), res)
	job.setProgress(1, 1)
	return json.Marshal(newSliceDoc(job.req.Gen, job.req.Slice, res))
}

// sliceCell is a slice job's key in the result store: its request
// digest, which fixes the generation, the spec and the slice, so an
// identical resubmit is one lookup that generates and hashes nothing.
// Slice jobs therefore share the store's budget, not population cells.
func sliceCell(digest string) experiments.CellKey {
	return experiments.CellKey{Gen: "slice job " + digest}
}

// stored answers a job from the result store when it holds every cell
// the job needs, generating nothing: a slice job is one lookup, and a
// population job is looked up (by the coordinator, as Submit would)
// only when its slices are at hand — its trace population, or a suite
// the warm cache holds — since a job that must generate its suite is
// queued anyway. An unknown trace answers 400 at submit.
func (s *Server) stored(req JobRequest, spec workload.SuiteSpec, gens []core.GenConfig, digest string) (json.RawMessage, error) {
	if req.Kind == "slice" {
		r, ok := s.results.Get(sliceCell(digest))
		if !ok {
			return nil, nil
		}
		return json.Marshal(newSliceDoc(req.Gen, req.Slice, r))
	}
	sub := fabric.SubmitReq{Spec: spec, Gens: gens}
	if req.Trace != "" {
		pop, err := s.population(req.Trace)
		if err != nil {
			return nil, err
		}
		sub.Trace, sub.Slices = pop.Meta.ID, pop.Slices
	} else if sub.Slices = s.warm.CachedSuite(spec); sub.Slices == nil {
		return nil, nil
	}
	p, ok := s.fabric.Stored(sub)
	if !ok {
		return nil, nil
	}
	return json.Marshal(p.SummaryDoc())
}

// --- HTTP handlers ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// maxJobBody caps a job request body; real requests are a few KB.
const maxJobBody = 1 << 20

// decodeJobRequest decodes a POST /v1/jobs body: one JSON object, no
// unknown fields.
func decodeJobRequest(body io.Reader) (JobRequest, error) {
	var req JobRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeJobRequest(http.MaxBytesReader(w, r.Body, maxJobBody))
	if err != nil {
		writeBodyError(w, "request", err)
		return
	}
	spec, err := req.resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Resolve the M7 generation set now so an unknown baseline or an
	// impossible predictor geometry answers 400 at submit instead of a
	// failed job later.
	gens, err := req.hypoGens()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	digest := jobDigest(req, spec)
	result, err := s.stored(req, spec, gens, digest)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if result != nil {
		s.cacheHits.Add(1)
		s.log.Info("answered from the result store", "digest", digest, "kind", req.Kind)
		writeJSON(w, http.StatusOK, JobView{
			ID: "cache-" + digest[:12], Kind: req.Kind, Status: StatusDone,
			Digest: digest, Cached: true, Result: result,
		})
		return
	}
	s.cacheMisses.Add(1)

	// Enqueue under the lock so draining and the non-blocking send are
	// one atomic decision: the queue is never closed between the check
	// and the send.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	s.nextID++
	job := newJob(s.baseCtx, fmt.Sprintf("j%06d", s.nextID), req, spec, gens)
	select {
	case s.queue <- job:
		s.jobs[job.id] = job
		s.order = append(s.order, job.id)
		s.mu.Unlock()
		s.submitted.Add(1)
		s.log.Info("job queued", "job", job.id, "digest", job.digest, "kind", req.Kind)
		writeJSON(w, http.StatusAccepted, job.view())
	default:
		s.nextID-- // job never existed
		s.mu.Unlock()
		s.rejected.Add(1)
		s.log.Warn("job rejected: queue full", "digest", digest, "kind", req.Kind)
		w.Header().Set("Retry-After", "2")
		writeError(w, http.StatusTooManyRequests, "job queue is full")
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		views = append(views, s.jobs[id].view())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, job.view())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	job.cancel()
	writeJSON(w, http.StatusOK, job.view())
}

// handleStream replays a job's progress as a line-per-event stream:
// newline-delimited JSON by default, Server-Sent Events when the client
// asks for text/event-stream. The stream always terminates with one
// "result" frame carrying the full job view.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	emit := func(e Event) bool {
		b, err := json.Marshal(e)
		if err != nil {
			return false
		}
		t0 := time.Now()
		if sse {
			_, err = fmt.Fprintf(w, "data: %s\n\n", b)
		} else {
			_, err = fmt.Fprintf(w, "%s\n", b)
		}
		flusher.Flush()
		s.streamLat.ObserveSince(t0)
		return err == nil
	}

	events, unsub := job.subscribe()
	defer unsub()
	for {
		select {
		case e, open := <-events:
			if !open {
				// Terminal: emit the final state exactly once.
				v := job.view()
				emit(Event{Type: "result", Done: v.Done, Total: v.Total, Job: &v})
				return
			}
			if !emit(e) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// HealthDoc is the /healthz response: liveness plus the handful of
// numbers an operator checks first when a deploy looks wrong.
type HealthDoc struct {
	Status        string  `json:"status"`
	Draining      bool    `json:"draining"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	QueueDepth    int     `json:"queue_depth"`
	JobsRunning   int64   `json:"jobs_running"`
	JobsTracked   int     `json:"jobs_tracked"`
	ResultCells   int     `json:"result_cells"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	tracked := len(s.jobs)
	s.mu.Unlock()
	cells, _ := s.results.Stats()
	writeJSON(w, http.StatusOK, HealthDoc{
		Status:        "ok",
		Draining:      draining,
		UptimeSeconds: time.Since(s.started).Seconds(),
		QueueDepth:    len(s.queue),
		JobsRunning:   s.running.Load(),
		JobsTracked:   tracked,
		ResultCells:   cells,
	})
}

// handleMetrics negotiates the exposition format: Prometheus text
// (what a scraper expects from /metrics) unless the client asks for
// JSON via ?format=json or an application/json Accept header.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	wantJSON := r.URL.Query().Get("format") == "json" ||
		strings.Contains(r.Header.Get("Accept"), "application/json")
	if wantJSON {
		w.Header().Set("Content-Type", "application/json")
		_ = snap.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", obs.ContentTypePrometheus)
	_ = snap.WritePrometheus(w)
}

// DrainDefault is the default grace period exyserve gives in-flight
// jobs on SIGTERM before canceling them.
const DrainDefault = 30 * time.Second
