package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"exysim/internal/core"
	"exysim/internal/obs"
	"exysim/internal/robust"
	"exysim/internal/trace"
	"exysim/internal/workload"
)

// ProgressFunc observes sweep progress: done slices completed so far out
// of total (gens × slices), and the simulated instruction count of the
// slice that just finished (0 for the initial callback and for slices
// restored from a checkpoint). It is called concurrently from worker
// goroutines and must be safe for that.
type ProgressFunc func(done, total int, insts uint64)

// runConfig is the resolved option set of one Run invocation. The zero
// value reproduces the historical default behaviour: no deadline, no
// checkpoint, no retries, GOMAXPROCS workers — with panic isolation and
// invariant checking always on.
type runConfig struct {
	onProgress     ProgressFunc
	sliceDeadline  time.Duration
	retries        int
	checkpointPath string
	resume         bool
	stepHook       func(g, s int) robust.StepHook
	resultHook     func(g, s int) robust.ResultHook
	workers        int
	pool           *SimPool
	telemetry      *SweepTelemetry
	spans          *obs.SpanTracer
	warm           *WarmCache
	units          []Shard
	popID          string
	popSlices      []*trace.Slice
	gens           []core.GenConfig
}

// Option configures one Run invocation.
type Option func(*runConfig)

// WithProgressFunc installs the sweep's progress hook: called once
// before any slice runs with the cells restored from a checkpoint, then
// after every completed slice. Servers stream it as progress events;
// the CLI drives an obs.Progress bar with it (Progress.Report). fn must
// be safe for concurrent calls.
func WithProgressFunc(fn ProgressFunc) Option {
	return func(c *runConfig) { c.onProgress = fn }
}

// WithSliceDeadline bounds each slice's wall-clock time (0 = no bound);
// a slice that trips it is quarantined as a timeout.
func WithSliceDeadline(d time.Duration) Option {
	return func(c *runConfig) { c.sliceDeadline = d }
}

// WithRetries grants each failed slice n extra attempts, each on a fresh
// simulator with bounded backoff, before it is quarantined.
func WithRetries(n int) Option {
	return func(c *runConfig) { c.retries = n }
}

// WithCheckpoint appends completed (gen, slice) results to a JSONL
// checkpoint at path ("" disables).
func WithCheckpoint(path string) Option {
	return func(c *runConfig) { c.checkpointPath = path }
}

// WithResume restores results already present in the checkpoint
// configured by WithCheckpoint instead of re-simulating them; a missing
// checkpoint file resumes from nothing.
func WithResume() Option {
	return func(c *runConfig) { c.resume = true }
}

// WithStepHooks installs a per-(gen, slice) step-hook factory — the
// fault-injection seam for the robustness tests. A returned nil hook
// leaves that pair unperturbed.
func WithStepHooks(f func(g, s int) robust.StepHook) Option {
	return func(c *runConfig) { c.stepHook = f }
}

// WithResultHooks installs a per-(gen, slice) result-hook factory,
// running over each completed Result before the invariant check.
func WithResultHooks(f func(g, s int) robust.ResultHook) Option {
	return func(c *runConfig) { c.resultHook = f }
}

// WithWorkers bounds the sweep's worker-goroutine count (default
// GOMAXPROCS). Servers running several sweeps concurrently use it to
// keep one request from claiming every core.
func WithWorkers(n int) Option {
	return func(c *runConfig) { c.workers = n }
}

// WithSimPool recycles simulators from pool across Run invocations
// instead of constructing per call: workers check instances out on
// first use of a generation and return the healthy ones when the sweep
// ends. The Reset() protocol keeps results bit-identical to fresh
// construction.
func WithSimPool(pool *SimPool) Option {
	return func(c *runConfig) { c.pool = pool }
}

// WithTelemetry feeds wall-clock telemetry — per-slice wall time and
// watchdog heartbeat gaps — into t's histograms, and records the
// per-slice timing list behind the slow-slice outlier report. Telemetry
// observes wall time only, never simulation state: results are
// bit-identical with and without it. nil disables collection.
func WithTelemetry(t *SweepTelemetry) Option {
	return func(c *runConfig) { c.telemetry = t }
}

// WithSpanTracer records the sweep's wall-clock structure — the job,
// each generation, each slice (one lane per worker), retry instants,
// and checkpoint appends — into st for Perfetto visualization. Like
// telemetry it is purely observational; nil disables span recording.
func WithSpanTracer(st *obs.SpanTracer) Option {
	return func(c *runConfig) { c.spans = st }
}

// WithWarmSnapshots shares warmup-invariant work across generations,
// reps, and sweeps through w: cached workload suites, pre-decoded μop
// streams, and deep warm-state snapshots captured at a (generation,
// slice) pair's warmup boundary once the pair warms up a second time
// (see WarmCache). With a populated cache a sweep restores each pair's
// warm image and replays only the measured region — skipping the
// warmup stepping entirely — with results bit-identical to cold
// re-warming (the snapshot/fork bit-identity tests pin this). Slices
// whose pair has a step hook installed, or no warmup prefix, run cold as
// before. Retries always run cold on a fresh simulator and drop the
// pair's snapshot first, so a damaged image can never quarantine a pair
// permanently.
func WithWarmSnapshots(w *WarmCache) Option {
	return func(c *runConfig) { c.warm = w }
}

// withUnits restricts the sweep to the cells of units — the batch
// RunShards runs. The returned PopulationRun keeps its full-size
// matrices (cells outside the units stay zero and aggregates skip
// them). Each unit's hi is clamped to the population; a unit that is
// empty after clamping, or that overlaps another, fails Run.
func withUnits(units []Shard) Option {
	return func(c *runConfig) { c.units = units }
}

// WithPopulation replaces the synthetic suite with an ingested trace
// population: the sweep runs gens × slices over these slices instead of
// workload.Suite(spec). id is the population's content address
// (tracestore.PopulationID); it is folded into the checkpoint digest so
// a checkpoint written for one trace population can never resume a
// different one, and it surfaces as PopulationRun.PopID (and the
// SummaryDoc "trace" field). Slices typically carry SimPoint weights —
// WeightedMeans then estimates full-trace metrics from them.
func WithPopulation(id string, slices []*trace.Slice) Option {
	return func(c *runConfig) {
		c.popID = id
		c.popSlices = slices
	}
}

// WithGenerations replaces the default M1..M6 generation set with gens —
// the predictor-lab seam: append a core.Hypothetical "M7" to the shipped
// six and the whole population machinery (pooling, warm snapshots,
// checkpoints, shards) carries it like any product generation. Names
// must be unique within the set; checkpoint digests and warm-cache keys
// fold the full configurations, so differently-specced sets never mix.
func WithGenerations(gens []core.GenConfig) Option {
	return func(c *runConfig) { c.gens = gens }
}

// Run is the one sweep entrypoint: every generation × every slice of
// spec's population, fanned out across a bounded worker pool with
// pooled simulators, under the robustness envelope the options
// describe.
//
// Each worker keeps a private set of at most one simulator per
// generation, built on first use (or checked out of the shared pool —
// see WithSimPool) and recycled with Reset() for every later job of
// that generation. Constructing an M6 simulator allocates hundreds of
// tables; at population scale the construction and the GC pressure it
// feeds dominate small-slice runs, while Reset() only zeroes the
// existing arrays. The Reset() protocol guarantees bit-identical
// results to a fresh simulator (reuse_test.go), so determinism is
// unaffected. Jobs are enqueued generation-major, which keeps each
// worker's set hot on one generation at a time.
//
// Every slice runs guarded (robust.RunGuardedDecoded): a panic, deadline
// trip, or invariant violation quarantines that slice alone — the possibly
// corrupted simulator is discarded instead of recycled, the slice is
// retried on fresh simulators up to WithRetries times, and the sweep
// completes with partial results plus the failure records in
// p.Failures. Completed results stream to the checkpoint (if
// configured), so a killed run can resume without redoing them;
// restored results are bit-identical to simulated ones, keeping resumed
// population means bit-identical to an uninterrupted run's.
//
// Canceling ctx stops the sweep cooperatively: no new slices start, and
// in-flight slices abandon at the next heartbeat (within ~4096
// instructions). Run then returns the partial PopulationRun together
// with ctx.Err(); canceled slices are not quarantined — their pairs are
// simply incomplete.
//
// Apart from cancellation, the returned error is reserved for
// checkpoint plumbing (unwritable path, resuming against a mismatched
// spec); simulation failures never abort the sweep.
func Run(ctx context.Context, spec workload.SuiteSpec, opts ...Option) (*PopulationRun, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var cfg runConfig
	for _, o := range opts {
		o(&cfg)
	}

	start := time.Now()
	spec = spec.Normalize()
	var slices []*trace.Slice
	switch {
	case cfg.popSlices != nil:
		slices = cfg.popSlices
	case cfg.warm != nil:
		slices = cfg.warm.Suite(spec)
	default:
		slices = workload.Suite(spec)
	}
	gens := cfg.gens
	if gens == nil {
		gens = core.Generations()
	}
	// inUnits marks the cells of a RunShards batch; nil runs every cell.
	var inUnits [][]bool
	total := len(gens) * len(slices)
	if cfg.units != nil {
		inUnits = make([][]bool, len(gens))
		for g := range inUnits {
			inUnits[g] = make([]bool, len(slices))
		}
		total = 0
		for _, u := range cfg.units {
			if u.Gen < 0 || u.Gen >= len(gens) {
				return nil, fmt.Errorf("experiments: shard generation %d outside [0, %d)", u.Gen, len(gens))
			}
			lo, hi := u.clamp(len(slices))
			if lo >= hi {
				return nil, fmt.Errorf("experiments: empty shard [%d, %d) over %d slices", u.Lo, u.Hi, len(slices))
			}
			for s := lo; s < hi; s++ {
				if inUnits[u.Gen][s] {
					return nil, fmt.Errorf("experiments: shards overlap at (gen %d, slice %d)", u.Gen, s)
				}
				inUnits[u.Gen][s] = true
			}
			total += hi - lo
		}
	}
	inShard := func(g, s int) bool { return inUnits == nil || inUnits[g][s] }
	p := &PopulationRun{Spec: spec, Gens: gens, Slices: slices, PopID: cfg.popID}
	p.Results = make([][]core.Result, len(gens))
	p.Failed = make([][]bool, len(gens))
	p.retried = make([][]int, len(gens))
	// done marks the pairs restored from the checkpoint.
	done := make([][]bool, len(gens))
	p.resumed = done
	for g := range gens {
		p.Results[g] = make([]core.Result, len(slices))
		p.Failed[g] = make([]bool, len(slices))
		p.retried[g] = make([]int, len(slices))
		done[g] = make([]bool, len(slices))
	}

	// Checkpoint/resume. The digest pins both the workload spec and the
	// generation set, so a stale checkpoint from a different campaign is
	// rejected instead of silently mixed in.
	var ckpt *robust.CheckpointWriter
	if cfg.checkpointPath != "" {
		digest := populationDigest(spec, gens, cfg.popID)
		if cfg.resume {
			entries, err := robust.LoadCheckpoint(cfg.checkpointPath, digest)
			if err != nil {
				return nil, err
			}
			for _, e := range entries {
				if e.Gen < 0 || e.Gen >= len(gens) || e.Slice < 0 || e.Slice >= len(slices) || done[e.Gen][e.Slice] || !inShard(e.Gen, e.Slice) {
					continue
				}
				p.Results[e.Gen][e.Slice] = e.Result
				done[e.Gen][e.Slice] = true
				p.Resumed++
			}
			if ckpt, err = robust.OpenCheckpoint(cfg.checkpointPath, digest); err != nil {
				return nil, err
			}
		} else {
			var err error
			if ckpt, err = robust.CreateCheckpoint(cfg.checkpointPath, digest); err != nil {
				return nil, err
			}
		}
		defer ckpt.Close()
	}

	var doneCount atomic.Int64
	doneCount.Store(int64(p.Resumed))
	if cfg.onProgress != nil {
		cfg.onProgress(p.Resumed, total, 0)
	}

	// Pre-decoded streams are compiled once per slice and shared by every
	// generation and attempt (the step loop reads them immutably). The
	// sweep asks for each slice's stream once: a WarmCache's table keeps
	// it across Run calls while the slice's population is resident, and
	// a population evicted mid-sweep still costs one compilation per
	// slice.
	streams := make([]func() *trace.PreDecoded, len(slices))
	for i, sl := range slices {
		streams[i] = sync.OnceValue(func() *trace.PreDecoded {
			if cfg.warm != nil {
				return cfg.warm.PreDecoded(sl)
			}
			return sl.PreDecode()
		})
	}
	var genDigests []string
	if cfg.warm != nil || cfg.pool != nil {
		genDigests = make([]string, len(gens))
		for g := range gens {
			genDigests[g] = obs.ConfigDigest(gens[g])
		}
	}

	cancelCh := ctx.Done()
	type job struct{ g, s int }
	jobs := make(chan job)
	var wg sync.WaitGroup
	var mu sync.Mutex // guards Failures/Retries and checkpoint error reporting
	var ckptErr error
	tel := cfg.telemetry
	p.Telemetry = tel
	st := cfg.spans
	// Per-generation wall-clock windows (first slice start, last slice
	// end) accumulate under spanMu and become the generation-level spans.
	var spanMu sync.Mutex
	genFirst := make([]time.Time, len(gens))
	genLast := make([]time.Time, len(gens))
	workers := cfg.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var lane int32
			if st != nil {
				lane = st.Lane(fmt.Sprintf("worker-%d", w))
			}
			sims := make([]*core.Simulator, len(gens))
			if cfg.pool != nil {
				// Return the healthy survivors for the next Run to reuse.
				defer func() {
					for g, sim := range sims {
						if sim != nil {
							cfg.pool.give(genDigests[g], sim)
						}
					}
				}()
			}
			for j := range jobs {
				if ctx.Err() != nil {
					continue // canceled: drain the queue without running
				}
				sl := p.Slices[j.s]
				pd := streams[j.s]()
				ropts := robust.Options{
					Deadline:        cfg.sliceDeadline,
					CheckInvariants: true,
					Cancel:          cancelCh,
				}
				if tel != nil {
					ropts.HeartbeatHist = tel.Heartbeat
				}
				if cfg.stepHook != nil {
					ropts.StepHook = cfg.stepHook(j.g, j.s)
				}
				if cfg.resultHook != nil {
					ropts.ResultHook = cfg.resultHook(j.g, j.s)
				}
				sim := sims[j.g]
				if sim == nil && cfg.pool != nil {
					sim = cfg.pool.take(genDigests[j.g])
					sims[j.g] = sim
				}
				build := func() *core.Simulator {
					if cfg.pool != nil {
						cfg.pool.built.Add(1)
					}
					return core.NewSimulator(gens[j.g])
				}
				// Warm forking applies when a cache is installed, the pair
				// has no step hook (hooks must see the warmup too), and the
				// slice has a warmup prefix worth skipping.
				warmable := cfg.warm != nil && cfg.warm.snapshotsEnabled() && ropts.StepHook == nil && sl.Warmup > 0
				pooled := sim
				runAttempt := func(s *core.Simulator, attempt int) (core.Result, *robust.SliceFailure) {
					// A recycled pooled instance needs Reset before a cold
					// replay; a freshly built one is already cold, and a
					// successful warm restore overwrites all of it anyway.
					reset := s == pooled && pooled != nil
					if warmable {
						if attempt == 1 {
							if img, ok := cfg.warm.Snapshot(genDigests[j.g], sl); ok {
								if err := s.RestoreState(img); err == nil {
									cfg.warm.noteFork()
									if st != nil {
										st.Instant("snapshot", "fork", lane, 0)
									}
									return robust.RunGuardedDecoded(s, pd, sl.Warmup, ropts)
								}
								// The image does not fit this instance: drop it
								// and fall through to a cold replay. The failed
								// restore may have partially overwritten state,
								// so Reset unconditionally.
								cfg.warm.Invalidate(genDigests[j.g], sl)
								reset = true
							}
						} else {
							// Retrying: never trust the snapshot that fed (or
							// was captured by) the failed attempt.
							cfg.warm.Invalidate(genDigests[j.g], sl)
						}
					}
					if reset {
						s.Reset()
					}
					a := ropts
					if warmable {
						a.AfterWarmup = func() {
							if !cfg.warm.admitCapture(genDigests[j.g], sl) {
								return
							}
							img, err := s.CaptureState()
							if err != nil {
								cfg.warm.noteCaptureError()
								return
							}
							cfg.warm.StoreSnapshot(genDigests[j.g], sl, img)
							if st != nil {
								st.Instant("snapshot", "capture", lane, int64(img.Bytes()))
							}
						}
					}
					return robust.RunGuardedDecoded(s, pd, 0, a)
				}
				var t0 time.Time
				if tel != nil || st != nil {
					t0 = time.Now()
				}
				r, okSim, fails, okRun := robust.RunWithRetryFunc(sim, build, cfg.retries, runAttempt)
				// Keep whichever instance survived; a failure discarded
				// the pooled one.
				sims[j.g] = okSim
				if len(fails) > 0 {
					if fails[len(fails)-1].Kind == robust.KindCanceled {
						// Cancellation is the caller's decision, not a slice
						// defect: leave the pair incomplete, unquarantined.
						continue
					}
					for fi := range fails {
						fails[fi].GenIndex, fails[fi].SliceIndex = j.g, j.s
					}
					// Retries counts attempts beyond the first: every failed
					// attempt was retried except a quarantined pair's last.
					retried := len(fails)
					if !okRun {
						retried--
					}
					mu.Lock()
					p.Retries += retried
					p.retried[j.g][j.s] = retried
					if !okRun {
						// Quarantine: keep one record, carrying the final
						// attempt count and last failure mode.
						p.Failures = append(p.Failures, fails[len(fails)-1])
						p.Failed[j.g][j.s] = true
					}
					mu.Unlock()
				}
				if st != nil || tel != nil {
					end := time.Now()
					if st != nil {
						pair := gens[j.g].Name + "/" + sl.Name
						if len(fails) > 0 {
							st.Instant("retry", pair, lane, int64(len(fails)))
						}
						st.Record("slice", pair, t0, end, lane, int64(r.Insts))
						spanMu.Lock()
						if genFirst[j.g].IsZero() || t0.Before(genFirst[j.g]) {
							genFirst[j.g] = t0
						}
						if end.After(genLast[j.g]) {
							genLast[j.g] = end
						}
						spanMu.Unlock()
					}
					if tel != nil && okRun {
						tel.observeSlice(gens[j.g].Name, sl.Name, t0)
					}
				}
				if !okRun {
					continue
				}
				p.Results[j.g][j.s] = r
				if ckpt != nil {
					ckT := st.Start()
					if err := ckpt.Append(robust.CheckpointEntry{Gen: j.g, Slice: j.s, Result: r}); err != nil {
						mu.Lock()
						if ckptErr == nil {
							ckptErr = err
						}
						mu.Unlock()
					}
					st.Since(ckT, "checkpoint", "append", lane, 0)
				}
				if cfg.onProgress != nil {
					cfg.onProgress(int(doneCount.Add(1)), total, r.Insts)
				}
			}
		}(w)
	}
dispatch:
	for g := range gens {
		for s := range slices {
			if done[g][s] || !inShard(g, s) {
				continue
			}
			select {
			case jobs <- job{g, s}:
			case <-cancelCh:
				break dispatch
			}
		}
	}
	close(jobs)
	wg.Wait()
	if st != nil {
		genLane := st.Lane("generations")
		for g := range gens {
			if !genFirst[g].IsZero() {
				st.Record("generation", gens[g].Name, genFirst[g], genLast[g], genLane, int64(len(slices)))
			}
		}
		st.Record("job", "population-sweep", start, time.Now(), st.Lane("job"), int64(total))
	}
	for g := range p.Results {
		for s := range p.Results[g] {
			if !p.ok(g, s) {
				continue
			}
			p.TotalInsts += p.Results[g][s].Insts
			p.TotalCycles += p.Results[g][s].Cycles
		}
	}
	p.WallSeconds = time.Since(start).Seconds()
	if err := ctx.Err(); err != nil {
		return p, err
	}
	if ckptErr != nil {
		return p, ckptErr
	}
	return p, nil
}
