// Command perfbench is exysim's benchmark: one Go process that drives
// exysim's public API through three workloads, checks every result, and
// prints each metric by name and unit, the last line being one JSON
// object. See README.md for why each workload exists and what each
// metric should move.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload sweep_cold|lab_m7|serve_mixed --seed N --seconds S --trace 0|1
//	perfbench --write-refs   # regenerate perfbench/refs.json for the default seed
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"exysim/internal/experiments"
	"exysim/internal/fabric"
	"exysim/internal/obs"
	"exysim/internal/serve"
	"exysim/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// Sizing, from figures measured on a 2-vCPU, 8 GB host (README.md).
//
// sweep_cold keeps nothing between sweeps: it spends --seconds on its
// set-ups and ops together and simply sweeps until the time is spent.
// A served deployment keeps something from every op: each one-shot M7
// or SHP variant leaves an idle simulator in its server's SimPool, its
// warm images and its job (README.md, defects 1, 2 and 4). So the
// served workloads run in epochs, one per epochSeconds of --seconds:
// each sets up a fresh deployment and gives it a fixed number of ops. A
// run's op count, and with it the tail percentile, what the last
// deployment keeps and the process's peak, then read the same however
// fast the host or the build runs: about 1.3 GB peak on lab_m7, 0.6 GB
// on serve_mixed and 0.2 GB on sweep_cold.
//
// Warm images are 0.06 MB (M1) to 0.16 MB (M6 and the M7 variants) per
// (generation, slice) pair. serve_mixed's budget holds every image an
// epoch captures (the 198 M1–M6 pairs and at most 36 trace pairs its
// population jobs fork, plus 5 MB per one-shot variant), so nothing it
// forks is ever evicted. lab_m7's worker budgets bound the images its
// one-shot M7 columns leave behind, which are never forked.
const (
	setupReps        = 3                     // set-ups per run at least; setup_s is their median
	sweepMinOps      = 12                    // ~0.8 s per sweep
	epochSeconds     = 12                    // nominal; an epoch takes ~10–13 s
	labOpsPerEpoch   = 2 * variantGeometries // ~0.27 s and ~27 MB left behind per op
	mixedOpsPerEpoch = 50                    // two script blocks of ~4.3 s
	labWorkers       = 2
	labShardSlices   = 4
	labWorkerBudget  = 192 << 20
	mixedBudget      = 512 << 20
	replayCount      = 4 // slices each traced run replays per generation
)

// env is one run's shared state.
type env struct {
	seed    uint64
	start   time.Time     // the run's start
	seconds time.Duration // the run's length (see epochSeconds)
	dir     string        // scratch directory inside the checkout
	tr      *tracer       // nil on the untraced run
	rep     *report
	chk     *checker
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "sweep_cold | lab_m7 | serve_mixed")
	seed := fs.Uint64("seed", defaultSeed, "seed every input derives from")
	seconds := fs.Float64("seconds", 36, "run length: sweep_cold's set-ups and ops, one served epoch per 12 s")
	traced := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	writeRefs := fs.Bool("write-refs", false, "compute the default seed's reference digests into "+refsFile)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	refs, err := loadRefs(refsFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *writeRefs {
		if err := generateRefs(refs); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	work := map[string]func(*env) error{
		"sweep_cold":  runSweepCold,
		"lab_m7":      runLabM7,
		"serve_mixed": runServeMixed,
	}[*name]
	if work == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload sweep_cold|lab_m7|serve_mixed, --seconds > 0, --trace 0|1")
		return 2
	}
	e := &env{
		seed:    *seed,
		start:   time.Now(),
		seconds: time.Duration(*seconds * float64(time.Second)),
		dir:     filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())),
		rep:     newReport(),
		chk:     newChecker(refs),
	}
	if *traced == 1 {
		e.tr = newTracer()
	}
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(e.dir)
	if err := work(e); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	e.rep.attempted, e.rep.failed = e.chk.attempted, e.chk.failed
	for _, msg := range e.chk.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
	e.rep.set("error_rate", e.rep.errorRate())
	specs := endToEnd
	if e.tr != nil {
		specs = perLayer
		path := filepath.Join(".bench_build", "traces", *name+".perfetto.json")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = e.tr.writePerfetto(path)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: perfetto:", err)
			return 1
		}
		e.rep.note("perfetto trace: %s", path)
	}
	if err := e.rep.write(stdout, *name, specs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// untilSpent runs op(i) for i = 0, 1, ... until --seconds since the
// run's start is spent, and at least minOps times so that every run has
// a tail. It returns the op count.
func (e *env) untilSpent(minOps int, op func(i int)) int {
	i := 0
	for ; i < minOps || time.Since(e.start) < e.seconds; i++ {
		op(i)
	}
	return i
}

// epochCount is a served run's number of epochs: one per epochSeconds
// of --seconds, and at least setupReps.
func (e *env) epochCount() int {
	return max(setupReps, int(math.Round(e.seconds.Seconds()/epochSeconds)))
}

// served is a served workload's part in epochs.
type served struct {
	n     int                                         // ops per epoch
	start func() (*deployment, *client, error)        // one set-up, timed
	ready func() error                                // after each set-up, untimed
	op    func(dep *deployment, cl *client, i, g int) // op i of an epoch, g counting across epochs
}

// epochs runs a served workload's timed part: one epoch per
// epochSeconds of --seconds, and at least setupReps. Each epoch sets up
// a fresh deployment (setup_s is the median set-up time) and runs ops
// 0..n-1 on it. All but the last deployment are torn down, and their
// garbage collected, before the next set-up. The last is returned open,
// with its counters read before (a) and after (b) its ops, so the
// caller can read what it keeps; the caller closes it.
func (e *env) epochs(w served) (dep *deployment, cl *client, a, b counters, err error) {
	var setups []float64
	g := 0
	for ep := 0; ep < e.epochCount(); ep++ {
		if dep != nil {
			cl.close()
			if err := dep.close(); err != nil {
				return nil, nil, a, b, fmt.Errorf("tear-down: %w", err)
			}
			dep, cl = nil, nil
			runtime.GC()
		}
		t0 := time.Now()
		id := e.tr.begin("bench", "setup", "client", -1, -1)
		dep, cl, err = w.start()
		e.tr.end(id)
		if err == nil {
			setups = append(setups, time.Since(t0).Seconds())
			err = w.ready()
		}
		if err != nil {
			if cl != nil {
				cl.close()
			}
			if dep != nil {
				dep.close()
			}
			return nil, nil, a, b, fmt.Errorf("set-up: %w", err)
		}
		a = dep.read()
		for i := 0; i < w.n; i++ {
			w.op(dep, cl, i, g)
			g++
		}
		b = dep.read()
	}
	e.rep.set("setup_s", median(setups))
	e.rep.note("%d epochs of %d ops", len(setups), w.n)
	return dep, cl, a, b, nil
}

// traceOp reports whether op i is traced: on the traced run every other
// op is, so untraced and traced ops interleave under the same host load
// and their ratio is the tracing overhead.
func (e *env) traceOp(i int) bool { return e.tr != nil && i%2 == 1 }

// opStats accumulates op times and per-op resource deltas.
type opStats struct {
	times       []float64 // untraced ops (all ops on the untraced run)
	traced      []float64
	byKind      map[string]*[2][]float64 // op kind → untraced, traced times
	insts       float64                  // measured simulated instructions of untraced ops
	allocMB     float64                  // Go runtime deltas over untraced ops
	gcs, pausMs float64
	counted     int
	peakRSS     float64 // MB, read right after the timed loop
}

// add records one op of the given kind.
func (s *opStats) add(traced bool, kind string, secs, insts float64) {
	if s.byKind == nil {
		s.byKind = map[string]*[2][]float64{}
	}
	k := s.byKind[kind]
	if k == nil {
		k = new([2][]float64)
		s.byKind[kind] = k
	}
	if traced {
		s.traced = append(s.traced, secs)
		k[1] = append(k[1], secs)
		return
	}
	s.times = append(s.times, secs)
	s.insts += insts
	k[0] = append(k[0], secs)
}

// traceOverhead is traced ÷ untraced op time − 1 over the same mix of
// op kinds: each kind's median op time, weighted by its op count, so a
// different mix among the traced ops does not read as overhead and a
// kind's weight follows the time it takes.
func (s *opStats) traceOverhead() float64 {
	var traced, untraced float64
	for _, k := range s.byKind {
		if len(k[0]) == 0 || len(k[1]) == 0 {
			continue
		}
		w := float64(len(k[0]) + len(k[1]))
		traced += w * median(k[1])
		untraced += w * median(k[0])
	}
	if untraced == 0 {
		return 0
	}
	return traced/untraced - 1
}

// peakRSSMB is the process's max RSS so far (getrusage; Linux reports
// KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// memDelta records the Go runtime deltas of one untraced op.
func (s *opStats) memDelta(before, after *runtime.MemStats) {
	s.allocMB += float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	s.gcs += float64(after.NumGC - before.NumGC)
	s.pausMs += float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	s.counted++
}

// setEndToEnd reports the op-time metrics and the process's memory.
// The caller has dropped its own references to results by now, except
// what the workload's user still holds at run end, so the live heap
// after a forced GC is what the deployment keeps.
func (e *env) setEndToEnd(s *opStats) {
	e.rep.set("op_p50_s", median(s.times))
	v, pct, ok := tail(s.times, 10)
	if !ok && len(s.times) > 0 {
		// Too few ops for a tail: report the slowest, flagged by pct.
		v, pct = sortedCopy(s.times)[len(s.times)-1], 100
	}
	e.rep.set("op_tail_s", v)
	e.rep.set("op_tail_pct", pct)
	e.rep.set("op_count", float64(len(s.times)))
	e.rep.note("op_tail_s is p%.1f of %d untraced ops", pct, len(s.times))
	if q := sortedCopy(s.times); len(q) > 0 {
		at := func(f float64) float64 { return q[int(f*float64(len(q)-1))] }
		e.rep.note("op times: min %.4g p25 %.4g p50 %.4g p75 %.4g max %.4g s", q[0], at(.25), at(.5), at(.75), q[len(q)-1])
	}
	e.rep.set("sim_insts_per_s", ratio(s.insts, sum(s.times)))
	e.rep.set("go.alloc_mb_per_op", ratio(s.allocMB, float64(s.counted)))
	e.rep.set("go.gc_per_op", ratio(s.gcs, float64(s.counted)))
	e.rep.set("go.gc_pause_ms_per_op", ratio(s.pausMs, float64(s.counted)))
	if e.tr != nil {
		self, opTotal, opSelf := e.tr.selfTimes()
		n := float64(len(s.traced))
		for _, l := range spanLayers {
			e.rep.set("self_ms."+l, ratio(self[l].Seconds()*1e3, n))
		}
		e.rep.set("bench.unattributed_frac", ratio(opSelf.Seconds(), opTotal.Seconds()))
		e.rep.set("bench.trace_overhead_frac", s.traceOverhead())
	}
	e.rep.set("peak_rss_mb", s.peakRSS)
	e.chk.refs = nil // the stored and computed reference digests
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.rep.set("retained_heap_mb", float64(ms.HeapAlloc)/(1<<20))
}

// setModel reports the simulated per-generation results of a verified
// summary and the two accuracy figures against the paper.
func (e *env) setModel(d *experiments.SummaryDoc) {
	for _, g := range modelGens {
		e.rep.set("model.ipc."+g, d.Means["ipc"][g])
		e.rep.set("model.mpki."+g, d.Means["mpki"][g])
		e.rep.set("model.load_lat."+g, d.Means["load_lat"][g])
	}
	ipc, lat := d.Means["ipc"], d.Means["load_lat"]
	// Paper §X–XI: IPC 1.06 → 2.71 (×2.56), load latency 14.9 → 8.3
	// cycles (−44.3%), M1 → M6.
	gain := 100 * math.Abs(ratio(ipc["M6"], ipc["M1"])/2.56-1)
	drop := 100 * math.Abs((1-ratio(lat["M6"], lat["M1"]))/0.443-1)
	e.rep.set("ipc_gain_err_pct", gain)
	e.rep.set("load_lat_drop_err_pct", drop)
	e.rep.note("model vs paper: ipc_gain_err_pct %.3f %%, load_lat_drop_err_pct %.3f %%", gain, drop)
}

// zeroLayers sets every per-layer metric a workload does not exercise.
func (e *env) zeroLayers(names ...string) {
	for _, n := range names {
		if _, ok := e.rep.values[n]; !ok {
			e.rep.set(n, 0)
		}
	}
}

// ---- sweep_cold ----

func runSweepCold(e *env) error {
	// A run sweeps setupReps seeded populations in turn, op i the
	// (i mod setupReps)-th, so that its median does not hang on what one
	// population costs to simulate. With an odd count, the traced run's
	// every-other traced op still meets every population.
	specs := make([]workload.SuiteSpec, setupReps)
	for j := range specs {
		specs[j] = suiteSpec(e.seed, uint64(1+j))
	}
	// The CLI population commands' defaults: telemetry on, no warm cache,
	// no SimPool, GOMAXPROCS workers.
	sweep := func(spec workload.SuiteSpec) (*experiments.PopulationRun, error) {
		return experiments.Run(context.Background(), spec, experiments.WithTelemetry(experiments.NewSweepTelemetry()))
	}
	// Set-up is one untimed sweep of each population, so the heap and
	// page cache reach their steady size before the first timed op. Each
	// is a plain experiments.Run outside the timed region, so it is its
	// population's reference, unless refs.json stores one to check it
	// against.
	var setups []float64
	var docRaw []byte // the first population's summary, for the model metrics
	for _, spec := range specs {
		t0 := time.Now()
		p, err := sweep(spec)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		doc := p.SummaryDoc()
		if err := unquarantined(&doc); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		raw, err := json.Marshal(doc)
		if err != nil {
			return err
		}
		if docRaw == nil {
			docRaw = raw
		}
		key := refKey{kind: "pop", spec: spec}
		adopted, err := e.chk.refs.adopt(key, raw)
		if err != nil {
			return err
		}
		if !adopted {
			e.chk.op(nil, func() error { return e.chk.checkFullDoc(raw, key) })
		}
	}
	e.rep.set("setup_s", median(setups))

	var st opStats
	var last *experiments.PopulationRun
	var built, tracedOps float64
	e.untilSpent(sweepMinOps, func(i int) {
		last = nil // a population command holds one sweep's result at a time
		spec := specs[i%len(specs)]
		traced := e.traceOp(i)
		var before runtime.MemStats
		if e.tr != nil && !traced {
			runtime.ReadMemStats(&before)
		}
		t0 := time.Now()
		var p *experiments.PopulationRun
		var err error
		if traced {
			var n int
			p, n = reenact(e.tr, i, spec)
			built += float64(n)
			tracedOps++
		} else {
			p, err = sweep(spec)
		}
		secs := time.Since(t0).Seconds()
		if e.tr != nil && !traced {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			st.memDelta(&before, &after)
		}
		if err != nil {
			e.chk.op(err, nil)
			return
		}
		st.add(traced, "sweep", secs, float64(p.TotalInsts))
		last = p
		raw, merr := json.Marshal(p.SummaryDoc())
		e.chk.op(merr, func() error { return e.chk.checkFullDoc(raw, refKey{kind: "pop", spec: spec}) })
	})
	st.peakRSS = peakRSSMB()
	e.chk.finish()
	if doc, err := decodeSummary(docRaw); err == nil {
		e.setModel(doc)
	}
	docRaw = nil
	if e.tr != nil {
		e.rep.set("experiments.sims_built_per_op", ratio(built, tracedOps))
		timeSuite(e.tr, e.rep, specs[0])
		replayLayers(e.tr, e.rep, replaySlices(workload.Suite(specs[0]), replayCount), nil)
	}
	e.zeroLayers(servedOnly()...)
	// sweep_cold's deployment keeps nothing between sweeps; a population
	// command holds the last sweep's result to print its report.
	e.setEndToEnd(&st)
	runtime.KeepAlive(last)
	return nil
}

// ---- served workloads: counters read at op boundaries ----

// counters is one reading of a deployment's registries and fabric.
type counters struct {
	vals  map[string]float64 // summed over every server
	hists map[string]obs.HistogramSnapshot
	fab   fabric.Stats
	wall  float64 // Σ shard wall seconds
}

func (d *deployment) read() counters {
	c := counters{vals: map[string]float64{}, hists: map[string]obs.HistogramSnapshot{}}
	for i, s := range d.servers {
		snap := s.Metrics()
		for k, v := range snap.Values {
			c.vals[k] += v
		}
		if i == 0 {
			c.hists = snap.Hists
		}
	}
	c.fab = d.servers[0].Fabric().Stats()
	c.wall = float64(c.fab.ShardWall.N()) * c.fab.ShardWall.Mean()
	return c
}

// histMean is the mean of a histogram's samples between two readings.
func histMean(a, b counters, name string) float64 {
	x, y := a.hists[name], b.hists[name]
	return ratio(float64(y.Sum-x.Sum), float64(y.Count-x.Count))
}

// setServed reports the served layers from the counter readings at the
// start (a) and end (b) of the timed loop over n ops.
func (e *env) setServed(a, b counters, n int, fabricOverhead float64) {
	d := func(name string) float64 { return b.vals[name] - a.vals[name] }
	per := func(x float64) float64 { return ratio(x, float64(n)) }
	e.rep.set("experiments.sims_built_per_op", per(d("serve.pool.sims_built")))
	forks, captures := d("serve.warm.snapshot_forks"), d("serve.warm.snapshot_captures")
	e.rep.set("warm.forks_per_op", per(forks))
	e.rep.set("warm.captures_per_op", per(captures))
	e.rep.set("warm.capture_reuse_ratio", ratio(forks, captures))
	e.rep.set("warm.evictions_per_op", per(d("serve.warm.snapshot_evictions")))
	e.rep.set("warm.snapshot_mb", b.vals["serve.warm.snapshot_bytes"]/(1<<20))
	hits := d("serve.warm.decode_hits")
	e.rep.set("warm.decode_hit_ratio", ratio(hits, hits+d("serve.warm.decode_misses")))
	fh := float64(b.fab.CacheHits - a.fab.CacheHits)
	fm := float64(b.fab.CacheMisses - a.fab.CacheMisses)
	e.rep.set("fabric.shard_cache_hit_ratio", ratio(fh, fh+fm))
	e.rep.set("fabric.shards_per_op", per(float64(b.fab.ShardsPlanned-a.fab.ShardsPlanned)))
	e.rep.set("fabric.leases_per_op", per(float64(b.fab.LeasesGranted-a.fab.LeasesGranted)))
	e.rep.set("fabric.steals", float64(b.fab.Steals-a.fab.Steals))
	e.rep.set("fabric.shard_errors", float64(b.fab.ShardErrors-a.fab.ShardErrors))
	e.rep.set("fabric.local_runs", float64(b.fab.LocalRuns-a.fab.LocalRuns))
	e.rep.set("fabric.shard_wall_s", per(b.wall-a.wall))
	e.rep.set("fabric.overhead_s", fabricOverhead)
	e.rep.set("serve.queue_wait_ms", histMean(a, b, "serve.queue_wait_us")/1e3)
	e.rep.set("serve.run_s", histMean(a, b, "serve.run_us")/1e6)
	ch, cm := d("serve.cache_hits"), d("serve.cache_misses")
	e.rep.set("serve.cache_hit_ratio", ratio(ch, ch+cm))
	th, tm := b.vals["serve.tracestore.hits"], b.vals["serve.tracestore.misses"]
	e.rep.set("tracestore.hit_ratio", ratio(th, th+tm))
}

// servedOnly lists the metrics only served workloads measure.
func servedOnly() []string {
	return []string{
		"warm.forks_per_op", "warm.captures_per_op", "warm.capture_reuse_ratio",
		"warm.evictions_per_op", "warm.snapshot_mb", "warm.decode_hit_ratio",
		"fabric.shard_cache_hit_ratio", "fabric.shards_per_op", "fabric.leases_per_op",
		"fabric.steals", "fabric.shard_errors", "fabric.local_runs", "fabric.shard_wall_s",
		"fabric.overhead_s", "serve.submit_ms", "serve.result_ms", "serve.queue_wait_ms",
		"serve.run_s", "serve.cache_hit_ratio", "serve.pop_job_p50_s", "serve.slice_job_p50_s",
		"serve.trace_job_p50_s", "serve.cached_job_p50_s", "serve.trace_upload_s",
		"serve.jobs_retained", "trace.champsim_ns_per_inst", "simpoint.analyze_s",
		"tracestore.ingest_s", "tracestore.hit_ratio", "experiments.sims_built_per_op",
	}
}

// servedOp runs one job, returning its outcome and op time in seconds,
// and records its spans on a traced op.
func (e *env) servedOp(cl *client, i int, traced bool, body []byte, submits, results *[]float64) (jobOutcome, float64, error) {
	t0 := time.Now()
	out, err := cl.run(body)
	end := time.Now()
	if traced {
		op := e.tr.spanAt("bench", "op", "client", i, -1, t0, end)
		e.tr.spanAt("serve", "POST /v1/jobs", "client", i, op, out.submitStart, out.submitEnd)
		*submits = append(*submits, out.submitEnd.Sub(out.submitStart).Seconds()*1e3)
		if !out.cached && err == nil {
			e.tr.spanAt("serve", "GET /v1/jobs/{id}/stream", "client", i, op, out.submitEnd, out.streamEnd)
			*results = append(*results, out.streamEnd.Sub(out.submitEnd).Seconds()*1e3)
		}
	}
	return out, end.Sub(t0).Seconds(), err
}

// ---- lab_m7 ----

func runLabM7(e *env) error {
	spec := suiteSpec(e.seed, 1)
	base := jobRequest{SchemaVersion: 2, Spec: toSpecRequest(spec)}
	var setupRaw []byte
	var setupDoc *experiments.SummaryDoc // the current epoch's cache-filling job
	var st opStats
	var submits, results, overhead []float64
	var firstM7 []byte
	var firstName string
	lastVariant := tageVariant(e.seed, 0)
	dep, cl, a, b, err := e.epochs(served{
		n: labOpsPerEpoch,
		start: func() (*deployment, *client, error) {
			dep, err := startLab(labWorkers, labShardSlices, labWorkerBudget)
			if err != nil {
				return nil, nil, err
			}
			cl := newClient(dep.url)
			out, err := cl.run(base.body())
			if err != nil {
				return dep, cl, fmt.Errorf("cache-filling job: %w", err)
			}
			setupRaw = out.result
			return dep, cl, nil
		},
		ready: func() error {
			raw := setupRaw
			d, err := decodeSummary(raw)
			if err != nil {
				return err
			}
			setupDoc = d
			e.chk.op(nil, func() error { return e.chk.checkFullDoc(raw, refKey{kind: "pop", spec: spec}) })
			return nil
		},
		op: func(dep *deployment, cl *client, i, g int) {
			traced := e.traceOp(g)
			v := tageVariant(e.seed, i)
			req := base
			req.M7 = m7Of(v, i)
			var before runtime.MemStats
			var c0 counters
			if e.tr != nil {
				c0 = dep.read()
				if !traced {
					runtime.ReadMemStats(&before)
				}
			}
			out, secs, err := e.servedOp(cl, g, traced, req.body(), &submits, &results)
			if e.tr != nil {
				c1 := dep.read()
				overhead = append(overhead, secs-(c1.wall-c0.wall)/labWorkers)
				if !traced {
					var after runtime.MemStats
					runtime.ReadMemStats(&after)
					st.memDelta(&before, &after)
				}
			}
			if err != nil {
				e.chk.op(err, nil)
				return
			}
			st.add(traced, "m7", secs, float64(setupDoc.Slices*instsPerSlice))
			if firstM7 == nil {
				firstM7, firstName = out.result, m7Name(i)
			}
			lastVariant = v
			raw, base := out.result, setupDoc
			e.chk.op(nil, func() error {
				return e.chk.checkM7Doc(raw, base, m7Name(i), refKey{kind: "m7", spec: spec, m7: v})
			})
		},
	})
	if err != nil {
		return err
	}
	defer dep.close()
	defer cl.close()
	st.peakRSS = peakRSSMB()
	e.chk.finish()
	if d, err := decodeSummary(firstM7); err == nil {
		for m := range setupDoc.Means {
			setupDoc.Means[m]["M7"] = d.Means[m][firstName]
		}
	}
	e.setModel(setupDoc)
	setupRaw, setupDoc, firstM7 = nil, nil, nil
	if e.tr != nil {
		e.setServed(a, b, labOpsPerEpoch, median(overhead))
		e.rep.set("serve.submit_ms", median(submits))
		e.rep.set("serve.result_ms", median(results))
		e.rep.set("serve.pop_job_p50_s", median(append(append([]float64(nil), st.times...), st.traced...)))
		if jobs, err := cl.jobsRetained(); err == nil {
			e.rep.set("serve.jobs_retained", float64(jobs))
		}
		timeSuite(e.tr, e.rep, spec)
		gens, err := experiments.HypotheticalGens("M6", "M7", lastVariant)
		if err != nil {
			return err
		}
		m7 := gens[len(gens)-1]
		replayLayers(e.tr, e.rep, replaySlices(workload.Suite(spec), replayCount), &m7)
	}
	e.zeroLayers(servedOnly()...)
	e.setEndToEnd(&st)
	return nil
}

// ---- serve_mixed ----

func runServeMixed(e *env) error {
	upload, err := champSimUpload(e.seed)
	if err != nil {
		return err
	}
	query := fmt.Sprintf("name=%s&interval=%d&maxk=%d", uploadName, uploadInterval, uploadMaxK)
	var up uploadDoc
	var popRaw, traceRaw []byte
	var uploads []float64
	// Set by the first epoch's set-up; every later one must store the
	// same upload under the same id.
	var traceID string
	var script []mixedOp // every epoch's ops, epoch after epoch
	var first [][]byte   // each script op's first computation
	var traceInsts, popInsts float64
	// The current epoch's cache-filling jobs, and the first epoch's
	// population job, whose population the model metrics report.
	var popDoc, traceDoc, firstPopDoc *experiments.SummaryDoc
	var st opStats
	var submits, resultsMs []float64
	byKind := map[string][]float64{}
	var firstPopM7 []byte
	var firstName string
	dep, cl, a, b, err := e.epochs(served{
		n: mixedOpsPerEpoch,
		start: func() (*deployment, *client, error) {
			ep := len(uploads)
			dep, err := startDaemon(serve.Config{
				TraceDir:       filepath.Join(e.dir, fmt.Sprintf("traces-%d", ep)),
				SnapshotBudget: mixedBudget,
			})
			if err != nil {
				return nil, nil, err
			}
			cl := newClient(dep.url)
			u0 := time.Now()
			up, err = cl.upload(query, upload)
			e.tr.spanAt("serve", "POST /v1/traces", "client", -1, -1, u0, time.Now())
			uploads = append(uploads, time.Since(u0).Seconds())
			var pop, tr jobOutcome
			if err == nil {
				pop, err = cl.run(mixedPopRequest(e.seed, ep).body())
			}
			if err == nil {
				tr, err = cl.run(mixedTraceRequest(e.seed, up.Meta.ID).body())
			}
			popRaw, traceRaw = pop.result, tr.result
			return dep, cl, err
		},
		ready: func() error {
			if traceID != "" && up.Meta.ID != traceID {
				return fmt.Errorf("upload stored as %s, in an earlier epoch as %s", up.Meta.ID, traceID)
			}
			traceID = up.Meta.ID
			ep := len(uploads) - 1
			pop, tr := popRaw, traceRaw
			var err error
			if popDoc, err = decodeSummary(pop); err != nil {
				return err
			}
			if traceDoc, err = decodeSummary(tr); err != nil {
				return err
			}
			e.chk.op(nil, func() error {
				return e.chk.checkFullDoc(pop, refKey{kind: "pop", spec: mixedPopulation(e.seed, ep)})
			})
			e.chk.op(nil, func() error {
				return e.chk.checkFullDoc(tr, refKey{kind: "pop", spec: suiteSpec(e.seed, 1), trace: traceID})
			})
			if script == nil {
				script = mixedScript(e.seed, traceID, e.epochCount()*mixedOpsPerEpoch, mixedOpsPerEpoch)
				first = make([][]byte, len(script))
				traceInsts = float64(up.measuredInsts())
				popInsts = float64(popDoc.Slices * instsPerSlice)
				firstPopDoc = popDoc
			}
			return nil
		},
		op: func(_ *deployment, cl *client, _, g int) {
			op := script[g]
			traced := e.traceOp(g)
			var before runtime.MemStats
			if e.tr != nil && !traced {
				runtime.ReadMemStats(&before)
			}
			out, secs, err := e.servedOp(cl, g, traced, op.req.body(), &submits, &resultsMs)
			if e.tr != nil && !traced {
				var after runtime.MemStats
				runtime.ReadMemStats(&after)
				st.memDelta(&before, &after)
			}
			if err != nil {
				e.chk.op(err, nil)
				return
			}
			// Time and count an op by what the daemon did: a resubmission
			// it recomputed is its original kind, an answer from the
			// result cache is a cache hit and simulated nothing.
			kind := op.kind
			switch {
			case out.cached:
				kind = kindCached
			case kind == kindCached:
				kind = script[op.of].kind
			}
			byKind[kind] = append(byKind[kind], secs)
			insts := map[string]float64{kindPop: 7 * popInsts, kindTrace: 7 * traceInsts, kindSlice: instsPerSlice}[kind]
			st.add(traced, kind, secs, insts)
			raw, pd, td := out.result, popDoc, traceDoc
			if op.kind != kindCached {
				first[g] = raw
			}
			if op.kind == kindPop && firstPopM7 == nil {
				firstPopM7, firstName = raw, op.req.M7.Name
			}
			e.chk.op(nil, func() error { return e.checkMixed(script, first, op, raw, pd, td, traceID) })
		},
	})
	if err != nil {
		return err
	}
	defer dep.close()
	defer cl.close()
	st.peakRSS = peakRSSMB()
	for _, k := range []string{kindPop, kindSlice, kindTrace, kindCached} {
		e.rep.note("%-6s jobs: %3d, p50 %.4f s", k, len(byKind[k]), median(byKind[k]))
	}
	// The references of trace jobs sweep the same population, ingested
	// here from the same bytes into a scratch store.
	pop, _, err := ingestScratch(nil, upload, filepath.Join(e.dir, "scratch"))
	if err == nil && pop.Meta.ID != traceID {
		err = fmt.Errorf("scratch ingest id %s, daemon's %s", pop.Meta.ID, traceID)
	}
	if err != nil {
		return err
	}
	e.chk.refs.pops[traceID] = &populationRef{id: pop.Meta.ID, slices: pop.Slices}
	e.chk.finish()
	delete(e.chk.refs.pops, traceID)
	if d, err := decodeSummary(firstPopM7); err == nil {
		for m := range firstPopDoc.Means {
			firstPopDoc.Means[m]["M7"] = d.Means[m][firstName]
		}
	}
	e.setModel(firstPopDoc)
	first, popRaw, traceRaw, firstPopM7, pop = nil, nil, nil, nil, nil
	popDoc, traceDoc, firstPopDoc, script = nil, nil, nil, nil
	if e.tr != nil {
		e.setServed(a, b, mixedOpsPerEpoch, 0)
		e.rep.set("serve.submit_ms", median(submits))
		e.rep.set("serve.result_ms", median(resultsMs))
		e.rep.set("serve.pop_job_p50_s", median(byKind[kindPop]))
		e.rep.set("serve.slice_job_p50_s", median(byKind[kindSlice]))
		e.rep.set("serve.trace_job_p50_s", median(byKind[kindTrace]))
		e.rep.set("serve.cached_job_p50_s", median(byKind[kindCached]))
		e.rep.set("serve.trace_upload_s", median(uploads))
		if jobs, err := cl.jobsRetained(); err == nil {
			e.rep.set("serve.jobs_retained", float64(jobs))
		}
		spec := suiteSpec(e.seed, 1)
		timeSuite(e.tr, e.rep, spec)
		if _, err := replayIngest(e.tr, e.rep, upload, filepath.Join(e.dir, "replay")); err != nil {
			return err
		}
		replayLayers(e.tr, e.rep, replaySlices(workload.Suite(spec), replayCount), nil)
	}
	e.zeroLayers(servedOnly()...)
	e.setEndToEnd(&st)
	return nil
}

// checkMixed verifies one serve_mixed op's result.
func (e *env) checkMixed(script []mixedOp, first [][]byte, op mixedOp, raw []byte,
	popDoc, traceDoc *experiments.SummaryDoc, traceID string) error {
	if op.kind == kindCached {
		if orig := first[op.of]; orig != nil {
			if err := sameBytes(raw, orig); err != nil {
				return err
			}
		}
		op = script[op.of]
	}
	switch op.kind {
	case kindPop:
		return e.chk.checkM7Doc(raw, popDoc, op.req.M7.Name, refKey{kind: "m7", spec: op.spec, m7: op.variant})
	case kindTrace:
		return e.chk.checkM7Doc(raw, traceDoc, op.req.M7.Name, refKey{kind: "m7", spec: op.spec, trace: traceID, m7: op.variant})
	default:
		return e.chk.checkSliceDoc(raw, refKey{kind: "slice", spec: op.spec, gen: op.req.Gen, slice: op.req.Slice})
	}
}
