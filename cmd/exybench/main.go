// Command exybench is the performance gate for the simulator's hot
// path. It measures raw simulation throughput (instructions per
// wall-clock second) for every generation on the same workload slice
// the Go benchmarks use, writes the results as machine-readable JSON,
// and compares two such reports to flag regressions.
//
// Usage:
//
//	exybench run [--out=BENCH_throughput.json] [--reps=5] [--smoke]
//	exybench compare --base=BENCH_throughput.json [--new=FILE] [--tolerance=0.7]
//
// `run` records the best (minimum time) of --reps measurement batches
// per generation; min-of-N is robust against scheduler noise, which on
// shared machines dwarfs the true variance of this workload. --smoke
// runs a single tiny batch per generation — enough to prove the
// pipeline executes and the step loop does not allocate, cheap enough
// for the tier-1 gate.
//
// `compare` re-measures the current build when --new is omitted, and
// exits nonzero if any generation's throughput falls below
// tolerance × baseline.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"sync"

	"exysim/internal/branch"
	"exysim/internal/core"
	"exysim/internal/experiments"
	"exysim/internal/fabric"
	"exysim/internal/simpoint"
	"exysim/internal/trace"
	"exysim/internal/tracestore"
	"exysim/internal/workload"
)

// benchSpec mirrors the population spec in bench_test.go so JSON
// baselines and `go test -bench` numbers are directly comparable.
var benchSpec = workload.SuiteSpec{SlicesPerFamily: 2, InstsPerSlice: 40_000, WarmupFrac: 0.25, Seed: 0xE59}

// popSmokeSpec is the tiny population the tier-1 smoke gate runs: large
// enough to exercise the worker pools and simulator recycling, small
// enough to finish in a couple of seconds.
var popSmokeSpec = workload.SuiteSpec{SlicesPerFamily: 1, InstsPerSlice: 8_000, WarmupFrac: 0.25, Seed: 0xE59}

const benchSlice = "specint/0"

// GenResult is one generation's throughput measurement.
type GenResult struct {
	Gen         string  `json:"gen"`
	NsPerOp     float64 `json:"ns_per_op"`
	InstsPerSec float64 `json:"insts_per_sec"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Iterations  int     `json:"iterations"`
	Reps        int     `json:"reps"`
}

// PopResult is a population-scale measurement: one experiments.Run
// (every generation × the whole benchSpec suite, fanned across CPUs with
// per-worker simulator pools), best of N runs. Unlike the per-generation
// rows, which time the single-threaded step loop, this times the
// orchestration the figure CLIs actually execute — suite generation,
// worker fan-out, and simulator recycling included. Reports carry two
// such entries: `population` is the warm steady-state (sweeps fork each
// (generation, slice) pair from a cached warm-state snapshot and replay
// only the measured region — the regime exyserve and repeated-sweep
// campaigns run in), `population_cold` re-pays suite generation and
// warmup every sweep. InstsPerSec divides *measured* instructions by
// wall time in both, so the two entries are directly comparable.
type PopResult struct {
	SlicesPerFamily int     `json:"slices_per_family"`
	InstsPerSlice   int     `json:"insts_per_slice"`
	Slices          int     `json:"slices"`
	TotalInsts      uint64  `json:"total_insts"`
	WallSeconds     float64 `json:"wall_seconds"`
	InstsPerSec     float64 `json:"insts_per_sec"`
	Reps            int     `json:"reps"`
	// Workers is the fabric worker count for population_fabric entries;
	// 0 for the single-process entries.
	Workers int `json:"workers,omitempty"`
}

// EnvInfo is the provenance block embedded in every report: enough to
// tell whether two BENCH_throughput.json files were measured on
// comparable machines. compare never gates on it — throughput deltas
// across different hardware are information, not regressions — but it
// prints a notice when the environments differ.
type EnvInfo struct {
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	OSArch     string `json:"os_arch"`
	// CPU is the host processor description (Linux /proc/cpuinfo);
	// empty where unavailable.
	CPU string `json:"cpu,omitempty"`
}

func (e *EnvInfo) String() string {
	s := fmt.Sprintf("%s %s, %d cpus (GOMAXPROCS %d)", e.GoVersion, e.OSArch, e.NumCPU, e.GoMaxProcs)
	if e.CPU != "" {
		s += ", " + e.CPU
	}
	return s
}

func collectEnv() *EnvInfo {
	return &EnvInfo{
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		CPU:        cpuModel(),
	}
}

// cpuModel best-effort reads the processor description from
// /proc/cpuinfo; returns "" on non-Linux hosts.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok {
			switch strings.TrimSpace(name) {
			case "model name", "Processor", "cpu model":
				return strings.TrimSpace(val)
			}
		}
	}
	return ""
}

// Report is the BENCH_throughput.json schema. GoVersion/NumCPU predate
// the Env block and stay for older tooling; Env is the full provenance.
type Report struct {
	Slice      string      `json:"slice"`
	Insts      uint64      `json:"insts_per_op"`
	GoVersion  string      `json:"go_version"`
	NumCPU     int         `json:"num_cpu"`
	Env        *EnvInfo    `json:"env,omitempty"`
	Results    []GenResult `json:"results"`
	Population *PopResult  `json:"population,omitempty"`
	// PopulationCold is the cold-sweep counterpart of Population; absent
	// in baselines that predate warm-state snapshots.
	PopulationCold *PopResult `json:"population_cold,omitempty"`
	// PopulationFabric is the distributed-fabric serving regime: one
	// in-process coordinator + 4 workers, measured at the shard-cache
	// steady state repeated sweeps converge to; absent in baselines
	// that predate the fabric.
	PopulationFabric *PopResult `json:"population_fabric,omitempty"`
	// TracePopulation times the real-trace pipeline end to end —
	// streaming ChampSim ingest with SimPoint slicing into a fresh
	// content-addressed store, then a weighted sweep of the ingested
	// population across every generation. InstsPerSlice records the
	// SimPoint detail-interval length (the spec fields comparePop keys
	// on); absent in baselines that predate trace ingest.
	TracePopulation *PopResult `json:"trace_population,omitempty"`
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "run":
		cmdRun(os.Args[2:])
	case "compare":
		cmdCompare(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: exybench run|compare [flags]")
	os.Exit(2)
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	out := fs.String("out", "BENCH_throughput.json", "output JSON path (empty: stdout table only)")
	reps := fs.Int("reps", 5, "measurement batches per generation; the minimum time is reported")
	smoke := fs.Bool("smoke", false, "single tiny batch per generation (tier-1 gate mode)")
	fs.Parse(args)

	rep := measure(*reps, *smoke)
	printTable(rep)
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

func cmdCompare(args []string) {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	basePath := fs.String("base", "BENCH_throughput.json", "baseline JSON")
	newPath := fs.String("new", "", "candidate JSON (empty: measure the current build)")
	// Even min-of-5 batches swing ~20% on shared machines, so the
	// default margin is generous; it still catches the >1.5x class of
	// regression this gate exists for.
	tol := fs.Float64("tolerance", 0.70, "fail if any generation drops below tolerance x baseline")
	reps := fs.Int("reps", 5, "measurement batches when re-measuring")
	fs.Parse(args)

	base, err := load(*basePath)
	if err != nil {
		fatal(err)
	}
	var cand *Report
	if *newPath != "" {
		if cand, err = load(*newPath); err != nil {
			fatal(err)
		}
	} else {
		cand = measure(*reps, false)
	}

	out := compareReports(base, cand, *tol)
	for _, line := range out.lines {
		fmt.Println(line)
	}
	for _, note := range out.envNotes {
		fmt.Println(note)
	}
	if len(out.added) > 0 {
		fmt.Printf("entries only in the new run (reported, not gated): %s\n", strings.Join(out.added, ", "))
	}
	if len(out.removed) > 0 {
		fmt.Printf("entries only in the baseline (reported, not gated): %s\n", strings.Join(out.removed, ", "))
	}
	if out.fail {
		fmt.Fprintf(os.Stderr, "exybench: throughput regression beyond tolerance %.2f\n", *tol)
		os.Exit(1)
	}
}

// compareOutcome is the result of comparing a candidate report against a
// baseline: formatted table lines, the entries present in only one of
// the two reports, and whether any shared entry regressed past
// tolerance.
type compareOutcome struct {
	lines   []string
	added   []string // in candidate, not in baseline
	removed []string // in baseline, not in candidate
	// envNotes flags measurement-environment mismatches between the two
	// reports; informational only, never part of the gate math.
	envNotes []string
	fail     bool
}

// compareReports gates only on entries present in both reports. Entries
// that appear on just one side (a generation added or retired since the
// baseline was committed, a baseline predating the population benchmark)
// are reported as added/removed instead of failing the comparison — a
// stale baseline should prompt a `make bench` refresh, not block the
// gate on unrelated work.
func compareReports(base, cand *Report, tol float64) compareOutcome {
	var out compareOutcome
	if base.Env != nil && cand.Env != nil && *base.Env != *cand.Env {
		out.envNotes = append(out.envNotes,
			"environment differs between reports (ratios reflect hardware as well as code):",
			"  base: "+base.Env.String(),
			"  new:  "+cand.Env.String())
	}
	baseBy := map[string]GenResult{}
	for _, r := range base.Results {
		baseBy[r.Gen] = r
	}
	candSeen := map[string]bool{}
	out.lines = append(out.lines, fmt.Sprintf("%-4s  %14s  %14s  %7s", "gen", "base insts/s", "new insts/s", "ratio"))
	for _, n := range cand.Results {
		candSeen[n.Gen] = true
		b, ok := baseBy[n.Gen]
		if !ok {
			out.lines = append(out.lines, fmt.Sprintf("%-4s  %14s  %14.0f  %7s", n.Gen, "-", n.InstsPerSec, "new"))
			out.added = append(out.added, n.Gen)
			continue
		}
		if b.InstsPerSec <= 0 {
			// A zero/negative baseline can only come from a damaged file;
			// gating on it would divide by zero. Report and move on.
			out.lines = append(out.lines, fmt.Sprintf("%-4s  %14s  %14.0f  %7s", n.Gen, "bad", n.InstsPerSec, "skip"))
			continue
		}
		ratio := n.InstsPerSec / b.InstsPerSec
		mark := ""
		if ratio < tol {
			mark = "  REGRESSION"
			out.fail = true
		}
		out.lines = append(out.lines, fmt.Sprintf("%-4s  %14.0f  %14.0f  %6.2fx%s", n.Gen, b.InstsPerSec, n.InstsPerSec, ratio, mark))
	}
	for _, b := range base.Results {
		if !candSeen[b.Gen] {
			out.lines = append(out.lines, fmt.Sprintf("%-4s  %14.0f  %14s  %7s", b.Gen, b.InstsPerSec, "-", "removed"))
			out.removed = append(out.removed, b.Gen)
		}
	}
	out.comparePop("pop", base.Population, cand.Population, tol)
	out.comparePop("cold", base.PopulationCold, cand.PopulationCold, tol)
	out.comparePop("fab", base.PopulationFabric, cand.PopulationFabric, tol)
	out.comparePop("trace", base.TracePopulation, cand.TracePopulation, tol)
	return out
}

// comparePop gates one population entry (warm or cold) with the same
// present-in-both rule the per-generation rows use.
func (out *compareOutcome) comparePop(label string, b, n *PopResult, tol float64) {
	switch {
	case n == nil && b == nil:
	case n == nil:
		out.lines = append(out.lines, fmt.Sprintf("%-4s  %14.0f  %14s  %7s", label, b.InstsPerSec, "-", "removed"))
		out.removed = append(out.removed, label)
	case b == nil:
		// Baseline predates this population entry: report, don't gate.
		out.lines = append(out.lines, fmt.Sprintf("%-4s  %14s  %14.0f  %7s", label, "-", n.InstsPerSec, "new"))
		out.added = append(out.added, label)
	case b.SlicesPerFamily != n.SlicesPerFamily || b.InstsPerSlice != n.InstsPerSlice:
		out.lines = append(out.lines, fmt.Sprintf("%-4s  %14s  %14.0f  %7s", label, "spec?", n.InstsPerSec, "skip"))
	case b.InstsPerSec <= 0:
		out.lines = append(out.lines, fmt.Sprintf("%-4s  %14s  %14.0f  %7s", label, "bad", n.InstsPerSec, "skip"))
	default:
		ratio := n.InstsPerSec / b.InstsPerSec
		mark := ""
		if ratio < tol {
			mark = "  REGRESSION"
			out.fail = true
		}
		out.lines = append(out.lines, fmt.Sprintf("%-4s  %14.0f  %14.0f  %6.2fx%s", label, b.InstsPerSec, n.InstsPerSec, ratio, mark))
	}
}

// measure times RunSlice per generation. Each of reps batches runs the
// slice `iters` times; the fastest batch defines the reported numbers.
// Allocation counts come from runtime.MemStats deltas across all
// batches — steady-state runs allocate only per-simulator construction,
// so the per-op figures stay near the construction footprint.
func measure(reps int, smoke bool) *Report {
	sl, err := workload.ByName(benchSlice, benchSpec)
	if err != nil {
		fatal(err)
	}
	rep := &Report{
		Slice:     benchSlice,
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Env:       collectEnv(),
	}
	for _, g := range append(core.Generations(), tageGen()) {
		// Warm (and measure instruction count) outside the timed region.
		r := core.RunSlice(g, sl)
		rep.Insts = r.Insts

		iters := calibrate(g, sl)
		if smoke {
			reps, iters = 1, 1
		}
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		best := time.Duration(1<<63 - 1)
		for rI := 0; rI < reps; rI++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				core.RunSlice(g, sl)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		runtime.ReadMemStats(&ms1)
		ops := float64(reps * iters)
		nsPerOp := float64(best.Nanoseconds()) / float64(iters)
		rep.Results = append(rep.Results, GenResult{
			Gen:         g.Name,
			NsPerOp:     nsPerOp,
			InstsPerSec: float64(rep.Insts) / (nsPerOp / 1e9),
			BytesPerOp:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / ops,
			AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / ops,
			Iterations:  iters,
			Reps:        reps,
		})
	}
	rep.PopulationCold = measurePopulation(reps, smoke, 1)
	// The warm entry measures the full steady-state serving stack: warm
	// snapshots to skip re-warming plus a simulator pool shared across
	// reps, exactly the configuration a long-lived exyserve process
	// converges to. It takes two un-scored passes, because the cache
	// captures a pair's image on the pair's second warmup. The cold
	// entry keeps the historical methodology (fresh simulators, full
	// warmup) for baseline continuity.
	warm := experiments.NewWarmCache()
	rep.Population = measurePopulation(reps, smoke, 2,
		experiments.WithWarmSnapshots(warm), experiments.WithSimPool(experiments.NewSimPool()))
	rep.PopulationFabric = measureFabric(reps, smoke)
	rep.TracePopulation = measureTracePopulation(reps, smoke)
	return rep
}

// measureTracePopulation times the real-trace pipeline end to end: a
// deterministic multi-phase ChampSim stream is SimPoint-ingested into a
// fresh content-addressed store (streaming analysis + weighted slice
// extraction), then the ingested population sweeps every generation
// with weighted estimates. Each rep pays the whole pipeline — ingest is
// the point of the entry, so it stays on the clock. InstsPerSec divides
// the sweep's measured instructions by that full wall time.
func measureTracePopulation(reps int, smoke bool) *PopResult {
	spec := benchSpec
	if smoke {
		spec, reps = popSmokeSpec, 1
	}
	// Phases from three synthetic families in an A B A B C A pattern —
	// enough structure for SimPoint to find more than one cluster.
	phaseSpec := workload.SuiteSpec{SlicesPerFamily: 1, InstsPerSlice: spec.InstsPerSlice, WarmupFrac: 0, Seed: spec.Seed}
	var src bytes.Buffer
	for _, name := range []string{"micro.tight/0", "specint/0", "micro.tight/0", "specint/0", "web/0", "micro.tight/0"} {
		sl, err := workload.ByName(name, phaseSpec)
		if err != nil {
			fatal(err)
		}
		if err := trace.WriteChampSim(&src, sl); err != nil {
			fatal(err)
		}
	}
	cfg := simpoint.DefaultConfig()
	cfg.IntervalInsts = spec.InstsPerSlice / 2
	cfg.MaxK = 4

	pipeline := func() (*experiments.PopulationRun, float64) {
		dir, err := os.MkdirTemp("", "exybench-trace-")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(dir)
		t0 := time.Now()
		st, err := tracestore.Open(dir)
		if err != nil {
			fatal(err)
		}
		pop, _, err := st.Ingest(func() (io.ReadCloser, error) {
			return io.NopCloser(bytes.NewReader(src.Bytes())), nil
		}, tracestore.IngestOptions{Name: "bench", SimPoint: cfg})
		if err != nil {
			fatal(err)
		}
		p, err := experiments.Run(context.Background(), spec,
			experiments.WithPopulation(pop.Meta.ID, pop.Slices))
		if err != nil {
			fatal(err)
		}
		return p, time.Since(t0).Seconds()
	}
	p, _ := pipeline() // unscored warm pass
	best := float64(0)
	for r := 0; r < reps; r++ {
		var wall float64
		p, wall = pipeline()
		if best == 0 || wall < best {
			best = wall
		}
	}
	return &PopResult{
		// SlicesPerFamily 0 / InstsPerSlice = detail-interval length: the
		// spec identity comparePop gates on, stable across machines.
		InstsPerSlice: cfg.IntervalInsts,
		Slices:        len(p.Slices),
		TotalInsts:    p.TotalInsts,
		WallSeconds:   best,
		InstsPerSec:   float64(p.TotalInsts) / best,
		Reps:          reps,
	}
}

// measureFabric times sweeps routed through the distributed fabric: an
// in-process coordinator with 4 local workers (each owning its own
// simulator pool and warm cache, splitting GOMAXPROCS between them —
// the topology `exyserve --worker` builds, minus the HTTP hop). The
// unscored first sweep fills the worker warm caches and the
// coordinator's digest-keyed shard cache; the scored reps then measure
// the steady state a repeated-sweep serving campaign converges to,
// where shards are answered from the shared cache and only planning,
// cache lookup, and the bit-identical merge remain on the wall clock.
func measureFabric(reps int, smoke bool) *PopResult {
	spec := benchSpec
	if smoke {
		spec, reps = popSmokeSpec, 1
	}
	const workers = 4
	per := runtime.GOMAXPROCS(0) / workers
	if per < 1 {
		per = 1
	}
	coord := fabric.NewCoordinator(fabric.Config{Poll: 2 * time.Millisecond, ShardSlices: 4})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		pool := experiments.NewSimPool()
		warmCache := experiments.NewWarmCache()
		run := func(ctx context.Context, job fabric.ShardJob) ([]*experiments.ShardDoc, error) {
			return experiments.RunShards(ctx, job.Spec, job.Units,
				experiments.WithSimPool(pool),
				experiments.WithWarmSnapshots(warmCache),
				experiments.WithWorkers(per))
		}
		w := fabric.NewWorker(coord, fmt.Sprintf("bench-%d", i), run)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	submit := func() (*experiments.PopulationRun, float64) {
		t0 := time.Now()
		p, err := coord.Submit(context.Background(), fabric.SubmitReq{Spec: spec})
		if err != nil {
			fatal(err)
		}
		return p, time.Since(t0).Seconds()
	}
	p, _ := submit() // unscored: warms worker caches and the shard cache
	slices := len(p.Slices)
	insts := p.TotalInsts
	best := float64(0)
	for r := 0; r < reps; r++ {
		_, wall := submit()
		if best == 0 || wall < best {
			best = wall
		}
	}
	cancel()
	wg.Wait()
	return &PopResult{
		SlicesPerFamily: spec.SlicesPerFamily,
		InstsPerSlice:   spec.InstsPerSlice,
		Slices:          slices,
		TotalInsts:      insts,
		WallSeconds:     best,
		InstsPerSec:     float64(insts) / best,
		Reps:            reps,
		Workers:         workers,
	}
}

// measurePopulation times full experiments.Run sweeps (min-of-reps wall
// seconds). Smoke mode runs one tiny-spec sweep, still covering suite
// generation, the worker pool, and Reset-based simulator reuse. The
// warmups un-scored passes before the reps populate any WarmCache passed
// in opts, so the scored reps measure the steady state: every pair
// forking from its cached snapshot. InstsPerSec counts measured
// instructions only (stats reset at the warmup boundary), so warm and
// cold entries share a numerator.
func measurePopulation(reps int, smoke bool, warmups int, opts ...experiments.Option) *PopResult {
	spec := benchSpec
	if smoke {
		spec, reps = popSmokeSpec, 1
	}
	sweep := func() *experiments.PopulationRun {
		p, err := experiments.Run(context.Background(), spec, opts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "exybench:", err)
			os.Exit(2)
		}
		return p
	}
	best := float64(0)
	p := sweep() // warm (and count) outside the scored reps
	for i := 1; i < warmups; i++ {
		sweep()
	}
	slices := len(p.Slices)
	insts := p.TotalInsts
	for r := 0; r < reps; r++ {
		p = sweep()
		if best == 0 || p.WallSeconds < best {
			best = p.WallSeconds
		}
	}
	return &PopResult{
		SlicesPerFamily: spec.SlicesPerFamily,
		InstsPerSlice:   spec.InstsPerSlice,
		Slices:          slices,
		TotalInsts:      insts,
		WallSeconds:     best,
		InstsPerSec:     float64(insts) / best,
		Reps:            reps,
	}
}

// tageGen is the predictor-lab throughput row: M6 with the M7-class
// TAGE-SC-L direction predictor and ITTAGE indirect targets swapped in
// through the pluggable-predictor seam. Comparing it to the M6 row
// shows what raw step-loop throughput the heavier predictor costs.
// Baselines that predate the row report it as "new" instead of gating.
func tageGen() core.GenConfig {
	g, ok := core.GenByName("M6")
	if !ok {
		fatal(fmt.Errorf("no M6 generation"))
	}
	spec := branch.TAGESpec(branch.M7TAGEConfig())
	ind := branch.M7ITTAGEConfig()
	spec.Indirect = &ind
	return core.Hypothetical(g, "tage", spec)
}

// calibrate picks an iteration count so one batch takes roughly 200ms —
// long enough to average out timer granularity, short enough that five
// batches per generation stay interactive.
func calibrate(g core.GenConfig, sl *trace.Slice) int {
	const target = 200 * time.Millisecond
	start := time.Now()
	core.RunSlice(g, sl)
	per := time.Since(start)
	if per <= 0 {
		per = time.Millisecond
	}
	iters := int(target / per)
	if iters < 1 {
		iters = 1
	}
	if iters > 500 {
		iters = 500
	}
	return iters
}

func load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func printTable(rep *Report) {
	fmt.Printf("slice %s, %d insts/op, %s, %d cpus\n", rep.Slice, rep.Insts, rep.GoVersion, rep.NumCPU)
	fmt.Printf("%-4s  %12s  %14s  %12s  %10s\n", "gen", "ms/op", "insts/s", "B/op", "allocs/op")
	for _, r := range rep.Results {
		fmt.Printf("%-4s  %12.2f  %14.0f  %12.0f  %10.1f\n",
			r.Gen, r.NsPerOp/1e6, r.InstsPerSec, r.BytesPerOp, r.AllocsPerOp)
	}
	if p := rep.Population; p != nil {
		fmt.Printf("population (warm): %d slices x %d insts x 6 gens, %.2fs wall, %.0f insts/s (best of %d)\n",
			p.Slices, p.InstsPerSlice, p.WallSeconds, p.InstsPerSec, p.Reps)
	}
	if p := rep.PopulationCold; p != nil {
		fmt.Printf("population (cold): %d slices x %d insts x 6 gens, %.2fs wall, %.0f insts/s (best of %d)\n",
			p.Slices, p.InstsPerSlice, p.WallSeconds, p.InstsPerSec, p.Reps)
	}
	if p := rep.PopulationFabric; p != nil {
		fmt.Printf("population (fabric): %d slices x %d insts x 6 gens, %d workers, %.4fs wall, %.0f insts/s (best of %d)\n",
			p.Slices, p.InstsPerSlice, p.Workers, p.WallSeconds, p.InstsPerSec, p.Reps)
		if w := rep.Population; w != nil && w.InstsPerSec > 0 && p.InstsPerSec > 0 {
			fmt.Printf("  fabric steady-state vs single-process warm: %.2fx\n", p.InstsPerSec/w.InstsPerSec)
		}
	}
	if p := rep.TracePopulation; p != nil {
		fmt.Printf("trace pipeline: ingest + weighted sweep, %d slices (interval %d) x 6 gens, %.2fs wall, %.0f insts/s (best of %d)\n",
			p.Slices, p.InstsPerSlice, p.WallSeconds, p.InstsPerSec, p.Reps)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "exybench:", err)
	os.Exit(1)
}
