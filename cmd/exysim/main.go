// Command exysim regenerates the paper's tables and figures from the
// simulator, runs single slices with detailed statistics, and executes
// the ablation studies.
//
// Usage:
//
//	exysim tables --id=1|2|3|4        # Table I..IV
//	exysim fig1                       # MPKI vs GHIST length sweep
//	exysim fig9 [--points=N]          # MPKI population curves per generation
//	exysim fig16 [--points=N]         # load-latency population curves
//	exysim fig17 [--points=N]         # IPC population curves
//	exysim summary                    # headline numbers vs the paper
//	exysim power                      # front-end energy proxy per generation
//	exysim branchstats                # §IV-A dual-slot statistics
//	exysim ablate [--feature=name]    # design-choice ablations
//	exysim run --gen=M4 --slice=web/3 # one slice, full detail
//
// The --spec flag (tiny|quick|standard) sizes the synthetic population.
// Population commands also accept --m7='{"kind":"tage-sc-l"}' to sweep a
// hypothetical M7 generation (derived from --m7-base, default M6)
// beside the shipped cores.
//
// Global flags (valid in any position, before or after the subcommand):
//
//	--pprof=ADDR        serve net/http/pprof on ADDR (e.g. localhost:6060)
//	--cpuprofile=FILE   write a CPU profile of the whole invocation
//	--memprofile=FILE   write a heap profile at exit
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"exysim/internal/branch"
	"exysim/internal/cluster"
	"exysim/internal/core"
	"exysim/internal/experiments"
	"exysim/internal/obs"
	"exysim/internal/trace"
	"exysim/internal/workload"
)

func specByName(name string) workload.SuiteSpec {
	switch name {
	case "tiny":
		return workload.TinySpec
	case "quick":
		return workload.QuickSpec
	case "standard", "":
		return workload.StandardSpec
	default:
		fmt.Fprintf(os.Stderr, "unknown spec %q (tiny|quick|standard)\n", name)
		os.Exit(2)
		panic("unreachable")
	}
}

// profiling holds the simulator's self-profiling options, extracted
// from anywhere on the command line so `exysim run --cpuprofile=f` and
// `exysim --cpuprofile=f run` both work.
type profiling struct {
	pprofAddr  string
	cpuProfile string
	memProfile string
}

// extractGlobalFlags strips --pprof/--cpuprofile/--memprofile (with
// either --flag=value or --flag value spelling) from args and returns
// the remainder plus the collected options.
func extractGlobalFlags(args []string) ([]string, profiling) {
	var p profiling
	var rest []string
	set := func(name, val string) bool {
		switch name {
		case "pprof":
			p.pprofAddr = val
		case "cpuprofile":
			p.cpuProfile = val
		case "memprofile":
			p.memProfile = val
		default:
			return false
		}
		return true
	}
	for i := 0; i < len(args); i++ {
		a := args[i]
		name := strings.TrimLeft(a, "-")
		if eq := strings.IndexByte(name, '='); eq >= 0 && strings.HasPrefix(a, "-") {
			if set(name[:eq], name[eq+1:]) {
				continue
			}
		} else if strings.HasPrefix(a, "-") && i+1 < len(args) &&
			(name == "pprof" || name == "cpuprofile" || name == "memprofile") {
			set(name, args[i+1])
			i++
			continue
		}
		rest = append(rest, a)
	}
	return rest, p
}

// start brings up the requested profilers and returns a stop function
// for the ones that must flush at exit.
func (p profiling) start() func() {
	if p.pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(p.pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof serving on http://%s/debug/pprof/\n", p.pprofAddr)
	}
	var cpu *os.File
	if p.cpuProfile != "" {
		f, err := os.Create(p.cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cpu = f
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
		if p.memProfile != "" {
			f, err := os.Create(p.memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			f.Close()
		}
	}
}

func main() {
	args, prof := extractGlobalFlags(os.Args[1:])
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	stopProf := prof.start()
	defer stopProf()
	cmd, args := args[0], args[1:]
	switch cmd {
	case "tables":
		cmdTables(args)
	case "fig1":
		cmdFig1(args)
	case "fig9":
		cmdCurve(args, "fig9", "Fig. 9 — MPKI across workload slices (sorted per generation, clipped at 20)",
			"mpki", 20)
	case "fig16":
		cmdCurve(args, "fig16", "Fig. 16 — average load latency across workload slices (sorted per generation)",
			"load_lat", 0)
	case "fig17":
		cmdCurve(args, "fig17", "Fig. 17 — IPC across workload slices (sorted per generation)",
			"ipc", 0)
	case "summary":
		cmdSummary(args)
	case "report":
		cmdReport(args)
	case "power":
		cmdPower(args)
	case "security":
		cmdSecurity(args)
	case "sharing":
		cmdSharing(args)
	case "timeline":
		cmdTimeline(args)
	case "cluster":
		cmdCluster(args)
	case "branchstats":
		cmdBranchStats(args)
	case "ablate":
		cmdAblate(args)
	case "run":
		cmdRun(args)
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: exysim <tables|fig1|fig9|fig16|fig17|summary|report|power|security|sharing|timeline|cluster|branchstats|ablate|run> [flags]")
}

func cmdTables(args []string) {
	fs := flag.NewFlagSet("tables", flag.ExitOnError)
	id := fs.Int("id", 0, "table number (1-4); 0 prints all")
	pf := runPopulationFlags(fs)
	format := fs.String("format", "text", "output format (text|json)")
	_ = fs.Parse(args)
	if *format == "json" {
		out := struct {
			Generations []string               `json:"generations"`
			TableII     []branch.StorageBudget `json:"table2_storage_kb"`
			TableIV     map[string]float64     `json:"table4_load_lat_means,omitempty"`
		}{}
		for _, g := range core.Generations() {
			out.Generations = append(out.Generations, g.Name)
		}
		out.TableII = experiments.TableII()
		if *id == 4 || *id == 0 {
			p := runPopulation("tables", pf, nil)
			out.TableIV = map[string]float64{}
			for g, v := range p.Means(experiments.MetricLoadLat) {
				out.TableIV[p.Gens[g].Name] = v
			}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}
	if *id == 1 || *id == 0 {
		fmt.Println(experiments.RenderTableI())
	}
	if *id == 2 || *id == 0 {
		fmt.Println(experiments.RenderTableII())
	}
	if *id == 3 || *id == 0 {
		fmt.Println(experiments.RenderTableIII())
	}
	if *id == 4 || *id == 0 {
		p := runPopulation("tables", pf, nil)
		fmt.Println(experiments.RenderTableIV(p))
	}
}

func cmdFig1(args []string) {
	fs := flag.NewFlagSet("fig1", flag.ExitOnError)
	slices := fs.Int("slices", 8, "CBP-like trace count")
	insts := fs.Int("insts", 60_000, "instructions per trace")
	_ = fs.Parse(args)
	pts := experiments.Fig1(*slices, *insts, nil, 0xE59)
	fmt.Println(experiments.RenderFig1(pts))
}

// mustPopRun is the no-flags spelling of experiments.Run for commands
// without the shared population flag surface.
func mustPopRun(spec workload.SuiteSpec) *experiments.PopulationRun {
	p, err := experiments.Run(context.Background(), spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "exysim:", err)
		os.Exit(2)
	}
	return p
}

// popFlags is the shared flag surface of the population commands
// (fig9/fig16/fig17/summary/tables --id=4): sizing, progress reporting,
// manifest export, and the sweep-robustness knobs.
type popFlags struct {
	spec          *string
	progress      *bool
	manifestOut   *string
	checkpoint    *string
	resume        *bool
	sliceDeadline *time.Duration
	retries       *int
	spanOut       *string
	m7            *string
	m7Base        *string
}

func runPopulationFlags(fs *flag.FlagSet) *popFlags {
	return &popFlags{
		spec:          fs.String("spec", "quick", "population size (tiny|quick|standard)"),
		progress:      fs.Bool("progress", false, "report slices done / sim-MIPS / ETA on stderr"),
		manifestOut:   fs.String("manifest-out", "", "write a run manifest JSON to FILE"),
		checkpoint:    fs.String("checkpoint", "", "append completed (gen,slice) results to FILE as JSONL"),
		resume:        fs.Bool("resume", false, "skip slices already recorded in --checkpoint"),
		sliceDeadline: fs.Duration("slice-deadline", 0, "per-slice wall-clock budget (0 = none)"),
		retries:       fs.Int("retries", 0, "retry a failed slice up to N times on a fresh simulator"),
		spanOut:       fs.String("span-out", "", "write a wall-clock span trace (Perfetto JSON) of the sweep to FILE"),
		m7: fs.String("m7", "",
			`sweep a hypothetical M7 beside M1..M6: a predictor spec as JSON (e.g. '{"kind":"tage-sc-l"}')`),
		m7Base: fs.String("m7-base", "M6", "generation the hypothetical M7 derives from"),
	}
}

// runPopulation executes the sweep honoring the shared flags and writes
// the manifest (if requested), recording any companion artifacts. A
// sweep with quarantined slices still succeeds — partial results are
// the point of the robustness layer — but the failure report goes to
// stderr so the quarantine is never silent.
func runPopulation(command string, pf *popFlags, artifacts map[string]string) *experiments.PopulationRun {
	sp := specByName(*pf.spec)
	opts := []experiments.Option{
		experiments.WithSliceDeadline(*pf.sliceDeadline),
		experiments.WithRetries(*pf.retries),
	}
	if *pf.m7 != "" {
		var spec branch.PredictorSpec
		if err := json.Unmarshal([]byte(*pf.m7), &spec); err != nil {
			fmt.Fprintf(os.Stderr, "exysim: bad --m7 spec: %v\n", err)
			os.Exit(2)
		}
		gens, err := experiments.HypotheticalGens(*pf.m7Base, "M7", spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "exysim:", err)
			os.Exit(2)
		}
		opts = append(opts, experiments.WithGenerations(gens))
	}
	var bar *obs.Progress
	if *pf.progress {
		bar = obs.NewProgress(os.Stderr, command) // counts --resume's cells too
		opts = append(opts, experiments.WithProgressFunc(bar.Report))
	}
	if *pf.checkpoint != "" {
		opts = append(opts, experiments.WithCheckpoint(*pf.checkpoint))
	}
	if *pf.resume {
		opts = append(opts, experiments.WithResume())
	}
	// Telemetry is always on for CLI sweeps: one clock read per slice,
	// bit-identical results, and the slow-slice report is the first thing
	// to look at when a sweep dragged.
	tel := experiments.NewSweepTelemetry()
	opts = append(opts, experiments.WithTelemetry(tel))
	var spans *obs.SpanTracer
	if *pf.spanOut != "" {
		spans = obs.NewSpanTracer(1 << 16)
		opts = append(opts, experiments.WithSpanTracer(spans))
	}
	// Ctrl-C / SIGTERM cancels the sweep mid-slice; with --checkpoint the
	// completed pairs survive for a later --resume.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	p, err := experiments.Run(ctx, sp, opts...)
	if bar != nil {
		bar.Finish()
	}
	if err != nil {
		if errors.Is(err, context.Canceled) && *pf.checkpoint != "" {
			fmt.Fprintf(os.Stderr, "exysim: interrupted; completed slices checkpointed to %s (rerun with --resume)\n", *pf.checkpoint)
		} else {
			fmt.Fprintln(os.Stderr, "exysim:", err)
		}
		os.Exit(2)
	}
	if rep := p.FailureReport(); rep != "" {
		fmt.Fprint(os.Stderr, rep)
	}
	if rep := tel.Report(); rep != "" {
		fmt.Fprint(os.Stderr, rep)
	}
	if spans != nil {
		if err := spans.WriteJSONFile(*pf.spanOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if *pf.manifestOut != "" {
		m := p.Manifest(command)
		if *pf.checkpoint != "" {
			m.AddArtifact("checkpoint", *pf.checkpoint)
		}
		if spans != nil {
			m.AddArtifact("spans", *pf.spanOut)
			m.SpanDropped = spans.Dropped()
		}
		for k, v := range artifacts {
			m.AddArtifact(k, v)
		}
		if err := m.Write(*pf.manifestOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	return p
}

func cmdCurve(args []string, name, title, metric string, clip float64) {
	fs := flag.NewFlagSet("fig", flag.ExitOnError)
	pf := runPopulationFlags(fs)
	points := fs.Int("points", 12, "sampled positions along the sorted population")
	summary := fs.Bool("summary", false, "print headline numbers too")
	csv := fs.Bool("csv", false, "emit plot-ready CSV (alias for --format=csv)")
	format := fs.String("format", "text", "output format (text|json|csv)")
	metricsOut := fs.String("metrics-out", "", "write the per-generation curve data as JSON to FILE")
	_ = fs.Parse(args)
	if *csv {
		*format = "csv"
	}
	artifacts := map[string]string{}
	if *metricsOut != "" {
		artifacts["metrics"] = *metricsOut
	}
	p := runPopulation(name, pf, artifacts)
	doc, err := p.CurveDoc(name, metric, *points)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *metricsOut != "" {
		if err := writeCurveJSONFile(*metricsOut, doc); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	switch *format {
	case "csv":
		fmt.Print("position")
		for _, gn := range doc.Generations {
			fmt.Printf(",%s", gn)
		}
		fmt.Println()
		for i := 0; i < *points; i++ {
			fmt.Printf("%d", i)
			for _, gn := range doc.Generations {
				fmt.Printf(",%g", doc.Curves[gn][i])
			}
			fmt.Println()
		}
	case "json":
		if err := writeCurveJSON(os.Stdout, doc); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	case "text", "":
		curves := make([][]float64, len(doc.Generations))
		for g, gn := range doc.Generations {
			curves[g] = doc.Curves[gn]
		}
		fmt.Println(experiments.RenderCurves(title, p.Gens, curves, clip))
		if *summary {
			fmt.Println(experiments.Summary(p))
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown format %q (text|json|csv)\n", *format)
		os.Exit(2)
	}
}

func writeCurveJSON(w *os.File, doc experiments.CurveDoc) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func writeCurveJSONFile(path string, doc experiments.CurveDoc) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeCurveJSON(f, doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cmdSummary(args []string) {
	fs := flag.NewFlagSet("summary", flag.ExitOnError)
	pf := runPopulationFlags(fs)
	format := fs.String("format", "text", "output format (text|json)")
	_ = fs.Parse(args)
	p := runPopulation("summary", pf, nil)
	if *format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(p.SummaryDoc()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}
	fmt.Println(experiments.Summary(p))
}

// cmdReport runs the population once and prints every table and figure.
func cmdReport(args []string) {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	spec := fs.String("spec", "standard", "population size")
	points := fs.Int("points", 12, "curve sample points")
	_ = fs.Parse(args)
	p := mustPopRun(specByName(*spec))
	fmt.Println(experiments.RenderTableI())
	fmt.Println(experiments.RenderTableII())
	fmt.Println(experiments.RenderTableIII())
	fmt.Println(experiments.RenderTableIV(p))
	fmt.Println(experiments.RenderFig1(experiments.Fig1(8, 100_000, nil, 0xE59)))
	fmt.Println(experiments.RenderCurves("Fig. 9 — MPKI across workload slices (sorted per generation, clipped at 20)",
		p.Gens, p.Curves(experiments.MetricMPKI, *points), 20))
	fmt.Println(experiments.RenderCurves("Fig. 16 — average load latency across workload slices (sorted per generation)",
		p.Gens, p.Curves(experiments.MetricLoadLat, *points), 0))
	fmt.Println(experiments.RenderCurves("Fig. 17 — IPC across workload slices (sorted per generation)",
		p.Gens, p.Curves(experiments.MetricIPC, *points), 0))
	fmt.Println(experiments.Summary(p))
}

// cmdPower prints the front-end energy proxy per generation.
func cmdPower(args []string) {
	fs := flag.NewFlagSet("power", flag.ExitOnError)
	spec := fs.String("spec", "quick", "population size")
	_ = fs.Parse(args)
	p := mustPopRun(specByName(*spec))
	fmt.Println(experiments.RenderPower(p))
}

// cmdSecurity prints the §V mitigation-cost study.
func cmdSecurity(args []string) {
	fs := flag.NewFlagSet("security", flag.ExitOnError)
	spec := fs.String("spec", "quick", "population size")
	rekey := fs.Int("rekey", 20_000, "re-key period in instructions")
	_ = fs.Parse(args)
	fmt.Println(experiments.RenderSecurity(experiments.SecurityCost(specByName(*spec), *rekey)))
}

// cmdSharing prints the §III shared-vs-private L2 study.
func cmdSharing(args []string) {
	fs := flag.NewFlagSet("sharing", flag.ExitOnError)
	spec := fs.String("spec", "quick", "population size")
	_ = fs.Parse(args)
	fmt.Println(experiments.RenderSharing(experiments.SharingStudy(specByName(*spec), nil)))
}

// cmdTimeline prints per-interval IPC/MPKI for one slice — the phase
// view that §II's SimPoint methodology clusters.
func cmdTimeline(args []string) {
	fs := flag.NewFlagSet("timeline", flag.ExitOnError)
	gen := fs.String("gen", "M6", "generation")
	sliceName := fs.String("slice", "specint/0", "workload slice")
	spec := fs.String("spec", "quick", "suite sizing")
	interval := fs.Int("interval", 10_000, "interval length in instructions")
	_ = fs.Parse(args)
	g, ok := core.GenByName(*gen)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown generation %q\n", *gen)
		os.Exit(2)
	}
	sl, err := workload.ByName(*sliceName, specByName(*spec))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sim := core.NewSimulator(g)
	fmt.Printf("%s on %s, %d-instruction intervals\n", sl.Name, *gen, *interval)
	fmt.Println("interval    IPC   MPKI")
	for _, ir := range sim.RunTimeline(sl, *interval) {
		fmt.Printf("%8d %6.2f %6.2f\n", ir.Interval, ir.IPC, ir.MPKI)
	}
}

// cmdCluster runs N copies of a workload family on an N-core cluster
// sharing the memory path (§I) and compares against solo runs.
func cmdCluster(args []string) {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	gen := fs.String("gen", "M4", "generation")
	cores := fs.Int("cores", 4, "cluster size")
	family := fs.String("family", "micro.stream", "workload family")
	insts := fs.Int("insts", 40_000, "instructions per slice")
	spec := fs.String("spec", "quick", "suite sizing (seed source)")
	_ = fs.Parse(args)
	g, ok := core.GenByName(*gen)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown generation %q\n", *gen)
		os.Exit(2)
	}
	sp := specByName(*spec)
	var sls []*trace.Slice
	for i := 0; i < *cores; i++ {
		sl, err := workload.ByName(fmt.Sprintf("%s/%d", *family, i), workload.SuiteSpec{
			SlicesPerFamily: sp.SlicesPerFamily, InstsPerSlice: *insts, WarmupFrac: 0.25, Seed: sp.Seed,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		sls = append(sls, sl)
	}
	fmt.Printf("%d-core %s cluster, one %s slice per core (%d insts)\n", *cores, *gen, *family, *insts)
	fmt.Println("core   solo IPC   clustered IPC   slowdown")
	solos := make([]float64, len(sls))
	for i := range sls {
		solos[i] = cluster.New(g, 1).Run(sls[i : i+1])[0].IPC
	}
	results := cluster.New(g, *cores).Run(sls)
	for i, r := range results {
		fmt.Printf("%4d %10.3f %15.3f %9.1f%%\n", i, solos[i], r.IPC, (1-r.IPC/solos[i])*100)
	}
}

func cmdBranchStats(args []string) {
	fs := flag.NewFlagSet("branchstats", flag.ExitOnError)
	spec := fs.String("spec", "quick", "population size")
	_ = fs.Parse(args)
	lead, second, nt := experiments.BranchSlotStats(specByName(*spec))
	fmt.Printf("dual-prediction slots (§IV-A; paper: 60%% / 24%% / 16%%)\n")
	fmt.Printf("lead TAKEN      %5.1f%%\n", lead*100)
	fmt.Printf("second TAKEN    %5.1f%%\n", second*100)
	fmt.Printf("both NOT-TAKEN  %5.1f%%\n", nt*100)
}

func cmdAblate(args []string) {
	fs := flag.NewFlagSet("ablate", flag.ExitOnError)
	feature := fs.String("feature", "", "comma-separated study names (empty = all)")
	spec := fs.String("spec", "quick", "population size")
	_ = fs.Parse(args)
	var names []string
	if *feature != "" {
		names = strings.Split(*feature, ",")
	}
	fmt.Println(experiments.RenderAblations(names, specByName(*spec)))
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	gen := fs.String("gen", "M6", "generation (M1..M6)")
	sliceName := fs.String("slice", "specint/0", "workload slice, family/index")
	traceFile := fs.String("trace", "", "run a .exyt trace file instead of a synthetic slice")
	spec := fs.String("spec", "quick", "population sizing for the slice")
	metricsOut := fs.String("metrics-out", "", "write the full metrics snapshot as JSON to FILE")
	traceOut := fs.String("trace-out", "", "write a Chrome trace-event / Perfetto JSON to FILE (enables tracing)")
	traceCap := fs.Int("trace-cap", 1<<16, "tracer ring capacity in events (oldest overwritten)")
	traceSample := fs.Int("trace-sample", 1, "record every Nth traced event (deterministic sampling)")
	manifestOut := fs.String("manifest-out", "", "write a run manifest JSON to FILE")
	_ = fs.Parse(args)
	g, ok := core.GenByName(*gen)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown generation %q\n", *gen)
		os.Exit(2)
	}
	var sl *trace.Slice
	var err error
	if *traceFile != "" {
		var f *os.File
		if f, err = os.Open(*traceFile); err == nil {
			sl, err = trace.Read(f)
			f.Close()
		}
	} else {
		sl, err = workload.ByName(*sliceName, specByName(*spec))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var man *obs.Manifest
	if *manifestOut != "" {
		man = obs.NewManifest("run")
	}
	sim := core.NewSimulator(g)
	var tr *obs.Tracer
	if *traceOut != "" {
		tr = obs.NewTracer(*traceCap)
		tr.SetSampling(uint64(*traceSample))
		sim.SetTracer(tr)
	}
	r := sim.Run(sl)
	if *metricsOut != "" {
		if err := sim.MetricsSnapshot().WriteJSONFile(*metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if tr != nil {
		if err := tr.WriteJSONFile(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if man != nil {
		man.TraceDropped = tr.Dropped()
		man.Generations = []obs.GenInfo{{Name: g.Name, ConfigDigest: obs.ConfigDigest(g)}}
		man.Workload = obs.WorkloadInfo{
			InstsPerSlice: len(sl.Insts),
			Seed:          specByName(*spec).Seed,
			Slices:        []string{sl.Name},
		}
		man.SimInsts = r.Insts
		man.SimCycles = r.Cycles
		man.AddArtifact("metrics", *metricsOut)
		man.AddArtifact("trace", *traceOut)
		if err := man.Write(*manifestOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	fmt.Printf("slice %s on %s\n", r.Slice, r.Gen)
	fmt.Printf("  insts %d  cycles %d  IPC %.3f\n", r.Insts, r.Cycles, r.IPC)
	fmt.Printf("  branch: MPKI %.2f (dir %d, target %d, indirect %d, return %d, BTBmiss %d), bubbles %d\n",
		r.MPKI, r.Front.MispredDir, r.Front.MispredTarget, r.Front.MispredIndirect,
		r.Front.MispredReturn, r.Front.MispredBTBMiss, r.Front.Bubbles)
	fmt.Printf("  sources: ubtb-locked %d, zat %d, 1at %d, mrb %d, l2btb-fills %d\n",
		r.Front.UBTBLockedPreds, r.Front.ZATHits, r.Front.OneATHits, r.Front.MRBCovered, r.Front.L2Fills)
	fmt.Printf("  memory: avg load lat %.2f cycles over %d loads; L1 %d, L2 %d, L3 %d, DRAM %d\n",
		r.AvgLoadLat, r.Mem.Loads, r.Mem.L1DHits, r.Mem.L2Hits, r.Mem.L3Hits, r.Mem.MemHits)
	fmt.Printf("  prefetch: in-flight hits %d, MAB stall cycles %d, castouts e/o/d %d/%d/%d, spec-read launches %d\n",
		r.Mem.InFlightHits, r.Mem.MABStallCycles,
		r.Mem.CastoutsElevated, r.Mem.CastoutsOrdinary, r.Mem.CastoutsDropped, r.Mem.SpecReadSavings)
	if r.Pipe.UOCSupplied > 0 {
		fmt.Printf("  uoc: %d μops supplied with icache/decode gated\n", r.Pipe.UOCSupplied)
	}
}
