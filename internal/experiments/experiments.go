// Package experiments regenerates every table and figure of the paper's
// evaluation: Table I (feature comparison), Fig. 1 (MPKI vs GHIST
// length), Table II (branch predictor storage), Fig. 9 (MPKI population
// curves), Table III (cache hierarchy sizes), Fig. 16 (load latency
// population curves), Table IV (generational average load latencies),
// Fig. 17 (IPC population curves), the §IV-A dual-slot statistics, and
// the ablation studies DESIGN.md calls out.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"exysim/internal/branch"
	"exysim/internal/core"
	"exysim/internal/isa"
	"exysim/internal/obs"
	"exysim/internal/pipeline"
	"exysim/internal/robust"
	"exysim/internal/stats"
	"exysim/internal/trace"
	"exysim/internal/workload"
)

// PopulationRun holds per-slice results for every generation over one
// synthetic population: the shared substrate of Figs. 9, 16 and 17.
type PopulationRun struct {
	Spec    workload.SuiteSpec
	Gens    []core.GenConfig
	Slices  []*trace.Slice
	Results [][]core.Result // [gen][slice]

	// PopID is the content address of the ingested trace population that
	// replaced the synthetic suite (see WithPopulation); empty for
	// synthetic runs. It is folded into checkpoint and shard digests so
	// artifacts from different populations can never be mixed.
	PopID string

	// Failed marks quarantined (gen, slice) pairs: their Results entry
	// is zero and every aggregate (means, curves, totals) skips them.
	// Pairs a canceled Run never completed are also zero but NOT marked
	// failed — aggregates skip them by their zero instruction count.
	// Failures carries the structured quarantine records; Retries counts
	// attempts beyond the first across the sweep, and Resumed counts
	// results restored from a checkpoint instead of simulated.
	Failed   [][]bool
	Failures []robust.SliceFailure
	Retries  int
	Resumed  int

	// TotalInsts and TotalCycles aggregate the simulated work across
	// every completed (gen, slice) pair; with WallSeconds they give the
	// simulator's own throughput for the run manifest.
	TotalInsts  uint64
	TotalCycles uint64
	WallSeconds float64

	// Telemetry is the wall-clock telemetry collector the run fed (see
	// WithTelemetry); nil when telemetry was disabled. It is purely
	// observational — Results are bit-identical either way.
	Telemetry *SweepTelemetry
}

// ok reports whether the (gen, slice) pair completed (not quarantined,
// not left incomplete by a canceled run — a completed slice always
// simulated at least one instruction).
func (p *PopulationRun) ok(g, s int) bool {
	if p.Failed != nil && p.Failed[g][s] {
		return false
	}
	return p.Results[g][s].Insts > 0
}

// populationDigest fingerprints the (spec, generation set, trace
// population) triple a checkpoint belongs to. popID is empty for
// synthetic populations; when set, a checkpoint written for one
// ingested trace can never resume against another (or against the
// synthetic suite).
func populationDigest(spec workload.SuiteSpec, gens []core.GenConfig, popID string) string {
	parts := make([]string, 0, len(gens)+2)
	parts = append(parts, obs.ConfigDigest(spec))
	for _, g := range gens {
		parts = append(parts, obs.ConfigDigest(g))
	}
	if popID != "" {
		parts = append(parts, "trace:"+popID)
	}
	return obs.ConfigDigest(parts)
}

// FailureReport renders the quarantined slices of a run, one line per
// failure, for the CLI's stderr report. Empty string for a clean run.
func (p *PopulationRun) FailureReport() string {
	if len(p.Failures) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d of %d (gen, slice) pairs quarantined:\n", len(p.Failures), len(p.Gens)*len(p.Slices))
	for i := range p.Failures {
		f := &p.Failures[i]
		fmt.Fprintf(&b, "  %s/%s: %s after %d attempt(s): %s\n", f.Gen, f.Slice, f.Kind, f.Attempts, f.Err)
	}
	b.WriteString("aggregates (means, curves, totals) exclude quarantined pairs\n")
	return b.String()
}

// Manifest builds a run manifest describing this population run: the
// command that produced it, every generation with its config digest, the
// workload spec, and the simulator's own throughput.
func (p *PopulationRun) Manifest(command string) *obs.Manifest {
	m := obs.NewManifest(command)
	m.StartTime = m.StartTime.Add(-time.Duration(p.WallSeconds * float64(time.Second)))
	for _, g := range p.Gens {
		m.Generations = append(m.Generations, obs.GenInfo{Name: g.Name, ConfigDigest: obs.ConfigDigest(g)})
	}
	m.Workload = obs.WorkloadInfo{
		SlicesPerFamily: p.Spec.SlicesPerFamily,
		InstsPerSlice:   p.Spec.InstsPerSlice,
		WarmupFrac:      p.Spec.WarmupFrac,
		Seed:            p.Spec.Seed,
	}
	for _, sl := range p.Slices {
		m.Workload.Slices = append(m.Workload.Slices, sl.Name)
	}
	m.SimInsts = p.TotalInsts
	m.SimCycles = p.TotalCycles
	if len(p.Failures) > 0 || p.Retries > 0 || p.Resumed > 0 {
		info := &obs.RobustnessInfo{
			Failures:      len(p.Failures),
			Retries:       p.Retries,
			ResumedSlices: p.Resumed,
		}
		for i := range p.Failures {
			switch p.Failures[i].Kind {
			case robust.KindPanic:
				info.Panics++
			case robust.KindTimeout:
				info.Timeouts++
			case robust.KindInvariant:
				info.InvariantViolations++
			}
		}
		m.Robustness = info
	}
	return m
}

// Metric extracts one number from a result.
type Metric func(core.Result) float64

// Standard metrics.
var (
	MetricMPKI    = func(r core.Result) float64 { return r.MPKI }
	MetricIPC     = func(r core.Result) float64 { return r.IPC }
	MetricLoadLat = func(r core.Result) float64 { return r.AvgLoadLat }
	MetricEPKI    = func(r core.Result) float64 { return r.FetchEPKI }
)

// Curves returns, per generation, the sorted per-slice series the
// paper's population figures plot, resampled to points. Quarantined
// slices are excluded rather than plotted as zeros.
func (p *PopulationRun) Curves(m Metric, points int) [][]float64 {
	out := make([][]float64, len(p.Gens))
	for g := range p.Gens {
		var pop stats.Population
		for s := range p.Slices {
			if p.ok(g, s) {
				pop.Add(m(p.Results[g][s]))
			}
		}
		out[g] = pop.Curve(points)
	}
	return out
}

// Means returns the per-generation arithmetic mean of the metric across
// completed slices (the paper's summary statistic); quarantined slices
// are excluded from both numerator and denominator.
func (p *PopulationRun) Means(m Metric) []float64 {
	return p.filterMeans(m, func(*trace.Slice) bool { return true })
}

// SuiteMeans returns mean metric per generation restricted to one suite
// label (e.g. "spec" for the SPECint MPKI reduction headline).
func (p *PopulationRun) SuiteMeans(m Metric, suite string) []float64 {
	return p.filterMeans(m, func(sl *trace.Slice) bool { return sl.Suite == suite })
}

// FamilyMeans restricts the mean to slices of one family (name prefix,
// e.g. "specint").
func (p *PopulationRun) FamilyMeans(m Metric, family string) []float64 {
	return p.filterMeans(m, func(sl *trace.Slice) bool { return strings.HasPrefix(sl.Name, family+"/") })
}

// Weighted reports whether any slice carries a SimPoint weight — i.e.
// the run's population came from SimPoint slicing of a real trace, so
// weighted aggregates are the representative statistic.
func (p *PopulationRun) Weighted() bool {
	for _, sl := range p.Slices {
		if sl.Weight > 0 {
			return true
		}
	}
	return false
}

// WeightedMeans returns the per-generation SimPoint-weighted mean of the
// metric: Σ wᵢ·xᵢ / Σ wᵢ over completed slices, where wᵢ is the slice's
// cluster weight (slices without one — Weight <= 0 — count as weight 1,
// so the estimate degrades gracefully to the arithmetic mean on
// synthetic populations). This is the SimPoint estimator of the metric
// over the full original trace.
func (p *PopulationRun) WeightedMeans(m Metric) []float64 {
	out := make([]float64, len(p.Gens))
	for g := range p.Gens {
		sum, wsum := 0.0, 0.0
		for s := range p.Slices {
			if !p.ok(g, s) {
				continue
			}
			w := p.Slices[s].Weight
			if w <= 0 {
				w = 1
			}
			sum += w * m(p.Results[g][s])
			wsum += w
		}
		if wsum > 0 {
			out[g] = sum / wsum
		}
	}
	return out
}

func (p *PopulationRun) filterMeans(m Metric, keep func(*trace.Slice) bool) []float64 {
	out := make([]float64, len(p.Gens))
	for g := range p.Gens {
		sum, n := 0.0, 0
		for s := range p.Slices {
			if keep(p.Slices[s]) && p.ok(g, s) {
				sum += m(p.Results[g][s])
				n++
			}
		}
		if n > 0 {
			out[g] = sum / float64(n)
		}
	}
	return out
}

// RenderCurves prints an ASCII rendition of a population figure: one
// column per sampled slice position, one row per generation.
func RenderCurves(title string, gens []core.GenConfig, curves [][]float64, clip float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	points := 0
	if len(curves) > 0 {
		points = len(curves[0])
	}
	fmt.Fprintf(&b, "%-4s", "gen")
	for i := 0; i < points; i++ {
		fmt.Fprintf(&b, " %6s", fmt.Sprintf("p%02d", i*100/max(points-1, 1)))
	}
	b.WriteByte('\n')
	for g := range curves {
		fmt.Fprintf(&b, "%-4s", gens[g].Name)
		for _, v := range curves[g] {
			if clip > 0 && v > clip {
				v = clip
			}
			fmt.Fprintf(&b, " %6.2f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig1Point is one sample of the GHIST-length sweep.
type Fig1Point struct {
	GHISTBits int
	MPKI      float64
}

// Fig1 sweeps the 8-table/1K-weight SHP's GHIST length over CBP-like
// traces (Fig. 1: diminishing returns of longer global history).
func Fig1(slices, instsPerSlice int, lengths []int, seed uint64) []Fig1Point {
	if lengths == nil {
		lengths = []int{1, 8, 16, 32, 48, 64, 96, 128, 165, 200, 240, 300}
	}
	suite := workload.CBPSuite(slices, instsPerSlice, 256, seed)
	out := make([]Fig1Point, len(lengths))
	// A bounded worker pool (one goroutine per length fanned out over
	// GOMAXPROCS workers) instead of one goroutine per length: sweeps with
	// many lengths would otherwise oversubscribe the scheduler, and each
	// worker can recycle one SHP across the suite's sources. The fold
	// geometry depends on GHISTLen, so the predictor is rebuilt per
	// length, but within a length Reset() restores cold state without
	// reallocating the weight tables.
	idxs := make(chan int)
	var wg sync.WaitGroup
	workers := min(runtime.GOMAXPROCS(0), len(lengths))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for li := range idxs {
				gl := lengths[li]
				cfg := branch.M1SHPConfig()
				cfg.GHISTLen = gl
				if cfg.PHISTLen > gl {
					cfg.PHISTLen = gl
				}
				p := branch.NewSHP(cfg)
				var mis, insts uint64
				for si, src := range suite {
					if si > 0 {
						p.Reset()
					}
					for i := range src.Insts {
						in := &src.Insts[i]
						measured := i >= src.Warmup
						if in.Branch == isa.BranchCond {
							pred := p.Predict(in.PC)
							if measured && pred.Taken != in.Taken {
								mis++
							}
							p.Train(in.PC, in.Taken)
						}
						if in.Branch.IsBranch() {
							p.OnBranch(in.PC, in.Branch == isa.BranchCond, in.Taken)
						}
						if measured {
							insts++
						}
					}
				}
				out[li] = Fig1Point{GHISTBits: gl, MPKI: float64(mis) / float64(insts) * 1000}
			}
		}()
	}
	for i := range lengths {
		idxs <- i
	}
	close(idxs)
	wg.Wait()
	sort.Slice(out, func(i, j int) bool { return out[i].GHISTBits < out[j].GHISTBits })
	return out
}

// RenderFig1 prints the sweep.
func RenderFig1(pts []Fig1Point) string {
	var b strings.Builder
	b.WriteString("Fig. 1 — avg MPKI of 8-table/1K-weight SHP vs GHIST length (CBP-like traces)\n")
	b.WriteString("GHIST bits   MPKI\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "%9d  %6.3f\n", p.GHISTBits, p.MPKI)
	}
	return b.String()
}

// TableII returns the per-generation branch-predictor storage budgets.
func TableII() []branch.StorageBudget {
	var out []branch.StorageBudget
	for _, cfg := range branch.Generations() {
		out = append(out, branch.Budget(cfg))
	}
	return out
}

// RenderTableII prints Table II with the paper's reference values.
func RenderTableII() string {
	paper := map[string][4]float64{
		"M1": {8.0, 32.5, 58.4, 98.9},
		"M2": {8.0, 32.5, 58.4, 98.9},
		"M3": {16.0, 49.0, 110.8, 175.8},
		"M4": {16.0, 50.5, 221.5, 288.0},
		"M5": {32.0, 53.3, 225.5, 310.8},
		"M6": {32.0, 78.5, 451.0, 561.5},
	}
	var b strings.Builder
	b.WriteString("Table II — branch predictor storage (KB); measured (paper)\n")
	b.WriteString("gen      SHP            L1BTBs         L2BTB          total\n")
	for _, bud := range TableII() {
		p := paper[bud.Gen]
		fmt.Fprintf(&b, "%-5s %6.1f (%5.1f) %6.1f (%5.1f) %6.1f (%5.1f) %6.1f (%5.1f)\n",
			bud.Gen, bud.SHPKB, p[0], bud.L1KB, p[1], bud.L2KB, p[2], bud.TotalKB, p[3])
	}
	return b.String()
}

// RenderTableI prints the Table I feature comparison from the live
// configurations.
func RenderTableI() string {
	gens := core.Generations()
	var b strings.Builder
	b.WriteString("Table I — microarchitectural feature comparison (from live configs)\n")
	row := func(name string, f func(core.GenConfig) string) {
		fmt.Fprintf(&b, "%-22s", name)
		for _, g := range gens {
			fmt.Fprintf(&b, " %14s", f(g))
		}
		b.WriteByte('\n')
	}
	row("Core", func(g core.GenConfig) string { return g.Name })
	row("Process node", func(g core.GenConfig) string { return g.ProcessNode })
	row("Product frequency", func(g core.GenConfig) string { return fmt.Sprintf("%.1fGHz", g.ProductGHz) })
	row("L1I cache", func(g core.GenConfig) string {
		return fmt.Sprintf("%dKB %dw", g.Mem.L1I.SizeKB, g.Mem.L1I.Ways)
	})
	row("L1D cache", func(g core.GenConfig) string {
		return fmt.Sprintf("%dKB %dw", g.Mem.L1D.SizeKB, g.Mem.L1D.Ways)
	})
	row("L2 cache", func(g core.GenConfig) string {
		return fmt.Sprintf("%dKB %dw", g.Mem.L2.SizeKB, g.Mem.L2.Ways)
	})
	row("L2 bandwidth", func(g core.GenConfig) string {
		return fmt.Sprintf("%dB/cycle", g.Mem.L2.BytesPerCycle)
	})
	row("L3 cache", func(g core.GenConfig) string {
		if g.Mem.L3.SizeKB == 0 {
			return "-"
		}
		return fmt.Sprintf("%dKB %dw", g.Mem.L3.SizeKB, g.Mem.L3.Ways)
	})
	row("L1D TLB pages", func(g core.GenConfig) string { return fmt.Sprintf("%d", g.Mem.DTLB.Pages()) })
	row("L1.5 DTLB pages", func(g core.GenConfig) string {
		if g.Mem.D15.Entries == 0 {
			return "-"
		}
		return fmt.Sprintf("%d", g.Mem.D15.Pages())
	})
	row("L2 TLB pages", func(g core.GenConfig) string { return fmt.Sprintf("%d", g.Mem.L2TLB.Pages()) })
	row("Dec/Ren/Ret width", func(g core.GenConfig) string { return fmt.Sprintf("%d", g.Pipe.Width) })
	row("ROB size", func(g core.GenConfig) string { return fmt.Sprintf("%d", g.Pipe.ROB) })
	row("Integer PRF", func(g core.GenConfig) string { return fmt.Sprintf("%d", g.Pipe.IntPRF) })
	row("FP PRF", func(g core.GenConfig) string { return fmt.Sprintf("%d", g.Pipe.FPPRF) })
	row("Integer units", func(g core.GenConfig) string {
		u := g.Pipe.Units
		out := ""
		if n := u[pipeline.UnitS]; n > 0 {
			out += fmt.Sprintf("%dS+", n)
		}
		if n := u[pipeline.UnitC]; n > 0 {
			out += fmt.Sprintf("%dC+", n)
		}
		if n := u[pipeline.UnitCD]; n > 0 {
			out += fmt.Sprintf("%dCD+", n)
		}
		if n := u[pipeline.UnitBR]; n > 0 {
			out += fmt.Sprintf("%dBR", n)
		}
		return strings.TrimSuffix(out, "+")
	})
	row("Ld/St/Generic pipes", func(g core.GenConfig) string {
		u := g.Pipe.Units
		return fmt.Sprintf("%dL,%dS,%dG", u[pipeline.UnitLoad], u[pipeline.UnitStore], u[pipeline.UnitGen])
	})
	row("FP pipes", func(g core.GenConfig) string {
		u := g.Pipe.Units
		if n := u[pipeline.UnitFADD]; n > 0 {
			return fmt.Sprintf("%dFMAC,%dFADD", u[pipeline.UnitFMAC], n)
		}
		return fmt.Sprintf("%dFMAC", u[pipeline.UnitFMAC])
	})
	row("Mispredict penalty", func(g core.GenConfig) string { return fmt.Sprintf("%d", g.Branch.MispredictPenalty) })
	row("Outstanding misses", func(g core.GenConfig) string { return fmt.Sprintf("%d", g.Mem.MABs) })
	row("FP lat (MAC/MUL/ADD)", func(g core.GenConfig) string {
		return fmt.Sprintf("%d/%d/%d", g.Pipe.LatFMAC, g.Pipe.LatFMUL, g.Pipe.LatFADD)
	})
	return b.String()
}

// RenderTableIII prints the cache hierarchy evolution.
func RenderTableIII() string {
	var b strings.Builder
	b.WriteString("Table III — evolution of cache hierarchy sizes\n")
	b.WriteString("gen    L2 cache   L3 cache\n")
	for _, g := range core.Generations() {
		l3 := "-"
		if g.Mem.L3.SizeKB > 0 {
			l3 = fmt.Sprintf("%dMB", g.Mem.L3.SizeKB/1024)
		}
		l2 := fmt.Sprintf("%dKB", g.Mem.L2.SizeKB)
		if g.Mem.L2.SizeKB >= 1024 {
			l2 = fmt.Sprintf("%dMB", g.Mem.L2.SizeKB/1024)
		}
		fmt.Fprintf(&b, "%-5s %9s %9s\n", g.Name, l2, l3)
	}
	return b.String()
}

// RenderTableIV prints generational average load latencies with the
// paper's reference row.
func RenderTableIV(p *PopulationRun) string {
	paper := []float64{14.9, 13.8, 12.8, 11.1, 9.5, 8.3}
	means := p.Means(MetricLoadLat)
	var b strings.Builder
	b.WriteString("Table IV — generational average load latencies (cycles)\n")
	b.WriteString("           M1     M2     M3     M4     M5     M6\n")
	b.WriteString("measured")
	for _, v := range means {
		fmt.Fprintf(&b, " %6.2f", v)
	}
	b.WriteString("\npaper   ")
	for _, v := range paper {
		fmt.Fprintf(&b, " %6.2f", v)
	}
	b.WriteByte('\n')
	return b.String()
}

// Summary is the cross-figure headline numbers block.
func Summary(p *PopulationRun) string {
	mpki := p.Means(MetricMPKI)
	ipc := p.Means(MetricIPC)
	lat := p.Means(MetricLoadLat)
	spec := p.FamilyMeans(MetricMPKI, "specint")
	var b strings.Builder
	fmt.Fprintf(&b, "population: %d slices x %d insts\n", len(p.Slices), p.Spec.InstsPerSlice)
	fmt.Fprintf(&b, "mean MPKI      M1 %.2f -> M6 %.2f (%+.1f%%)   [paper: 3.62 -> 2.54, -29.8%%]\n",
		mpki[0], mpki[5], (mpki[5]/mpki[0]-1)*100)
	fmt.Fprintf(&b, "SPECint MPKI   M1 %.2f -> M6 %.2f (%+.1f%%)   [paper SPECint2006: -25.6%%]\n",
		spec[0], spec[5], (spec[5]/spec[0]-1)*100)
	fmt.Fprintf(&b, "mean load lat  M1 %.2f -> M6 %.2f (%+.1f%%)   [paper: 14.9 -> 8.3, -44.3%%]\n",
		lat[0], lat[5], (lat[5]/lat[0]-1)*100)
	fmt.Fprintf(&b, "mean IPC       M1 %.2f -> M6 %.2f (x%.2f)    [paper: 1.06 -> 2.71, x2.56]\n",
		ipc[0], ipc[5], ipc[5]/ipc[0])
	// Hypothetical generations (predictor-lab sweeps) get their own
	// lines, relative to the last shipped core.
	for g := len(core.Generations()); g < len(p.Gens); g++ {
		last := len(core.Generations()) - 1
		fmt.Fprintf(&b, "hypothetical   %s (%s): MPKI %.2f (%+.1f%% vs %s), IPC %.2f (x%.2f)\n",
			p.Gens[g].Name, p.Gens[g].Branch.Predictor.EngineKind(),
			mpki[g], (mpki[g]/mpki[last]-1)*100, p.Gens[last].Name,
			ipc[g], ipc[g]/ipc[last])
	}
	return b.String()
}

// RenderPower prints the front-end energy proxy per generation with its
// structural breakdown — the quantitative face of the paper's power
// claims for the μBTB's mBTB/SHP clock gating (§IV-B), the empty-line
// optimization (§IV-E), and the micro-op cache (§VI).
func RenderPower(p *PopulationRun) string {
	var b strings.Builder
	b.WriteString("Front-end energy proxy (units per 1k instructions; relative weights, not joules)\n")
	b.WriteString("gen     EPKI   icache   decode      uoc      shp  shp-gtd     mbtb mbtb-gtd\n")
	for g := range p.Gens {
		var epki float64
		agg := map[string]float64{}
		var insts float64
		n := 0
		for s := range p.Slices {
			if !p.ok(g, s) {
				continue
			}
			r := p.Results[g][s]
			epki += r.FetchEPKI
			insts += float64(r.Insts)
			n++
			for k, v := range r.PowerBreakdown {
				agg[k] += v
			}
		}
		if n > 0 {
			epki /= float64(n)
		}
		per := func(k string) float64 { return agg[k] / insts * 1000 }
		fmt.Fprintf(&b, "%-4s %7.0f %8.0f %8.0f %8.0f %8.0f %8.0f %8.0f %8.0f\n",
			p.Gens[g].Name, epki,
			per("icache"), per("decode"), per("uoc"),
			per("shp"), per("shp-gated"), per("mbtb"), per("mbtb-gated"))
	}
	b.WriteString("(uoc supply replaces icache+decode on covered blocks; gated columns are\n")
	b.WriteString(" residual charge where the μBTB lock or empty-line optimization disabled a lookup)\n")
	return b.String()
}

// BranchSlotStats reproduces the §IV-A dual-prediction statistics (lead
// taken 60%, second taken 24%, both not-taken 16%).
func BranchSlotStats(spec workload.SuiteSpec) (lead, second, bothNT float64) {
	f := branch.NewFrontend(branch.M1FrontendConfig())
	for _, sl := range workload.Suite(spec) {
		for i := range sl.Insts {
			f.Step(&sl.Insts[i])
		}
	}
	st := f.Stats()
	tot := float64(st.LeadTaken + st.SecondTaken + st.BothNT)
	if tot == 0 {
		return 0, 0, 0
	}
	return float64(st.LeadTaken) / tot, float64(st.SecondTaken) / tot, float64(st.BothNT) / tot
}
