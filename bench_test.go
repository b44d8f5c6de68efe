// Benchmarks that regenerate every table and figure in the paper's
// evaluation (go test -bench=. -benchmem). Each benchmark re-runs the
// experiment per iteration and reports the headline values as custom
// metrics, so `-bench` output doubles as a compact reproduction report:
//
//	BenchmarkTableII    reports totalKB per generation
//	BenchmarkFig1       reports MPKI at short vs long GHIST
//	BenchmarkFig9       reports mean MPKI for M1 and M6
//	BenchmarkFig16/TableIV  report mean load latency for M1 and M6
//	BenchmarkFig17      reports mean IPC for M1 and M6
//	BenchmarkAblate*    report the speedup% of each §-called-out feature
//
// The populations use reduced sizes so the full suite stays in benchmark
// time; `cmd/exysim` regenerates the same artifacts at standard scale.
package exysim

import (
	"context"
	"testing"

	"exysim/internal/branch"
	"exysim/internal/core"
	"exysim/internal/experiments"
	"exysim/internal/workload"
)

// benchSpec sizes the benchmark populations.
var benchSpec = workload.SuiteSpec{SlicesPerFamily: 2, InstsPerSlice: 40_000, WarmupFrac: 0.25, Seed: 0xE59}

// popRun is the test-side spelling of experiments.Run for specs that
// cannot fail (no checkpoint, no cancellation).
func popRun(tb testing.TB, spec workload.SuiteSpec) *experiments.PopulationRun {
	tb.Helper()
	p, err := experiments.Run(context.Background(), spec)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.RenderTableI()) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	var budgets []branch.StorageBudget
	for i := 0; i < b.N; i++ {
		budgets = experiments.TableII()
	}
	for _, bud := range budgets {
		b.ReportMetric(bud.TotalKB, bud.Gen+"_totalKB")
	}
}

func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.RenderTableIII()) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTableIV(b *testing.B) {
	var means []float64
	for i := 0; i < b.N; i++ {
		p := popRun(b, benchSpec)
		means = p.Means(experiments.MetricLoadLat)
	}
	b.ReportMetric(means[0], "M1_loadlat")
	b.ReportMetric(means[5], "M6_loadlat")
}

func BenchmarkFig1(b *testing.B) {
	var pts []experiments.Fig1Point
	for i := 0; i < b.N; i++ {
		pts = experiments.Fig1(3, 40_000, []int{8, 64, 165, 300}, 0xE59)
	}
	b.ReportMetric(pts[0].MPKI, "MPKI_ghist8")
	b.ReportMetric(pts[len(pts)-1].MPKI, "MPKI_ghist300")
}

func BenchmarkFig9(b *testing.B) {
	var means []float64
	for i := 0; i < b.N; i++ {
		p := popRun(b, benchSpec)
		means = p.Means(experiments.MetricMPKI)
	}
	b.ReportMetric(means[0], "M1_MPKI")
	b.ReportMetric(means[5], "M6_MPKI")
}

func BenchmarkFig16(b *testing.B) {
	var curves [][]float64
	for i := 0; i < b.N; i++ {
		p := popRun(b, benchSpec)
		curves = p.Curves(experiments.MetricLoadLat, 8)
	}
	b.ReportMetric(curves[0][0], "M1_p0_lat")
	b.ReportMetric(curves[5][len(curves[5])-1], "M6_p100_lat")
}

func BenchmarkFig17(b *testing.B) {
	var means []float64
	for i := 0; i < b.N; i++ {
		p := popRun(b, benchSpec)
		means = p.Means(experiments.MetricIPC)
	}
	b.ReportMetric(means[0], "M1_IPC")
	b.ReportMetric(means[5], "M6_IPC")
}

func BenchmarkBranchSlotStats(b *testing.B) {
	var lead, second, nt float64
	for i := 0; i < b.N; i++ {
		lead, second, nt = experiments.BranchSlotStats(benchSpec)
	}
	b.ReportMetric(lead*100, "leadTaken%")
	b.ReportMetric(second*100, "secondTaken%")
	b.ReportMetric(nt*100, "bothNT%")
}

// benchAblation runs one named ablation per iteration.
func benchAblation(b *testing.B, name string) {
	b.Helper()
	var res experiments.AblationResult
	for i := 0; i < b.N; i++ {
		for _, a := range experiments.Ablations() {
			if a.Name == name {
				res = experiments.RunAblation(a, benchSpec)
			}
		}
	}
	b.ReportMetric(res.SpeedupPct, "speedup%")
}

func BenchmarkAblateL2BTB(b *testing.B)      { benchAblation(b, "l2btb") }
func BenchmarkAblateUBTB(b *testing.B)       { benchAblation(b, "ubtb") }
func BenchmarkAblateZATZOT(b *testing.B)     { benchAblation(b, "zatzot") }
func BenchmarkAblateMRB(b *testing.B)        { benchAblation(b, "mrb") }
func BenchmarkAblateIntConf(b *testing.B)    { benchAblation(b, "intconf") }
func BenchmarkAblatePrefetch(b *testing.B)   { benchAblation(b, "prefetch") }
func BenchmarkAblateSMS(b *testing.B)        { benchAblation(b, "sms") }
func BenchmarkAblateBuddy(b *testing.B)      { benchAblation(b, "buddy") }
func BenchmarkAblateStandalone(b *testing.B) { benchAblation(b, "standalone") }
func BenchmarkAblateDRAMLat(b *testing.B)    { benchAblation(b, "dramlat") }
func BenchmarkAblateUOC(b *testing.B)        { benchAblation(b, "uoc") }
func BenchmarkAblateELO(b *testing.B)        { benchAblation(b, "elo") }
func BenchmarkAblateCascade(b *testing.B)    { benchAblation(b, "cascade") }

// BenchmarkPower regenerates the front-end energy-proxy table.
func BenchmarkPower(b *testing.B) {
	var epki []float64
	for i := 0; i < b.N; i++ {
		p := popRun(b, benchSpec)
		epki = p.Means(experiments.MetricEPKI)
	}
	b.ReportMetric(epki[3], "M4_EPKI")
	b.ReportMetric(epki[4], "M5_EPKI")
}

// BenchmarkSecurity regenerates the §V mitigation-cost study.
func BenchmarkSecurity(b *testing.B) {
	var rows []experiments.SecurityRow
	for i := 0; i < b.N; i++ {
		rows = experiments.SecurityCost(benchSpec, 20_000)
	}
	b.ReportMetric(rows[0].MPKI, "MPKI_base")
	b.ReportMetric(rows[2].MPKI, "MPKI_rekey")
}

// BenchmarkSharing regenerates the §III shared-vs-private L2 study.
func BenchmarkSharing(b *testing.B) {
	var rows []experiments.SharingRow
	for i := 0; i < b.N; i++ {
		rows = experiments.SharingStudy(benchSpec, []float64{0, 0.6})
	}
	b.ReportMetric(rows[1].MeanIPC, "M2_IPC_loaded")
	b.ReportMetric(rows[3].MeanIPC, "M3_IPC_loaded")
}

// BenchmarkSimulatorThroughput measures raw simulation speed
// (instructions simulated per wall-clock second on M6, the heaviest
// configuration). The per-generation sub-benchmarks cover all six
// configurations; `make bench` turns them into BENCH_throughput.json.
func BenchmarkSimulatorThroughput(b *testing.B) {
	g, _ := core.GenByName("M6")
	sl, err := workload.ByName("specint/0", benchSpec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		r := core.RunSlice(g, sl)
		insts += r.Insts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkSimulatorThroughputGens runs the same throughput measurement
// for every generation, M1 through M6.
func BenchmarkSimulatorThroughputGens(b *testing.B) {
	for _, g := range core.Generations() {
		b.Run(g.Name, func(b *testing.B) {
			sl, err := workload.ByName("specint/0", benchSpec)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var insts uint64
			for i := 0; i < b.N; i++ {
				r := core.RunSlice(g, sl)
				insts += r.Insts
			}
			b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "insts/s")
		})
	}
}
