package core

import (
	"testing"

	"exysim/internal/trace"
	"exysim/internal/workload"
)

func sliceOf(t *testing.T, fam workload.Family, idx, n int) *trace.Slice {
	t.Helper()
	sl := fam.Gen(idx, n, n/4, 0xE59)
	if err := sl.Validate(); err != nil {
		t.Fatal(err)
	}
	return sl
}

func TestIPCInPlausibleBand(t *testing.T) {
	// Every generation must produce IPC in (0, width].
	sl := sliceOf(t, workload.SpecIntFamily(), 0, 40000)
	for _, g := range Generations() {
		r := RunSlice(g, sl)
		if r.IPC <= 0 || r.IPC > float64(g.Pipe.Width) {
			t.Fatalf("%s IPC %.3f outside (0, %d]", g.Name, r.IPC, g.Pipe.Width)
		}
	}
}

func TestHighILPCappedByWidth(t *testing.T) {
	// SPECfp-like streams have enough ILP to pin a 4-wide M1 near its
	// width while M3+ go beyond 4 (§XI: "High-IPC workloads were capped
	// by M1's 4-wide design").
	sl := sliceOf(t, workload.SpecFPFamily(), 0, 60000)
	m1 := RunSlice(mustGen(t, "M1"), sl)
	m3 := RunSlice(mustGen(t, "M3"), sl)
	m6 := RunSlice(mustGen(t, "M6"), sl)
	t.Logf("specfp IPC: M1=%.2f M3=%.2f M6=%.2f", m1.IPC, m3.IPC, m6.IPC)
	if m1.IPC > 4.0 {
		t.Fatalf("M1 IPC %.2f exceeds its width", m1.IPC)
	}
	if m3.IPC <= m1.IPC {
		t.Fatalf("6-wide M3 (%.2f) should beat 4-wide M1 (%.2f) on high-ILP code", m3.IPC, m1.IPC)
	}
	if m6.IPC < m3.IPC*0.95 {
		t.Fatalf("M6 (%.2f) should not fall behind M3 (%.2f)", m6.IPC, m3.IPC)
	}
}

func TestLowIPCChaseImprovesWithMemorySystem(t *testing.T) {
	// §XI: "Low-IPC workloads were greatly improved by more
	// sophisticated, coordinated prefetching" and the §IX latency work.
	sl := sliceOf(t, workload.ChaseFamily(), 0, 40000)
	m1 := RunSlice(mustGen(t, "M1"), sl)
	m6 := RunSlice(mustGen(t, "M6"), sl)
	t.Logf("chase IPC: M1=%.3f M6=%.3f; load lat M1=%.1f M6=%.1f",
		m1.IPC, m6.IPC, m1.AvgLoadLat, m6.AvgLoadLat)
	if m6.IPC <= m1.IPC {
		t.Fatalf("M6 (%.3f) should beat M1 (%.3f) on pointer chasing", m6.IPC, m1.IPC)
	}
	if m6.AvgLoadLat >= m1.AvgLoadLat {
		t.Fatal("M6 average load latency should be lower")
	}
}

func TestGenerationalIPCRises(t *testing.T) {
	if testing.Short() {
		t.Skip("population run")
	}
	// Fig. 17 / §XI: average IPC rises 1.06 (M1) -> 2.71 (M6); the
	// reproduction must rise monotonically (small per-step noise
	// allowed) with a substantial total gain.
	slices := workload.Suite(workload.SuiteSpec{SlicesPerFamily: 2, InstsPerSlice: 60_000, WarmupFrac: 0.25, Seed: 0xE59})
	var ipc []float64
	for _, g := range Generations() {
		sum := 0.0
		for _, sl := range slices {
			r := RunSlice(g, sl)
			sum += r.IPC
		}
		// Fig. 17 reports the arithmetic mean of per-slice IPCs.
		ipc = append(ipc, sum/float64(len(slices)))
	}
	t.Logf("mean IPC by generation: %.3f", ipc)
	if ipc[5] < ipc[0]*1.8 {
		t.Fatalf("M6 IPC (%.2f) should be at least 1.8x M1's (%.2f)", ipc[5], ipc[0])
	}
	for i := 1; i < len(ipc); i++ {
		if ipc[i] < ipc[i-1]*0.97 {
			t.Fatalf("generation %d regressed IPC: %.3f -> %.3f", i+1, ipc[i-1], ipc[i])
		}
	}
}

func TestUOCEngagesOnTightKernels(t *testing.T) {
	sl := sliceOf(t, workload.TightLoopFamily(), 0, 40000)
	sim := NewSimulator(mustGen(t, "M5"))
	r := sim.Run(sl)
	if sim.Core().UOC() == nil {
		t.Fatal("M5 must have a UOC")
	}
	st := sim.Core().UOC().Stats()
	t.Logf("UOC: %d from UOC, %d decoded, saved %d decode cycles; IPC %.2f",
		st.UopsFromUOC, st.UopsFromDecode, st.DecodeCyclesSaved, r.IPC)
	if st.UopsFromUOC == 0 {
		t.Fatal("UOC never supplied μops on a tight kernel")
	}
}

func TestGenByName(t *testing.T) {
	if _, ok := GenByName("M3"); !ok {
		t.Fatal("M3 missing")
	}
	if _, ok := GenByName("M7"); ok {
		t.Fatal("M7 should not exist")
	}
	if len(Generations()) != 6 {
		t.Fatal("want six generations")
	}
}

func TestDeterministicResults(t *testing.T) {
	sl := sliceOf(t, workload.MobileFamily(), 0, 20000)
	a := RunSlice(mustGen(t, "M4"), sl)
	b := RunSlice(mustGen(t, "M4"), sl)
	if a.IPC != b.IPC || a.MPKI != b.MPKI || a.AvgLoadLat != b.AvgLoadLat {
		t.Fatalf("nondeterministic results: %+v vs %+v", a, b)
	}
}

func mustGen(t *testing.T, name string) GenConfig {
	t.Helper()
	g, ok := GenByName(name)
	if !ok {
		t.Fatalf("no generation %s", name)
	}
	return g
}

func TestAccountingInvariants(t *testing.T) {
	// Cross-subsystem sanity over every generation: metric ranges,
	// hit-level accounting, and feature gating.
	slices := []struct {
		fam workload.Family
		idx int
	}{{workload.SpecIntFamily(), 1}, {workload.WebFamily(), 1}}
	for _, g := range Generations() {
		for _, sf := range slices {
			sl := sliceOf(t, sf.fam, sf.idx, 30000)
			sim := NewSimulator(g)
			r := sim.Run(sl)
			if r.Cycles == 0 || r.Insts == 0 {
				t.Fatalf("%s: empty run", g.Name)
			}
			if r.IPC <= 0 || r.IPC > float64(g.Pipe.Width) {
				t.Fatalf("%s: IPC %v out of range", g.Name, r.IPC)
			}
			if r.MPKI < 0 || r.MPKI > 1000 {
				t.Fatalf("%s: MPKI %v out of range", g.Name, r.MPKI)
			}
			if r.Mem.Loads > 0 {
				minLat := float64(g.Mem.L1D.Latency)
				if g.Mem.HasCascade {
					minLat--
				}
				if r.AvgLoadLat < minLat {
					t.Fatalf("%s: load latency %v below L1 floor %v", g.Name, r.AvgLoadLat, minLat)
				}
			}
			// Level accounting: every load/store resolves at exactly one
			// level (L1 hit or L2/L3/DRAM fill).
			total := r.Mem.L1DHits + r.Mem.L2Hits + r.Mem.L3Hits + r.Mem.MemHits
			accesses := r.Mem.Loads + r.Mem.Stores
			if total < accesses*9/10 || total > accesses*11/10 {
				t.Fatalf("%s: level accounting %d vs %d accesses", g.Name, total, accesses)
			}
			// Feature gating.
			if sim.Core().UOC() != nil && !g.Pipe.HasUOC {
				t.Fatalf("%s: UOC present without config", g.Name)
			}
			if g.Name < "M5" && g.Pipe.HasUOC {
				t.Fatalf("%s: UOC before M5", g.Name)
			}
			if r.FetchEPKI <= 0 {
				t.Fatalf("%s: power proxy empty", g.Name)
			}
		}
	}
}

func TestRunTimeline(t *testing.T) {
	sl := sliceOf(t, workload.SpecIntFamily(), 0, 60000)
	sim := NewSimulator(mustGen(t, "M4"))
	tl := sim.RunTimeline(sl, 10_000)
	if len(tl) < 5 {
		t.Fatalf("intervals=%d", len(tl))
	}
	for i, ir := range tl {
		if ir.Interval != i {
			t.Fatalf("interval numbering broken at %d", i)
		}
		if ir.IPC <= 0 || ir.IPC > 8 {
			t.Fatalf("interval %d IPC %v", i, ir.IPC)
		}
		if ir.MPKI < 0 || ir.MPKI > 1000 {
			t.Fatalf("interval %d MPKI %v", i, ir.MPKI)
		}
	}
	// Warm intervals should beat the cold first interval on average.
	var warm float64
	for _, ir := range tl[1:] {
		warm += ir.IPC
	}
	warm /= float64(len(tl) - 1)
	if warm < tl[0].IPC*0.8 {
		t.Fatalf("warm IPC %.2f implausibly below cold %.2f", warm, tl[0].IPC)
	}
}

func TestFamilyCharacter(t *testing.T) {
	// The suite families must keep their intended relative character on
	// a mid-generation machine: streaming FP above irregular integer,
	// pointer chasing at the bottom.
	get := func(fam workload.Family) float64 {
		sl := sliceOf(t, fam, 0, 40000)
		return RunSlice(mustGen(t, "M3"), sl).IPC
	}
	fp := get(workload.SpecFPFamily())
	in := get(workload.SpecIntFamily())
	ch := get(workload.ChaseFamily())
	ti := get(workload.TightLoopFamily())
	t.Logf("character IPCs: specfp %.2f specint %.2f tight %.2f chase %.3f", fp, in, ti, ch)
	if !(fp > in) {
		t.Fatalf("specfp (%.2f) should out-run specint (%.2f)", fp, in)
	}
	if !(ch < in/3) {
		t.Fatalf("chase (%.3f) should be far below specint (%.2f)", ch, in)
	}
	if !(ti > in) {
		t.Fatalf("tight kernels (%.2f) should out-run specint (%.2f)", ti, in)
	}
}

func TestSeedRobustness(t *testing.T) {
	// The M1 -> M6 improvement must not be an artifact of the default
	// seed: a different population seed keeps the trend.
	spec := workload.SuiteSpec{SlicesPerFamily: 1, InstsPerSlice: 40_000, WarmupFrac: 0.25, Seed: 0xBEEF}
	slices := workload.Suite(spec)
	mean := func(name string) float64 {
		g := mustGen(t, name)
		sum := 0.0
		for _, sl := range slices {
			r := RunSlice(g, sl)
			sum += r.IPC
		}
		return sum / float64(len(slices))
	}
	m1, m6 := mean("M1"), mean("M6")
	t.Logf("seed 0xBEEF: M1 %.3f -> M6 %.3f", m1, m6)
	if m6 < m1*1.5 {
		t.Fatalf("alternate seed broke the trend: M1 %.3f vs M6 %.3f", m1, m6)
	}
}
