package branch

import (
	"testing"

	"exysim/internal/isa"
	"exysim/internal/trace"
	"exysim/internal/workload"
)

// runSlice replays a workload slice through a front end, resetting the
// statistics after the warmup prefix, and returns the detailed-region
// stats.
func runSlice(f *Frontend, s *trace.Slice) Stats {
	for i := range s.Insts {
		f.Step(&s.Insts[i])
		if i+1 == s.Warmup {
			f.ResetStats()
		}
	}
	return f.Stats()
}

func genSlice(t *testing.T, fam workload.Family, idx, budget int) *trace.Slice {
	t.Helper()
	s := fam.Gen(idx, budget, budget/10, 0xE59)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFrontendTightLoopIsNearPerfect(t *testing.T) {
	f := NewFrontend(M1FrontendConfig())
	s := genSlice(t, workload.TightLoopFamily(), 0, 40000)
	st := runSlice(f, s)
	if st.MPKI() > 3 {
		t.Fatalf("tight loop MPKI %.2f too high", st.MPKI())
	}
	if st.UBTBLockedPreds == 0 {
		t.Fatal("μBTB never locked on a tight kernel")
	}
}

func TestFrontendGenerationsImproveMPKI(t *testing.T) {
	if testing.Short() {
		t.Skip("population run")
	}
	// Across a mixed population, M6 must beat M1 and the trend must be
	// non-degrading at every step (the paper's Fig. 9 headline:
	// 3.62 -> 2.54 average MPKI; at this reproduction's trace scale the
	// relative improvement is smaller but strictly monotone).
	slices := workload.Suite(workload.SuiteSpec{SlicesPerFamily: 2, InstsPerSlice: 200_000, WarmupFrac: 0.25, Seed: 0xE59})
	mpki := make([]float64, 0, 6)
	for _, cfg := range Generations() {
		total, insts := 0.0, 0.0
		for _, s := range slices {
			f := NewFrontend(cfg)
			st := runSlice(f, s)
			total += float64(st.Mispredicts)
			insts += float64(st.Insts)
		}
		mpki = append(mpki, total/insts*1000)
	}
	t.Logf("MPKI by generation: %.3f", mpki)
	if !(mpki[5] < mpki[0]*0.95) {
		t.Fatalf("M6 (%.2f) should improve on M1 (%.2f) by >5%%", mpki[5], mpki[0])
	}
	for i := 1; i < len(mpki); i++ {
		if mpki[i] > mpki[i-1]*1.03 {
			t.Fatalf("generation %d regressed MPKI: %.3f -> %.3f", i+1, mpki[i-1], mpki[i])
		}
	}
}

func TestFrontendWebBenefitsFromL2BTBGrowth(t *testing.T) {
	// §IV-D: the M4 L2BTB capacity/latency/bandwidth change helped
	// web workloads. Compare M3 vs M4 bubbles+mispredicts on web.
	s := genSlice(t, workload.WebFamily(), 1, 60000)
	f3 := NewFrontend(M3FrontendConfig())
	f4 := NewFrontend(M4FrontendConfig())
	st3 := runSlice(f3, s)
	st4 := runSlice(f4, s)
	cost3 := float64(st3.Bubbles) + float64(st3.Mispredicts)
	cost4 := float64(st4.Bubbles) + float64(st4.Mispredicts)
	t.Logf("M3 bubbles=%d mispred=%d; M4 bubbles=%d mispred=%d", st3.Bubbles, st3.Mispredicts, st4.Bubbles, st4.Mispredicts)
	if cost4 > cost3 {
		t.Fatalf("M4 front-end cost (%.0f) should not exceed M3 (%.0f) on web", cost4, cost3)
	}
}

func TestFrontendZATReducesTakenBubbles(t *testing.T) {
	// A chain of always-taken branches: M5's ZAT/ZOT replication should
	// produce zero-bubble redirects that M4 charges 1-2 bubbles for.
	mkSlice := func() *trace.Slice {
		// Manually build a loop of 4 tiny blocks linked by
		// unconditional branches, closed by one conditional.
		var insts []isa.Inst
		base := uint64(0x1000)
		blocks := []uint64{base, base + 0x100, base + 0x200, base + 0x300}
		for iter := 0; iter < 4000; iter++ {
			for b := 0; b < 4; b++ {
				pc := blocks[b]
				insts = append(insts, isa.Inst{PC: pc, Class: isa.ALUSimple, Dst: 1, Src1: 1})
				var next uint64
				kind := isa.BranchUncond
				taken := true
				if b == 3 {
					kind = isa.BranchCond
					next = blocks[0]
				} else {
					next = blocks[b+1]
				}
				insts = append(insts, isa.Inst{PC: pc + 4, Class: isa.Branch, Branch: kind, Taken: taken, Target: next})
			}
		}
		return &trace.Slice{Name: "zatchain", Suite: "unit", Warmup: 2000, Insts: insts}
	}
	cfgNoZAT := M5FrontendConfig()
	cfgNoZAT.HasZATZOT = false
	cfgNoZAT.UBTB.Nodes = 0 // isolate the ZAT path from μBTB zero-bubble
	cfgNoZAT.UBTB.UncondNodes = 0
	cfgNoZAT.UBTB.Window = 1 << 30
	cfgZAT := M5FrontendConfig()
	cfgZAT.HasZATZOT = true
	cfgZAT.UBTB.Nodes = 0
	cfgZAT.UBTB.UncondNodes = 0
	cfgZAT.UBTB.Window = 1 << 30

	stNo := runSlice(NewFrontend(cfgNoZAT), mkSlice())
	stZ := runSlice(NewFrontend(cfgZAT), mkSlice())
	t.Logf("bubbles without ZAT=%d with=%d zatHits=%d", stNo.Bubbles, stZ.Bubbles, stZ.ZATHits)
	if stZ.ZATHits == 0 {
		t.Fatal("ZAT never fired on an always-taken chain")
	}
	if stZ.Bubbles >= stNo.Bubbles {
		t.Fatalf("ZAT should reduce bubbles: %d -> %d", stNo.Bubbles, stZ.Bubbles)
	}
}

func TestFrontend1ATReducesBubbles(t *testing.T) {
	// M3's 1AT gives always-taken branches a 1-bubble redirect vs 2.
	var insts []isa.Inst
	// Alternate blocks joined by always-taken conditional branches, too
	// many distinct blocks for the μBTB to lock.
	nBlocks := 600
	for iter := 0; iter < 30; iter++ {
		for b := 0; b < nBlocks; b++ {
			pc := uint64(0x10000 + b*0x40)
			next := uint64(0x10000 + ((b+1)%nBlocks)*0x40)
			insts = append(insts, isa.Inst{PC: pc, Class: isa.ALUSimple, Dst: 1})
			insts = append(insts, isa.Inst{PC: pc + 4, Class: isa.Branch, Branch: isa.BranchCond, Taken: true, Target: next})
		}
	}
	s := &trace.Slice{Name: "atblocks", Suite: "unit", Warmup: len(insts) / 3, Insts: insts}
	cfg2 := M2FrontendConfig() // no 1AT
	cfg3 := M3FrontendConfig() // 1AT
	st2 := runSlice(NewFrontend(cfg2), s)
	s2 := &trace.Slice{Name: "atblocks", Suite: "unit", Warmup: len(insts) / 3, Insts: insts}
	st3 := runSlice(NewFrontend(cfg3), s2)
	t.Logf("M2 bubbles=%d, M3 bubbles=%d oneAT=%d", st2.Bubbles, st3.Bubbles, st3.OneATHits)
	if st3.OneATHits == 0 {
		t.Fatal("1AT never fired")
	}
	if st3.Bubbles >= st2.Bubbles {
		t.Fatalf("1AT should reduce bubbles: %d -> %d", st2.Bubbles, st3.Bubbles)
	}
}

func TestFrontendRASPredictsReturns(t *testing.T) {
	f := NewFrontend(M1FrontendConfig())
	s := genSlice(t, workload.SpecIntFamily(), 2, 40000)
	st := runSlice(f, s)
	if st.MispredReturn > st.Branches/200 {
		t.Fatalf("too many return mispredicts: %d of %d branches", st.MispredReturn, st.Branches)
	}
}

func TestFrontendM6IndirectBeatsM1OnManyTargets(t *testing.T) {
	// §IV-F: the hybrid reduces end-to-end prediction latency (the
	// capped walk) while matching or improving accuracy on the
	// JavaScript-era large-fanout sites. Aggregate over several web
	// slices; individual slices can wobble a percent either way on
	// their random polymorphic sites.
	var mis1, mis6, walked1, walked6, preds1, preds6 uint64
	for idx := 0; idx < 3; idx++ {
		s := genSlice(t, workload.WebFamily(), idx, 60000)
		st1 := runSlice(NewFrontend(M1FrontendConfig()), s)
		st6 := runSlice(NewFrontend(M6FrontendConfig()), s)
		mis1 += st1.MispredIndirect
		mis6 += st6.MispredIndirect
		walked1 += st1.VPCWalked
		walked6 += st6.VPCWalked
		preds1 += st1.VPCPredicts
		preds6 += st6.VPCPredicts
	}
	t.Logf("indirect mispredicts M1=%d M6=%d; walks M1=%d M6=%d", mis1, mis6, walked1, walked6)
	if float64(mis6) > float64(mis1)*1.03 {
		t.Fatalf("M6 indirect (%d) should not be worse than M1 (%d) beyond noise", mis6, mis1)
	}
	// The capped walk must consult far fewer virtual branches.
	avg1 := float64(walked1) / float64(preds1)
	avg6 := float64(walked6) / float64(preds6)
	if avg6 >= avg1 {
		t.Fatalf("M6 walk length %.2f should be below M1's %.2f", avg6, avg1)
	}
}

func TestFrontendDualSlotStats(t *testing.T) {
	f := NewFrontend(M1FrontendConfig())
	for _, fam := range []workload.Family{workload.SpecIntFamily(), workload.MobileFamily()} {
		s := genSlice(t, fam, 0, 30000)
		runSlice(f, s)
	}
	st := f.Stats()
	tot := st.LeadTaken + st.SecondTaken + st.BothNT
	if tot == 0 {
		t.Fatal("no pair stats")
	}
	lead := float64(st.LeadTaken) / float64(tot)
	t.Logf("lead-taken %.2f second-taken %.2f both-NT %.2f",
		lead, float64(st.SecondTaken)/float64(tot), float64(st.BothNT)/float64(tot))
	// §IV-A reports 60/24/16; synthetic populations land in the same
	// regime: a majority of slots resolved by a taken lead.
	if lead < 0.40 || lead > 0.97 {
		t.Fatalf("lead-taken fraction %.2f implausible", lead)
	}
}

func TestBudgetReproducesTableIIShape(t *testing.T) {
	// Table II: 98.9 -> 175.8 -> 288.0 -> 310.8 -> 561.5 KB.
	want := map[string]float64{"M1": 98.9, "M3": 175.8, "M4": 288.0, "M5": 310.8, "M6": 561.5}
	var budgets []StorageBudget
	for _, cfg := range Generations() {
		budgets = append(budgets, Budget(cfg))
	}
	for _, b := range budgets {
		t.Logf("%s: SHP %.1f L1 %.1f L2 %.1f total %.1f", b.Gen, b.SHPKB, b.L1KB, b.L2KB, b.TotalKB)
	}
	// Exact SHP sizes are determined by geometry and must match.
	if budgets[0].SHPKB != 8.0 || budgets[2].SHPKB != 16.0 || budgets[4].SHPKB != 32.0 {
		t.Fatalf("SHP KB wrong: %v %v %v", budgets[0].SHPKB, budgets[2].SHPKB, budgets[4].SHPKB)
	}
	// Totals must be within 20% of the paper and monotone non-decreasing.
	for _, b := range budgets {
		if w, ok := want[b.Gen]; ok {
			if b.TotalKB < w*0.8 || b.TotalKB > w*1.2 {
				t.Fatalf("%s total %.1fKB not within 20%% of paper's %.1fKB", b.Gen, b.TotalKB, w)
			}
		}
	}
	for i := 1; i < len(budgets); i++ {
		if budgets[i].TotalKB < budgets[i-1].TotalKB {
			t.Fatalf("budget shrank at %s", budgets[i].Gen)
		}
	}
}

func TestFrontendStatsResetKeepsLearning(t *testing.T) {
	f := NewFrontend(M1FrontendConfig())
	s := genSlice(t, workload.SpecIntFamily(), 0, 20000)
	st1 := runSlice(f, s)
	// Re-run the same slice without rebuilding: learned state persists,
	// so the second pass must not be worse.
	st2 := runSlice(f, s)
	if st2.MPKI() > st1.MPKI()*1.1 {
		t.Fatalf("second pass MPKI %.2f worse than first %.2f", st2.MPKI(), st1.MPKI())
	}
}

func TestSourceStrings(t *testing.T) {
	for s := SrcNone; s < numSources; s++ {
		if s.String() == "" {
			t.Fatalf("source %d unnamed", s)
		}
	}
}
