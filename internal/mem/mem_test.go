package mem

import (
	"testing"

	"exysim/internal/isa"
	"exysim/internal/trace"
	"exysim/internal/workload"
)

// replayLoads drives a slice's memory accesses through the system with a
// simple advancing clock (one cycle per instruction plus latency echo),
// resetting stats after warmup. It returns the detailed-region stats.
func replayLoads(s *System, sl *trace.Slice) Stats {
	// The driver advances its clock like a window-limited core: a load
	// may overlap at most `overlap` cycles of younger work, and a
	// dependent (cascade) load serializes completely. Without this, the
	// clock outruns memory bandwidth and queueing grows without bound —
	// a real core would have stalled.
	const overlap = 48
	now := uint64(1000)
	lastLoadDst := isa.RegNone
	for i := range sl.Insts {
		in := &sl.Insts[i]
		now++
		switch in.Class {
		case isa.Load:
			cascade := in.Src1 != isa.RegNone && in.Src1 == lastLoadDst
			lat := s.Load(in.PC, in.Addr, now, cascade)
			done := now + uint64(lat)
			if cascade {
				now = done
			} else if done > now+overlap {
				now = done - overlap
			}
			lastLoadDst = in.Dst
		case isa.Store:
			s.Store(in.PC, in.Addr, now)
		}
		if i+1 == sl.Warmup {
			s.ResetStats()
		}
	}
	return s.Stats()
}

func slice(t *testing.T, fam workload.Family, idx, n int) *trace.Slice {
	t.Helper()
	sl := fam.Gen(idx, n, n/4, 0xE59)
	if err := sl.Validate(); err != nil {
		t.Fatal(err)
	}
	return sl
}

func TestStackLoadsHitL1(t *testing.T) {
	s := New(M1MemConfig())
	sl := slice(t, workload.TightLoopFamily(), 0, 30000)
	st := replayLoads(s, sl)
	if st.Loads == 0 {
		t.Fatal("no loads")
	}
	hitRate := float64(st.L1DHits) / float64(st.Loads)
	if hitRate < 0.95 {
		t.Fatalf("tight kernel L1D hit rate %.3f", hitRate)
	}
	if st.LoadLat.Mean() > 6 {
		t.Fatalf("tight kernel avg load latency %.2f", st.LoadLat.Mean())
	}
}

func TestStreamPrefetchingCoversLatency(t *testing.T) {
	sl := slice(t, workload.StreamFamily(), 0, 60000)
	with := New(M3MemConfig())
	stWith := replayLoads(with, sl)
	// Disable the stride engine by zeroing its degree range.
	cfgNo := M3MemConfig()
	cfgNo.MSP.MinDegree = 0
	cfgNo.MSP.MaxDegree = 0
	cfgNo.HasSMS = false
	without := New(cfgNo)
	stWithout := replayLoads(without, sl)
	t.Logf("avg load lat with prefetch %.2f, without %.2f", stWith.LoadLat.Mean(), stWithout.LoadLat.Mean())
	if stWith.LoadLat.Mean() >= stWithout.LoadLat.Mean() {
		t.Fatal("stride prefetching should reduce streaming load latency")
	}
}

func TestSMSHelpsSpatialWorkload(t *testing.T) {
	sl := slice(t, workload.SMSFamily(), 0, 60000)
	cfgNoSMS := M3MemConfig()
	cfgNoSMS.HasSMS = false
	a := replayLoads(New(cfgNoSMS), sl)
	b := replayLoads(New(M3MemConfig()), sl)
	t.Logf("avg load lat without SMS %.2f, with %.2f", a.LoadLat.Mean(), b.LoadLat.Mean())
	if b.LoadLat.Mean() > a.LoadLat.Mean() {
		t.Fatal("SMS should not hurt its target workload")
	}
}

func TestCascadeReducesChaseLatency(t *testing.T) {
	sl := slice(t, workload.TightLoopFamily(), 1, 30000)
	cfgNo := M4MemConfig()
	cfgNo.HasCascade = false
	a := replayLoads(New(cfgNo), sl)
	b := replayLoads(New(M4MemConfig()), sl)
	if b.LoadLat.Mean() > a.LoadLat.Mean() {
		t.Fatalf("cascading should not increase latency: %.2f -> %.2f", a.LoadLat.Mean(), b.LoadLat.Mean())
	}
}

func TestGenerationalLoadLatencyFalls(t *testing.T) {
	// Table IV: average load latency falls 14.9 -> 8.3 across M1..M6.
	// The reproduction must be monotone non-increasing (within noise)
	// with a substantial total reduction.
	slices := []*trace.Slice{
		slice(t, workload.SpecIntFamily(), 0, 100000),
		slice(t, workload.WebFamily(), 0, 100000),
		slice(t, workload.ChaseFamily(), 0, 100000),
		slice(t, workload.StreamFamily(), 0, 100000),
		slice(t, workload.MobileFamily(), 0, 100000),
		slice(t, workload.SMSFamily(), 0, 100000),
		slice(t, workload.TightLoopFamily(), 0, 100000),
		slice(t, workload.GameFamily(), 0, 100000),
	}
	var lat []float64
	for _, cfg := range Generations() {
		sum := 0.0
		for _, sl := range slices {
			s := New(cfg)
			st := replayLoads(s, sl)
			sum += st.LoadLat.Mean()
		}
		// Table IV averages per-slice mean load latencies.
		lat = append(lat, sum/float64(len(slices)))
	}
	t.Logf("avg load latency by generation: %.2f", lat)
	if lat[5] >= lat[0]*0.75 {
		t.Fatalf("M6 (%.2f) should cut M1's latency (%.2f) by >25%%", lat[5], lat[0])
	}
	for i := 1; i < len(lat); i++ {
		if lat[i] > lat[i-1]*1.10 {
			t.Fatalf("generation %d regressed: %.2f -> %.2f", i+1, lat[i-1], lat[i])
		}
	}
}

func TestExclusiveHierarchy(t *testing.T) {
	s := New(M3MemConfig())
	addr := uint64(0x100000)
	now := uint64(100)
	s.Load(0x1, addr, now, false)
	// Force the line out of L1 and L2 by filling conflicting lines.
	l2sets := uint64(s.L2().Sets())
	for i := uint64(1); i <= 20; i++ {
		now += 400
		s.Load(0x1, addr+i*l2sets*128, now, false)
	}
	if s.L2().Contains(addr) {
		t.Skip("line not evicted from L2; geometry changed")
	}
	if !s.L3().Contains(addr) {
		t.Fatal("castout line should live in the exclusive L3")
	}
	// Loading it back must remove it from the L3 (exclusivity).
	now += 400
	s.Load(0x1, addr, now, false)
	if s.L3().Contains(addr) {
		t.Fatal("exclusive L3 kept a line that moved up")
	}
}

func TestMABLimitStalls(t *testing.T) {
	cfg := M1MemConfig() // 8 MABs
	s := New(cfg)
	now := uint64(10)
	// Burst of far-apart misses in the same cycle window exhausts MABs.
	for i := 0; i < 32; i++ {
		s.Load(uint64(0x10+i*4), uint64(0x40_000_000+i*1_000_000), now, false)
	}
	if s.Stats().MABStallCycles == 0 {
		t.Fatal("MAB limit never stalled a burst of 32 misses on an 8-MAB machine")
	}
	big := New(M6MemConfig()) // 40 MABs
	for i := 0; i < 32; i++ {
		big.Load(uint64(0x10+i*4), uint64(0x40_000_000+i*1_000_000), now, false)
	}
	if big.Stats().MABStallCycles >= s.Stats().MABStallCycles {
		t.Fatal("more MABs should stall less")
	}
}

func TestSpecReadReducesDRAMLatency(t *testing.T) {
	sl := slice(t, workload.ChaseFamily(), 1, 60000)
	cfgNo := M5MemConfig()
	cfgNo.Uncore.SpecRead = false
	cfgNo.Uncore.EarlyActivate = false
	a := replayLoads(New(cfgNo), sl)
	b := replayLoads(New(M5MemConfig()), sl)
	t.Logf("chase avg load lat without §IX features %.2f, with %.2f", a.LoadLat.Mean(), b.LoadLat.Mean())
	if b.LoadLat.Mean() >= a.LoadLat.Mean() {
		t.Fatal("speculative read + early activate should reduce DRAM-bound latency")
	}
	if b.SpecReadSavings == 0 {
		t.Fatal("spec read never fired")
	}
}

func TestOnePassModeEngages(t *testing.T) {
	// A working set that fits in the L2: first-pass prefetches keep
	// hitting there, so the system must switch to one-pass (§VII-B).
	sl := slice(t, workload.TightLoopFamily(), 2, 40000)
	s := New(M1MemConfig())
	st := replayLoads(s, sl)
	_ = st
	if s.onePass == false && s.st.TwoPassIssues > 200 {
		t.Fatalf("one-pass mode never engaged after %d two-pass issues (fpHits=%d)",
			s.st.TwoPassIssues, s.fpL2Hits)
	}
}

func TestFetchInstPath(t *testing.T) {
	s := New(M1MemConfig())
	lat := s.FetchInst(0x400000, 100)
	if lat == 0 {
		t.Fatal("cold instruction fetch should stall")
	}
	if got := s.FetchInst(0x400000, 5000); got != 0 {
		t.Fatalf("warm fetch latency %d", got)
	}
}

func TestTableIIIGeometry(t *testing.T) {
	// Table III: L2/L3 sizes per generation.
	want := []struct {
		l2, l3 int
	}{
		{2048, 0}, {2048, 0}, {512, 4096}, {1024, 3072}, {2048, 3072}, {2048, 4096},
	}
	for i, cfg := range Generations() {
		if cfg.L2.SizeKB != want[i].l2 || cfg.L3.SizeKB != want[i].l3 {
			t.Fatalf("%s: L2 %dKB L3 %dKB, want %dKB/%dKB",
				cfg.Name, cfg.L2.SizeKB, cfg.L3.SizeKB, want[i].l2, want[i].l3)
		}
	}
}

func TestTableITranslationGeometry(t *testing.T) {
	cfgs := Generations()
	// L1 D-TLB pages: 32, 32, 32, 48, 48, 128.
	wantD := []int{32, 32, 32, 48, 48, 128}
	for i, cfg := range cfgs {
		if got := cfg.DTLB.Pages(); got != wantD[i] {
			t.Fatalf("%s DTLB pages %d, want %d", cfg.Name, got, wantD[i])
		}
	}
	// L1.5 exists only from M3 and maps 512 pages.
	for i, cfg := range cfgs {
		if i < 2 && cfg.D15.Entries != 0 {
			t.Fatalf("%s should have no L1.5 DTLB", cfg.Name)
		}
		if i >= 2 && cfg.D15.Pages() != 512 {
			t.Fatalf("%s L1.5 pages %d", cfg.Name, cfg.D15.Pages())
		}
	}
	// Shared L2 TLB pages: 1K, 1K, 4K, 4K, 4K, 8K.
	wantL2 := []int{1024, 1024, 4096, 4096, 4096, 8192}
	for i, cfg := range cfgs {
		if got := cfg.L2TLB.Pages(); got != wantL2[i] {
			t.Fatalf("%s L2TLB pages %d, want %d", cfg.Name, got, wantL2[i])
		}
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	s := New(M1MemConfig())
	now := uint64(100)
	addr := uint64(0x5000_0000)
	// Cold store then an immediate load of the same doubleword: the
	// load must forward from the store buffer at ~1 cycle.
	s.Store(0x10, addr, now)
	lat := s.Load(0x14, addr, now+1, false)
	if lat > 2 {
		t.Fatalf("forwarded load latency %d", lat)
	}
	if s.Stats().StoreForwards != 1 {
		t.Fatal("forward not counted")
	}
	// An unrelated doubleword does not forward.
	s.Load(0x18, addr+512, now+2, false)
	if s.Stats().StoreForwards != 1 {
		t.Fatal("false forward")
	}
}

func TestDirtyWritebacksReachDRAM(t *testing.T) {
	cfg := M1MemConfig() // no L3: dirty L2 victims write straight back
	s := New(cfg)
	now := uint64(100)
	// Dirty many lines mapping far apart, then stream past L2 capacity.
	l2Lines := uint64(cfg.L2.SizeKB) * 1024 / 64
	for i := uint64(0); i < l2Lines*2; i++ {
		s.Store(0x10, 0x4000_0000+i*128, now)
		now += 3
	}
	if s.Stats().Writebacks == 0 {
		t.Fatal("dirty evictions never wrote back")
	}
}
