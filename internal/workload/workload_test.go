package workload

import (
	"testing"

	"exysim/internal/isa"
	"exysim/internal/rng"
)

// allFamilies returns one representative generator per family plus the
// CBP family, for exhaustive structural checks.
func allFamilies() []Family {
	fams := []Family{}
	for _, wf := range defaultFamilies() {
		fams = append(fams, wf.fam)
	}
	fams = append(fams, CBPFamily(200))
	return fams
}

func TestEveryFamilyProducesValidTraces(t *testing.T) {
	for _, fam := range allFamilies() {
		fam := fam
		t.Run(fam.Name, func(t *testing.T) {
			s := fam.Gen(0, 20000, 2000, 0xABC)
			if s.Len() != 20000 {
				t.Fatalf("len=%d want 20000", s.Len())
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("invalid trace: %v", err)
			}
		})
	}
}

func TestGenerationDeterminism(t *testing.T) {
	for _, fam := range allFamilies() {
		a := fam.Gen(3, 8000, 800, 99)
		b := fam.Gen(3, 8000, 800, 99)
		if len(a.Insts) != len(b.Insts) {
			t.Fatalf("%s: lengths differ", fam.Name)
		}
		for i := range a.Insts {
			if a.Insts[i] != b.Insts[i] {
				t.Fatalf("%s: diverged at %d", fam.Name, i)
			}
		}
	}
}

func TestSlicesWithinFamilyDiffer(t *testing.T) {
	fam := SpecIntFamily()
	a := fam.Gen(0, 8000, 800, 99)
	b := fam.Gen(1, 8000, 800, 99)
	same := 0
	for i := range a.Insts {
		if a.Insts[i] == b.Insts[i] {
			same++
		}
	}
	if same == len(a.Insts) {
		t.Fatal("distinct slice indexes produced identical traces")
	}
}

func TestWebFamilyHasLargeIndirectFanout(t *testing.T) {
	fam := WebFamily()
	targets := map[uint64]map[uint64]struct{}{}
	foundBig := false
	for idx := 0; idx < 6 && !foundBig; idx++ {
		s := fam.Gen(idx, 60000, 0, 0xE59)
		for i := range s.Insts {
			in := &s.Insts[i]
			if in.Branch.IsIndirect() {
				m := targets[in.PC]
				if m == nil {
					m = map[uint64]struct{}{}
					targets[in.PC] = m
				}
				m[in.Target] = struct{}{}
				if len(m) >= 32 {
					foundBig = true
				}
			}
		}
	}
	if !foundBig {
		t.Fatal("web family never produced an indirect branch with >=32 targets")
	}
}

func TestChaseFamilyIsSerialAndIrregular(t *testing.T) {
	s := ChaseFamily().Gen(0, 30000, 0, 0xE59)
	st := s.Summarize()
	if st.Loads == 0 {
		t.Fatal("no loads")
	}
	// Pointer chase must touch many unique lines (working set >> cache).
	if st.UniqueLines < 1000 {
		t.Fatalf("chase touches only %d lines", st.UniqueLines)
	}
	// And the loads must form a dependence chain via the chain register.
	serial := 0
	for i := range s.Insts {
		in := &s.Insts[i]
		if in.Class == isa.Load && in.Src1 == 28 && in.Dst == 28 {
			serial++
		}
	}
	if serial < st.Loads/2 {
		t.Fatalf("only %d of %d loads are chained", serial, st.Loads)
	}
}

func TestStreamFamilyIsStrided(t *testing.T) {
	s := StreamFamily().Gen(0, 30000, 0, 0xE59)
	// Gather per-PC address deltas; the dominant delta for most load PCs
	// should repeat (stride behaviour).
	last := map[uint64]uint64{}
	deltas := map[uint64]map[int64]int{}
	total := map[uint64]int{}
	for i := range s.Insts {
		in := &s.Insts[i]
		if in.Class != isa.Load {
			continue
		}
		if prev, ok := last[in.PC]; ok {
			d := int64(in.Addr - prev)
			m := deltas[in.PC]
			if m == nil {
				m = map[int64]int{}
				deltas[in.PC] = m
			}
			m[d]++
			total[in.PC]++
		}
		last[in.PC] = in.Addr
	}
	strided := 0
	pcs := 0
	for pc, m := range deltas {
		if total[pc] < 20 {
			continue
		}
		pcs++
		best := 0
		for _, c := range m {
			if c > best {
				best = c
			}
		}
		if float64(best) >= 0.25*float64(total[pc]) {
			strided++
		}
	}
	if pcs == 0 || strided*2 < pcs {
		t.Fatalf("stream family not strided: %d of %d PCs", strided, pcs)
	}
}

func TestTightLoopFamilyHasSmallFootprint(t *testing.T) {
	s := TightLoopFamily().Gen(0, 30000, 0, 0xE59)
	st := s.Summarize()
	if st.UniquePCs > 2500 {
		t.Fatalf("tight loop code footprint too large: %d PCs", st.UniquePCs)
	}
	if st.BranchRate() < 0.03 {
		t.Fatalf("tight loop has too few branches: %v", st.BranchRate())
	}
}

func TestCallsAndReturnsBalance(t *testing.T) {
	s := SpecIntFamily().Gen(0, 40000, 0, 0xE59)
	depth, maxDepth, underflow := 0, 0, 0
	for i := range s.Insts {
		switch s.Insts[i].Branch {
		case isa.BranchCall, isa.BranchIndCall:
			depth++
			if depth > maxDepth {
				maxDepth = depth
			}
		case isa.BranchReturn:
			depth--
			if depth < 0 {
				underflow++
				depth = 0
			}
		}
	}
	if underflow > 0 {
		t.Fatalf("%d return underflows", underflow)
	}
	if maxDepth == 0 {
		t.Fatal("no calls at all")
	}
}

func TestSuiteComposition(t *testing.T) {
	slices := Suite(TinySpec)
	if len(slices) < 9 {
		t.Fatalf("suite too small: %d", len(slices))
	}
	suites := map[string]int{}
	for _, s := range slices {
		suites[s.Suite]++
		if s.Warmup <= 0 || s.Warmup >= s.Len() {
			t.Fatalf("bad warmup %d for %s", s.Warmup, s.Name)
		}
	}
	for _, want := range []string{"spec", "web", "mobile", "game", "micro"} {
		if suites[want] == 0 {
			t.Fatalf("suite %q missing", want)
		}
	}
}

func TestSuiteTracesValidate(t *testing.T) {
	for _, s := range Suite(TinySpec) {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("web/002", TinySpec)
	if err != nil {
		t.Fatal(err)
	}
	if s.Suite != "web" {
		t.Fatalf("suite=%s", s.Suite)
	}
	// Every slice Suite generates resolves by its own name.
	for _, sl := range Suite(SuiteSpec{SlicesPerFamily: 1, InstsPerSlice: 1, Seed: 1}) {
		if _, _, err := ParseSliceName(sl.Name); err != nil {
			t.Fatalf("suite slice %s: %v", sl.Name, err)
		}
	}
	for _, bad := range []string{"nosuch/001", "web", "web/", "web/x1", "web/3x", "web/-1", "cbp/0", "/1"} {
		if _, err := ByName(bad, TinySpec); err == nil {
			t.Errorf("ByName(%q): want error", bad)
		}
	}
}

func TestCBPSuiteCorrelations(t *testing.T) {
	slices := CBPSuite(2, 15000, 150, 0xE59)
	if len(slices) != 2 {
		t.Fatalf("n=%d", len(slices))
	}
	for _, s := range slices {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		st := s.Summarize()
		if st.BranchRate() < 0.12 {
			t.Fatalf("cbp branch rate too low: %v", st.BranchRate())
		}
	}
}

func TestFamiliesListed(t *testing.T) {
	names := Families()
	if len(names) != len(defaultFamilies()) {
		t.Fatalf("families=%v", names)
	}
}

func TestTakenBranchLeadStats(t *testing.T) {
	// §IV-A: across the paper's workloads the lead branch is taken ~60%
	// of the time. Our population should land in the same regime: the
	// majority of dynamic branches are taken (loops, calls, returns).
	taken, totalBr := 0, 0
	for _, s := range Suite(TinySpec) {
		for i := range s.Insts {
			in := &s.Insts[i]
			if in.Branch.IsBranch() {
				totalBr++
				if in.Taken {
					taken++
				}
			}
		}
	}
	rate := float64(taken) / float64(totalBr)
	// The synthetic population is more taken-heavy than the paper's
	// (loop kernels dominate); the regime check only guards against
	// degenerate all-taken or NT-dominated populations.
	if rate < 0.45 || rate > 0.97 {
		t.Fatalf("population taken rate %v outside plausible band", rate)
	}
}

func BenchmarkGenerateWeb(b *testing.B) {
	fam := WebFamily()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fam.Gen(i, 50000, 5000, 0xE59)
	}
}

func BenchmarkGenerateSpecInt(b *testing.B) {
	fam := SpecIntFamily()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fam.Gen(i, 50000, 5000, 0xE59)
	}
}

var _ = rng.Mix64 // keep import for doc reference
