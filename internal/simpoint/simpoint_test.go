package simpoint

import (
	"math"
	"testing"

	"exysim/internal/core"
	"exysim/internal/isa"
	"exysim/internal/trace"
	"exysim/internal/workload"
)

// twoPhaseTrace builds a trace alternating between two distinct code
// phases, each phaseLen instructions: phase A is a tight loop over one
// block, phase B a tight loop over a different block.
func twoPhaseTrace(phases, phaseLen int) *trace.Slice {
	var insts []isa.Inst
	emitLoop := func(base uint64, n int) {
		for len(insts)%phaseLen != phaseLen-1 && n > 1 {
			insts = append(insts, isa.Inst{PC: base, Class: isa.ALUSimple, Dst: 1, Src1: 1})
			insts = append(insts, isa.Inst{PC: base + 4, Class: isa.Branch, Branch: isa.BranchCond, Taken: true, Target: base})
			n -= 2
		}
		// Exit the loop to keep control flow consistent.
		insts = append(insts, isa.Inst{PC: base, Class: isa.ALUSimple, Dst: 1, Src1: 1})
	}
	for p := 0; p < phases; p++ {
		base := uint64(0x1000)
		if p%2 == 1 {
			base = 0x90000
		}
		start := len(insts)
		for len(insts)-start < phaseLen-2 {
			insts = append(insts, isa.Inst{PC: base, Class: isa.ALUSimple, Dst: 1, Src1: 1})
			insts = append(insts, isa.Inst{PC: base + 4, Class: isa.Branch, Branch: isa.BranchCond, Taken: true, Target: base})
		}
		// Jump to the next phase's base.
		next := uint64(0x90000)
		if p%2 == 1 || p == phases-1 {
			next = 0x1000
		}
		insts = append(insts, isa.Inst{PC: base, Class: isa.ALUSimple, Dst: 1, Src1: 1})
		insts = append(insts, isa.Inst{PC: base + 4, Class: isa.Branch, Branch: isa.BranchUncond, Taken: true, Target: next})
	}
	_ = emitLoop
	return &trace.Slice{Name: "twophase", Suite: "unit", Insts: insts}
}

func TestAnalyzeFindsTwoPhases(t *testing.T) {
	sl := twoPhaseTrace(8, 10_000)
	cfg := DefaultConfig()
	cfg.IntervalInsts = 10_000
	res, err := Analyze(sl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 2 {
		t.Fatalf("found %d phases, want 2 (assignment %v)", res.K, res.Assignment)
	}
	// Alternating phases must alternate cluster assignments.
	for i := 2; i < res.Intervals; i++ {
		if res.Assignment[i] != res.Assignment[i-2] {
			t.Fatalf("phase pattern broken at interval %d: %v", i, res.Assignment)
		}
	}
	if len(res.Picks) != 2 {
		t.Fatalf("picks %v", res.Picks)
	}
	wsum := 0.0
	for _, p := range res.Picks {
		wsum += p.Weight
	}
	if math.Abs(wsum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", wsum)
	}
}

func TestAnalyzeUniformTraceOnePhase(t *testing.T) {
	sl := twoPhaseTrace(1, 80_000)
	cfg := DefaultConfig()
	res, err := Analyze(sl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 1 {
		t.Fatalf("uniform trace found %d phases", res.K)
	}
}

func TestAnalyzeRejectsShortTrace(t *testing.T) {
	sl := twoPhaseTrace(1, 5_000)
	cfg := DefaultConfig()
	if _, err := Analyze(sl, cfg); err == nil {
		t.Fatal("expected error for single-interval trace")
	}
	if _, err := Analyze(sl, Config{}); err == nil {
		t.Fatal("expected error for invalid config")
	}
}

func TestExtractStructure(t *testing.T) {
	sl := twoPhaseTrace(6, 10_000)
	cfg := DefaultConfig()
	res, err := Analyze(sl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Picks {
		ex := Extract(sl, p, cfg)
		if p.Interval > 0 && ex.Warmup != cfg.IntervalInsts {
			t.Fatalf("pick %v: warmup %d", p, ex.Warmup)
		}
		if ex.Len() > 2*cfg.IntervalInsts {
			t.Fatalf("extract too long: %d", ex.Len())
		}
	}
}

func TestWeightedEstimateApproximatesFullRun(t *testing.T) {
	// SimPoint's promise: simulating only the representatives, weighted
	// by phase population, approximates the full-trace metric. Use a
	// real workload slice and IPC on M3.
	full := workload.SpecIntFamily().Gen(0, 120_000, 0, 0xE59)
	cfg := DefaultConfig()
	cfg.IntervalInsts = 10_000
	res, err := Analyze(full, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := core.GenByName("M3")
	fullRun := core.RunSlice(gen, &trace.Slice{Name: full.Name, Suite: full.Suite, Warmup: 10_000, Insts: full.Insts})
	metrics := make([]float64, len(res.Picks))
	for i, p := range res.Picks {
		ex := Extract(full, p, cfg)
		metrics[i] = core.RunSlice(gen, ex).IPC
	}
	est, err := WeightedEstimate(res.Picks, metrics)
	if err != nil {
		t.Fatal(err)
	}
	relErr := math.Abs(est-fullRun.IPC) / fullRun.IPC
	t.Logf("full IPC %.3f, simpoint estimate %.3f (K=%d, %d picks, rel err %.1f%%)",
		fullRun.IPC, est, res.K, len(res.Picks), relErr*100)
	if relErr > 0.25 {
		t.Fatalf("simpoint estimate off by %.1f%%", relErr*100)
	}
}

func TestWeightedEstimateValidation(t *testing.T) {
	// A length mismatch is reachable from served requests: it must come
	// back as an error, never a panic.
	if _, err := WeightedEstimate([]Pick{{Weight: 1}}, nil); err == nil {
		t.Fatal("expected error on length mismatch")
	}
	if est, err := WeightedEstimate(nil, nil); err != nil || est != 0 {
		t.Fatalf("empty inputs: est=%v err=%v", est, err)
	}
	// All-zero weights must not divide by zero.
	if est, err := WeightedEstimate([]Pick{{Weight: 0}}, []float64{5}); err != nil || est != 0 {
		t.Fatalf("zero weights: est=%v err=%v", est, err)
	}
}

func TestItoa(t *testing.T) {
	cases := map[int]string{0: "0", 7: "7", 42: "42", 1000: "1000", -1: "-1", -9307: "-9307"}
	for v, want := range cases {
		if got := itoa(v); got != want {
			t.Fatalf("itoa(%d) = %q, want %q", v, got, want)
		}
	}
}

func TestAnalyzeExcludesWarmupPrefix(t *testing.T) {
	// Regression: warmup instructions must not contribute to BBVs or
	// shift interval boundaries. A trace whose warmup prefix is pure
	// phase-A noise prepended to a clean two-phase body must analyze
	// identically to the body alone.
	body := twoPhaseTrace(8, 10_000)
	warm := twoPhaseTrace(1, 10_000) // one phase-A interval as prefix
	combined := &trace.Slice{
		Name:   body.Name,
		Suite:  body.Suite,
		Warmup: len(warm.Insts),
		Insts:  append(append([]isa.Inst{}, warm.Insts...), body.Insts...),
	}
	cfg := DefaultConfig()
	want, err := Analyze(body, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Analyze(combined, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Intervals != want.Intervals || got.K != want.K {
		t.Fatalf("warmup prefix changed analysis: got %d intervals K=%d, want %d intervals K=%d",
			got.Intervals, got.K, want.Intervals, want.K)
	}
	for i := range want.Assignment {
		if got.Assignment[i] != want.Assignment[i] {
			t.Fatalf("warmup prefix shifted interval %d assignment: %v vs %v",
				i, got.Assignment, want.Assignment)
		}
	}
	for i := range want.Picks {
		if got.Picks[i] != want.Picks[i] {
			t.Fatalf("warmup prefix changed pick %d: %+v vs %+v", i, got.Picks[i], want.Picks[i])
		}
	}
}

func TestExtractCopiesAndCarriesWeight(t *testing.T) {
	sl := twoPhaseTrace(6, 10_000)
	cfg := DefaultConfig()
	res, err := Analyze(sl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Picks {
		ex := Extract(sl, p, cfg)
		if ex.Weight != p.Weight || ex.Cluster != p.Cluster {
			t.Fatalf("pick %+v not carried onto slice: weight=%v cluster=%d", p, ex.Weight, ex.Cluster)
		}
		// Regression: the extracted slice must not alias the parent's
		// backing array — each pick would otherwise pin the whole source
		// trace in memory.
		start := sl.Warmup + p.Interval*cfg.IntervalInsts
		if start >= cfg.IntervalInsts {
			start -= cfg.IntervalInsts
		}
		orig := sl.Insts[start]
		sl.Insts[start].PC ^= 0xDEAD0000
		if ex.Insts[0].PC == sl.Insts[start].PC {
			t.Fatal("extracted slice aliases the parent trace's backing array")
		}
		sl.Insts[start] = orig
	}
}

// sliceReader streams an in-memory instruction slice through the
// trace.Reader interface the streaming passes consume.
type sliceReader struct {
	insts []isa.Inst
	pos   int
}

func (r *sliceReader) Next() (isa.Inst, error) {
	if r.pos == len(r.insts) {
		return isa.Inst{}, trace.ErrEnd
	}
	r.pos++
	return r.insts[r.pos-1], nil
}

func TestAnalyzeStreamMatchesAnalyze(t *testing.T) {
	sl := twoPhaseTrace(8, 10_000)
	cfg := DefaultConfig()
	want, err := Analyze(sl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AnalyzeStream(&sliceReader{insts: sl.Insts}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != want.K || got.Intervals != want.Intervals || got.TotalInsts != want.TotalInsts {
		t.Fatalf("stream analysis diverged: %+v vs %+v", got, want)
	}
	for i := range want.Assignment {
		if got.Assignment[i] != want.Assignment[i] {
			t.Fatal("stream assignment diverged")
		}
	}
}

func TestExtractStreamMatchesExtract(t *testing.T) {
	sl := twoPhaseTrace(8, 10_000)
	cfg := DefaultConfig()
	res, err := Analyze(sl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExtractStream(&sliceReader{insts: sl.Insts}, res, sl.Name, sl.Suite)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(res.Picks) {
		t.Fatalf("got %d slices, want %d", len(got), len(res.Picks))
	}
	byName := map[string]*trace.Slice{}
	for _, g := range got {
		byName[g.Name] = g
	}
	for _, p := range res.Picks {
		want := Extract(sl, p, cfg)
		g, ok := byName[want.Name]
		if !ok {
			t.Fatalf("missing extracted slice %q", want.Name)
		}
		if g.Digest() != want.Digest() {
			t.Fatalf("streamed extraction of %q diverged from in-memory Extract", want.Name)
		}
	}
}

func TestExtractStreamTruncatedRereadFails(t *testing.T) {
	sl := twoPhaseTrace(8, 10_000)
	cfg := DefaultConfig()
	res, err := Analyze(sl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One interval of stream: at most the interval-0 pick can complete,
	// and any analysis yields at least two distinct picked intervals here.
	short := &sliceReader{insts: sl.Insts[:cfg.IntervalInsts]}
	if _, err := ExtractStream(short, res, sl.Name, sl.Suite); err == nil {
		t.Fatal("expected error when the re-read stream is shorter than the analysis pass")
	}
}

func TestDeterministicAnalysis(t *testing.T) {
	sl := twoPhaseTrace(6, 10_000)
	cfg := DefaultConfig()
	a, _ := Analyze(sl, cfg)
	b, _ := Analyze(sl, cfg)
	if a.K != b.K {
		t.Fatal("nondeterministic K")
	}
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			t.Fatal("nondeterministic assignment")
		}
	}
}
