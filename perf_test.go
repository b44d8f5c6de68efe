// Guard tests for the hot-path performance properties: the steady-state
// step loop must not allocate, a guarded slice replay allocates a
// constant amount whatever its length, and population runs must be
// bit-identical regardless of worker scheduling.
package exysim

import (
	"reflect"
	"testing"

	"exysim/internal/core"
	"exysim/internal/robust"
	"exysim/internal/trace"
	"exysim/internal/workload"
)

// TestDecodedStepLoopDoesNotAllocate pins the zero-allocation property
// of the measured region: after warmup, stepping pre-decoded (inst,
// meta) pairs through the heaviest configuration (M6) performs no heap
// allocations. Every microarchitectural table is preallocated at
// construction, every prefetch engine returns requests through a reused
// buffer, and the loop indexes the shared stream instead of copying
// instructions, so a regression here means a new allocation crept into
// the per-instruction path.
func TestDecodedStepLoopDoesNotAllocate(t *testing.T) {
	g, ok := core.GenByName("M6")
	if !ok {
		t.Fatal("M6 missing")
	}
	sl, err := workload.ByName("specint/0", benchSpec)
	if err != nil {
		t.Fatal(err)
	}
	pd := sl.PreDecode()
	insts, meta := pd.Slice.Insts, pd.Meta
	sim := core.NewSimulator(g)
	c := sim.Core()
	// Warm every table, ring and reused buffer with the first half of
	// the slice.
	half := len(insts) / 2
	for i := 0; i < half; i++ {
		c.StepDecoded(&insts[i], meta[i])
	}
	pos := half
	avg := testing.AllocsPerRun(20, func() {
		// Step a window of instructions per run so the measurement
		// covers branches, loads, stores and prefetch trains.
		for i := 0; i < 512; i++ {
			c.StepDecoded(&insts[pos], meta[pos])
			pos++
			if pos == len(insts) {
				pos = half
			}
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state step loop allocates: %.1f allocs per 512-inst window, want 0", avg)
	}
}

// TestStepLoopDoesNotAllocate pins that the step entry point does not
// let its instruction argument escape: after warmup, stepping a
// stack-local copy of each instruction through M6 performs no heap
// allocations. TestDecodedStepLoopDoesNotAllocate points into the shared
// stream, which already lives on the heap, so it cannot see an escape; a
// caller that steps an instruction it built or copied (a hook, a
// generator, a streamed trace) would pay one allocation per instruction.
func TestStepLoopDoesNotAllocate(t *testing.T) {
	g, ok := core.GenByName("M6")
	if !ok {
		t.Fatal("M6 missing")
	}
	sl, err := workload.ByName("specint/0", benchSpec)
	if err != nil {
		t.Fatal(err)
	}
	meta := sl.PreDecode().Meta
	sim := core.NewSimulator(g)
	c := sim.Core()
	half := len(sl.Insts) / 2
	for i := 0; i < half; i++ {
		in := sl.Insts[i]
		c.StepDecoded(&in, meta[i])
	}
	pos := half
	avg := testing.AllocsPerRun(20, func() {
		for i := 0; i < 512; i++ {
			in := sl.Insts[pos]
			c.StepDecoded(&in, meta[pos])
			pos++
			if pos == len(sl.Insts) {
				pos = half
			}
		}
	})
	if avg != 0 {
		t.Fatalf("stepping instruction copies allocates: %.1f allocs per 512-inst window, want 0", avg)
	}
}

// TestRunGuardedAllocsConstant pins that a whole guarded replay — the
// loop behind served slice jobs — allocates a constant handful of
// objects (the pre-decoded stream, the Result's power breakdown), the
// same for a slice five times longer: nothing escapes per instruction.
// On the 50K-instruction M6 slice that is at most 8 allocations.
func TestRunGuardedAllocsConstant(t *testing.T) {
	g, ok := core.GenByName("M6")
	if !ok {
		t.Fatal("M6 missing")
	}
	long, err := workload.ByName("specint/0", benchSpec)
	if err != nil {
		t.Fatal(err)
	}
	short := &trace.Slice{Name: long.Name, Suite: long.Suite, Warmup: long.Warmup / 5, Insts: long.Insts[:len(long.Insts)/5]}
	sim := core.NewSimulator(g)
	allocs := func(sl *trace.Slice) float64 {
		return testing.AllocsPerRun(3, func() {
			sim.Reset()
			if _, fail := robust.RunGuarded(sim, sl, robust.Options{CheckInvariants: true}); fail != nil {
				t.Fatal(fail)
			}
		})
	}
	l, s := allocs(long), allocs(short)
	t.Logf("RunGuarded allocations: %.0f on %d instructions, %.0f on %d", l, len(long.Insts), s, len(short.Insts))
	if l > 8 {
		t.Errorf("RunGuarded on %d instructions allocates %.0f objects, want at most 8", len(long.Insts), l)
	}
	if l != s {
		t.Errorf("RunGuarded allocations grow with slice length: %.0f on %d instructions, %.0f on %d", l, len(long.Insts), s, len(short.Insts))
	}
}

// TestResetAndRerunDoesNotAllocate pins the reuse protocol's performance
// property: once a pooled simulator has run its first slice, recycling it
// with Reset() and replaying a whole slice performs no heap allocations.
// Reset must therefore clear every table, ring and reused buffer in
// place — a regression here means some subsystem reallocates its backing
// storage (or the co-runner RNG re-seed escapes to the heap).
func TestResetAndRerunDoesNotAllocate(t *testing.T) {
	g, ok := core.GenByName("M6")
	if !ok {
		t.Fatal("M6 missing")
	}
	sl, err := workload.ByName("specint/0", benchSpec)
	if err != nil {
		t.Fatal(err)
	}
	sim := core.NewSimulator(g)
	// First slice on the fresh simulator: grows append-managed buffers
	// (MAB list, prefetch request buffers) to their steady capacity.
	sim.Run(sl)
	c := sim.Core()
	pd := sl.PreDecode()
	insts, meta := sl.Insts, pd.Meta
	avg := testing.AllocsPerRun(5, func() {
		sim.Reset()
		for i := range insts {
			c.StepDecoded(&insts[i], meta[i])
		}
	})
	if avg != 0 {
		t.Fatalf("Reset+rerun allocates: %.1f allocs per slice, want 0", avg)
	}
}

// TestPopulationRunsDeterministic checks that two full population runs
// with the same spec produce bit-identical results even though slices
// fan out across worker goroutines in nondeterministic order. Under
// `go test -race` this also proves the workers share no mutable state.
func TestPopulationRunsDeterministic(t *testing.T) {
	spec := workload.SuiteSpec{SlicesPerFamily: 1, InstsPerSlice: 12_000, WarmupFrac: 0.25, Seed: 0xE59}
	a := popRun(t, spec)
	b := popRun(t, spec)
	if len(a.Results) != len(b.Results) {
		t.Fatalf("generation counts differ: %d vs %d", len(a.Results), len(b.Results))
	}
	for g := range a.Results {
		for s := range a.Results[g] {
			ra, rb := a.Results[g][s], b.Results[g][s]
			if !reflect.DeepEqual(ra, rb) {
				t.Errorf("gen %s slice %s: results differ between identical runs:\n  first:  %+v\n  second: %+v",
					a.Gens[g].Name, a.Slices[s].Name, ra, rb)
			}
		}
	}
}
