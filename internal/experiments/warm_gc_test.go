//go:build go1.24

// The weak pointers this test checks collection with need Go 1.24; the
// module's go line is older, so the file builds only on toolchains that
// have them.

package experiments

import (
	"context"
	"runtime"
	"testing"
	"weak"

	"exysim/internal/core"
	"exysim/internal/trace"
	"exysim/internal/workload"
)

// TestPopulationTableNoMemoOutlivesPopulation sweeps more distinct
// specs than a lowered budget holds, through every lookup that finds a
// slice's digest or stream (Suite, PreDecoded, the snapshot lookups and
// ResultStore.Cover), and checks that the evicted suites' slices are
// collected. A slice no population holds never enters the index.
func TestPopulationTableNoMemoOutlivesPopulation(t *testing.T) {
	ctx := context.Background()
	gens := core.Generations()[:2]
	w := NewWarmCache()
	store := NewResultStore(0, w)
	w.pops.setBudget(populationBytes(workload.Suite(tableSpec(1))) * 5 / 2) // two suites fit

	// sweep runs spec twice (the second pass captures warm images) and
	// covers its cells, returning weak pointers to the suite's slices.
	sweep := func(seed uint64) []weak.Pointer[trace.Slice] {
		spec := tableSpec(seed)
		for pass := 0; pass < 2; pass++ {
			p, err := Run(ctx, spec, WithGenerations(gens), WithWarmSnapshots(w))
			if err != nil || len(p.Failures) != 0 {
				t.Fatalf("sweep of seed %d: %v %+v", seed, err, p.Failures)
			}
		}
		slices := w.Suite(spec)
		if c := store.Cover(gens, slices, 0); c.Misses != len(gens)*len(slices) {
			t.Fatalf("cover of seed %d: %d misses", seed, c.Misses)
		}
		ptrs := make([]weak.Pointer[trace.Slice], len(slices))
		for i, sl := range slices {
			ptrs[i] = weak.Make(sl)
		}
		return ptrs
	}
	evicted := [][]weak.Pointer[trace.Slice]{sweep(1), sweep(2)}
	for seed := uint64(3); seed <= 6; seed++ {
		sweep(seed)
	}
	st := w.Stats()
	if st.Populations != 2 || st.PopulationEvictions != 4 || st.Captures == 0 {
		t.Fatalf("%d suites resident, %d evicted, %d images captured; want 2, 4 and some", st.Populations, st.PopulationEvictions, st.Captures)
	}
	if want := 2 * len(workload.Suite(tableSpec(1))); len(w.index) != want {
		t.Fatalf("index holds %d slices, want the %d of the two resident suites", len(w.index), want)
	}
	runtime.GC()
	for s, ptrs := range evicted {
		for i, p := range ptrs {
			if p.Value() != nil {
				t.Fatalf("slice %d of evicted suite %d is still reachable", i, s+1)
			}
		}
	}

	loose := NewWarmCache()
	sl := workload.Suite(tableSpec(9))[0]
	loose.PreDecoded(sl)
	loose.PreDecoded(sl)
	NewResultStore(0, loose).Cover(gens, []*trace.Slice{sl}, 0)
	loose.admitCapture("gen", sl)
	loose.Snapshot("gen", sl)
	loose.Invalidate("gen", sl)
	if st := loose.Stats(); len(loose.index) != 0 || st.Populations != 0 || st.DecodeMisses != 2 {
		t.Fatalf("a loose slice left %d index entries and %d populations, %d decodes; want 0, 0 and 2",
			len(loose.index), st.Populations, st.DecodeMisses)
	}
}
