// The population table and the byte-charged LRU behind it: suites and
// trace populations share one budget and are evicted least recently
// used, and nothing the table memoizes for a slice outlives the
// population that holds the slice.
package experiments

import (
	"testing"

	"exysim/internal/simpoint"
	"exysim/internal/trace"
	"exysim/internal/tracestore"
	"exysim/internal/workload"
)

// TestLRUEvictsLeastRecentByBytes: past its budget the LRU evicts the
// least recently used entries, a get or a put counting as a use; a
// replaced entry is charged anew, an entry larger than the budget is
// refused, and a removal is no eviction.
func TestLRUEvictsLeastRecentByBytes(t *testing.T) {
	var evicted []string
	c := newLRU(4, func(k string, _ int) { evicted = append(evicted, k) })
	check := func(step string, n int, bytes int64, gone ...string) {
		t.Helper()
		if c.len() != n || c.bytes != bytes || c.evictions != uint64(len(gone)) || len(evicted) != len(gone) {
			t.Fatalf("%s: %d entries, %d bytes, evicted %v; want %d, %d, %v", step, c.len(), c.bytes, evicted, n, bytes, gone)
		}
		for i := range gone {
			if evicted[i] != gone[i] {
				t.Fatalf("%s: evicted %v, want %v", step, evicted, gone)
			}
		}
	}
	c.put("a", 1, 1)
	c.put("b", 2, 1)
	c.put("c", 3, 2)
	if v, ok := c.get("a"); !ok || v != 1 { // b is now the least recent
		t.Fatalf("a = %v, %v", v, ok)
	}
	c.put("d", 4, 1)
	check("fifth byte", 3, 4, "b")
	c.put("a", 10, 2) // recharged and most recent: c is the least recent
	check("recharge", 2, 3, "b", "c")
	if v, _ := c.get("a"); v != 10 {
		t.Fatalf("replaced a = %d, want 10", v)
	}
	if c.put("e", 5, 5) {
		t.Fatal("an entry larger than the budget was stored")
	}
	check("oversized", 2, 3, "b", "c")
	if !c.remove("d") || c.remove("d") {
		t.Fatal("remove did not report d stored exactly once")
	}
	check("remove", 1, 2, "b", "c")
	c.setBudget(0)
	check("budget 0", 0, 0, "b", "c", "a")
	if c.put("f", 6, 1) {
		t.Fatal("a zero budget stored an entry")
	}
}

// tableSpec is a small suite; each seed is a distinct population of
// one size.
func tableSpec(seed uint64) workload.SuiteSpec {
	return workload.SuiteSpec{SlicesPerFamily: 1, InstsPerSlice: 2_000, WarmupFrac: 0.25, Seed: seed}
}

func populationBytes(slices []*trace.Slice) int64 {
	var n int64
	for _, sl := range slices {
		n += int64(len(sl.Insts)) * instBytes
	}
	return n
}

// TestPopulationTableSharesOneBudget: a trace population and a suite
// share the table's budget, evicted least recently used. An evicted
// trace population is decoded from disk again and hit afterwards, and
// its digests are the ones its metadata carries.
func TestPopulationTableSharesOneBudget(t *testing.T) {
	store, err := tracestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	slices := workload.Suite(tableSpec(1))
	pop := tracestore.NewPopulation("table", "trace", slices, &simpoint.Result{Cfg: simpoint.DefaultConfig()})
	if err := store.Put(pop); err != nil {
		t.Fatal(err)
	}
	id := pop.Meta.ID
	loads := 0
	load := func() (*tracestore.Population, error) {
		loads++
		return store.Get(id)
	}
	w := NewWarmCache()
	w.pops.setBudget(populationBytes(slices) * 3 / 2) // one population fits, not two
	resolve := func() *tracestore.Population {
		t.Helper()
		got, err := w.Trace(id, load)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	want := func(step string, loaded int, hits, misses, evictions uint64) {
		t.Helper()
		st := w.Stats()
		if loads != loaded || st.TraceHits != hits || st.TraceMisses != misses || st.PopulationEvictions != evictions || st.Populations != 1 {
			t.Fatalf("%s: %d loads, %d hits, %d misses, %d evictions, %d resident; want %d, %d, %d, %d, 1",
				step, loads, st.TraceHits, st.TraceMisses, st.PopulationEvictions, st.Populations, loaded, hits, misses, evictions)
		}
	}
	first := resolve()
	want("first resolution", 1, 0, 1, 0)
	if resolve() != first {
		t.Fatal("a hit returned another copy of the population")
	}
	want("second resolution", 1, 1, 1, 0)
	for i, sl := range first.Slices {
		if got := w.digest(sl); got != slices[i].Digest() {
			t.Fatalf("slice %d digest %016x, want %016x", i, got, slices[i].Digest())
		}
	}

	spec := tableSpec(2)
	w.Suite(spec) // the trace population is the least recently used
	want("suite admitted", 1, 1, 1, 1)
	if len(w.index) != len(workload.Suite(spec)) {
		t.Fatalf("index holds %d slices, want only the suite's", len(w.index))
	}
	resolve() // past the budget: decoded from disk again, evicting the suite
	want("reloaded", 2, 1, 2, 2)
	resolve()
	want("hit after reload", 2, 2, 2, 2)
	if w.CachedSuite(spec) != nil {
		t.Fatal("the suite survived a trace population's reload")
	}
	if st := w.Stats(); st.SuiteMisses != 1 || st.SuiteHits != 0 {
		t.Fatalf("suite hits %d, misses %d: trace resolutions counted as suites", st.SuiteHits, st.SuiteMisses)
	}

	bad := *pop
	bad.Meta.Slices = append([]tracestore.SliceMeta(nil), pop.Meta.Slices...)
	bad.Meta.ID, bad.Meta.Slices[0].Digest = "bad", "not hex"
	if _, err := w.AdmitTrace(&bad); err == nil {
		t.Fatal("a population whose metadata carries no digest was admitted")
	}
}
