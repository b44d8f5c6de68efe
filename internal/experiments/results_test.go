package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"exysim/internal/core"
	"exysim/internal/robust"
	"exysim/internal/robust/faultinject"
	"exysim/internal/workload"
)

// TestResultStoreEvictsLRU: past its byte budget the store evicts the
// least recently used cells, a lookup counting as a use; a negative
// budget disables it and 0 takes the default.
func TestResultStoreEvictsLRU(t *testing.T) {
	key := func(i int) CellKey { return CellKey{Gen: "0123456789abcdef", Slice: uint64(i)} }
	res := func(i int) core.Result {
		return core.Result{Gen: "M1", Slice: fmt.Sprintf("web/%d", i), Insts: uint64(i)}
	}
	const cell = CellBytes
	st := NewResultStore(3*cell, nil)
	for i := 0; i < 3; i++ {
		st.Put(key(i), res(i))
	}
	if _, ok := st.Get(key(0)); !ok { // cell 0 is now the most recent
		t.Fatal("cell 0 evicted within the budget")
	}
	st.Put(key(3), res(3)) // evicts cell 1, the least recently used
	if _, ok := st.Get(key(1)); ok {
		t.Fatal("cell 1 survived: eviction is not least-recently-used")
	}
	for _, i := range []int{0, 2, 3} {
		if r, ok := st.Get(key(i)); !ok || r.Insts != uint64(i) {
			t.Fatalf("cell %d: %+v, %v", i, r, ok)
		}
	}
	if cells, evictions := st.Stats(); cells != 3 || evictions != 1 {
		t.Fatalf("%d cells, %d evictions; want 3 and 1", cells, evictions)
	}

	off := NewResultStore(-1, nil)
	off.Put(key(0), res(0))
	if _, ok := off.Get(key(0)); ok {
		t.Fatal("a disabled store kept a cell")
	}
	if NewResultStore(0, nil).cells.budget != DefaultResultBudget {
		t.Fatal("budget 0 is not the default")
	}
}

// TestResultStoreCoverAcrossPartitions: an empty store's cover is
// exactly PlanShards' plan; once the computed documents are kept, a
// cover of another shard width holds every cell and merges to the
// single-process summary byte for byte. A quarantined document keeps
// nothing, so the next cover plans just its cells.
func TestResultStoreCoverAcrossPartitions(t *testing.T) {
	ctx := context.Background()
	spec := shardSpec.Normalize()
	gens := core.Generations()[:3]
	slices := workload.Suite(spec)
	ref, err := Run(ctx, spec, WithGenerations(gens))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(ref.SummaryDoc())

	st := NewResultStore(0, nil)
	cold := st.Cover(gens, slices, 4)
	if !reflect.DeepEqual(cold.Units, PlanShards(len(gens), len(slices), 4)) || cold.Hits != 0 {
		t.Fatalf("cold cover %v (%d hits), want PlanShards' plan", cold.Units, cold.Hits)
	}
	docs, err := RunShards(ctx, spec, cold.Units, WithGenerations(gens), WithResultHooks(func(g, s int) robust.ResultHook {
		if g == 1 && s == 5 {
			return faultinject.NaNIPC
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		cold.Keep(d)
	}

	warm := st.Cover(gens, slices, 3)
	if want := len(gens)*len(slices) - 4; warm.Hits != want || warm.Misses != 4 {
		t.Fatalf("cover after a quarantine: %d hits, %d misses; want %d and the quarantined shard's 4", warm.Hits, warm.Misses, want)
	}
	var missing []Shard
	for i, d := range warm.Docs {
		if d == nil {
			missing = append(missing, warm.Units[i])
		}
	}
	if !reflect.DeepEqual(missing, []Shard{{Gen: 1, Lo: 4, Hi: 7}, {Gen: 1, Lo: 7, Hi: 8}}) {
		t.Fatalf("planned %v, want the quarantined shard's cells [4, 8) of generation 1 in runs of 3", missing)
	}
	redo, err := RunShards(ctx, spec, missing, WithGenerations(gens))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range redo {
		warm.Keep(d)
	}

	full := st.Cover(gens, slices, 0)
	if full.Misses != 0 || len(full.Units) != len(gens) {
		t.Fatalf("full cover: %d misses over %v", full.Misses, full.Units)
	}
	p, err := MergeShards(spec, gens, slices, full.Docs)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(p.SummaryDoc()); !bytes.Equal(got, want) {
		t.Fatalf("merge of stored cells differs from Run:\n  want %s\n  got  %s", want, got)
	}
}

// TestResultStoreConcurrentCovers: covers, keeps and one-cell lookups
// from several goroutines at once leave every cell stored with the
// result computed for it. Run under -race.
func TestResultStoreConcurrentCovers(t *testing.T) {
	gens := core.Generations()
	slices := workload.Suite(shardSpec)
	st := NewResultStore(0, nil)
	fake := func(g, s int) core.Result { return core.Result{Gen: gens[g].Name, Insts: uint64(1000*g + s)} }
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				c := st.Cover(gens[w%3:], slices, 1+(w+round)%4)
				for i, d := range c.Docs {
					if d != nil {
						continue
					}
					u := c.Units[i]
					doc := &ShardDoc{Gen: u.Gen, SliceLo: u.Lo, SliceHi: u.Hi}
					for s := u.Lo; s < u.Hi; s++ {
						doc.Results = append(doc.Results, fake(w%3+u.Gen, s))
					}
					c.Keep(doc)
				}
				st.Get(CellKey{Gen: "none", Slice: uint64(round)})
				st.Put(CellKey{Gen: "none", Slice: uint64(w)}, core.Result{})
			}
		}(w)
	}
	wg.Wait()
	c := st.Cover(gens, slices, 0)
	if c.Misses != 0 {
		t.Fatalf("%d cells missing after the concurrent covers", c.Misses)
	}
	for _, d := range c.Docs {
		for i, r := range d.Results {
			if want := fake(d.Gen, d.SliceLo+i); r.Insts != want.Insts || r.Gen != want.Gen {
				t.Fatalf("cell (%d, %d) holds %+v, want %+v", d.Gen, d.SliceLo+i, r, want)
			}
		}
	}
}
