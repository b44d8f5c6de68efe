package experiments

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"exysim/internal/core"
	"exysim/internal/trace"
	"exysim/internal/workload"
)

// TestWarmAdmissionOneShotStoresNoImage: a configuration swept once
// captures nothing and leaves no image in the cache — every pair's
// warmup is its first — and its results match a sweep without a cache.
func TestWarmAdmissionOneShotStoresNoImage(t *testing.T) {
	ctx := context.Background()
	spec := workload.SuiteSpec{SlicesPerFamily: 1, InstsPerSlice: 4_000, WarmupFrac: 0.25, Seed: 0xE59}
	want, err := Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewWarmCache()
	got, err := Run(ctx, spec, WithWarmSnapshots(warm))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Fatal("one-shot warm-cached sweep differs from a plain sweep")
	}
	st := warm.Stats()
	if st.Captures != 0 || st.SnapshotEntries != 0 || st.SnapshotBytes != 0 {
		t.Fatalf("one-shot sweep left %d captures, %d images, %d bytes; want none",
			st.Captures, st.SnapshotEntries, st.SnapshotBytes)
	}
	if pairs := uint64(len(got.Gens) * len(got.Slices)); st.CaptureSkips != pairs {
		t.Fatalf("capture skips = %d, want one per pair (%d)", st.CaptureSkips, pairs)
	}
}

// TestWarmAdmissionSeenSetBounded: first sightings past maxSeenPairs
// displace older ones instead of growing the "seen once" set, and a
// pair seen a second time is admitted and leaves it.
func TestWarmAdmissionSeenSetBounded(t *testing.T) {
	w := NewWarmCache()
	sl := &trace.Slice{Name: "probe/000", Warmup: 1}
	n := maxSeenPairs + 100
	for i := 0; i < n; i++ {
		if w.admitCapture(fmt.Sprint(i), sl) {
			t.Fatalf("pair %d admitted on its first warmup", i)
		}
	}
	if got := w.seen.len(); got > maxSeenPairs {
		t.Fatalf("seen set holds %d pairs, bound is %d", got, maxSeenPairs)
	}
	if got := w.Stats().CaptureSkips; got != uint64(n) {
		t.Fatalf("capture skips = %d, want %d", got, n)
	}
	// The newest sighting is never the one displaced.
	last := fmt.Sprint(n - 1)
	before := w.seen.len()
	if !w.admitCapture(last, sl) {
		t.Fatal("pair not admitted on its second warmup")
	}
	if w.seen.len() != before-1 {
		t.Fatalf("admitted pair still in the seen set (%d → %d entries)", before, w.seen.len())
	}
}

// TestSimPoolBoundKeepsSevenConfigs: simulators of more than
// maxPooledConfigs configurations leave at most maxPooledConfigs of them
// idle. The configuration used least recently loses its idle simulators
// first, and Evictions counts each one dropped.
func TestSimPoolBoundKeepsSevenConfigs(t *testing.T) {
	if maxPooledConfigs != len(core.Generations())+1 {
		t.Fatalf("bound = %d, want the shipped generations plus one", maxPooledConfigs)
	}
	// Distinct names make distinct configurations of one cheap core.
	cfgs := make([]core.GenConfig, maxPooledConfigs+2)
	for i := range cfgs {
		cfgs[i] = core.Generations()[0]
		cfgs[i].Name = fmt.Sprintf("P%d", i)
	}
	pool := NewSimPool()
	for i, c := range cfgs[:maxPooledConfigs] {
		if i == 1 {
			// Config 1 holds two idle simulators.
			a := pool.Get(c)
			pool.Put(pool.Get(c))
			pool.Put(a)
			continue
		}
		pool.Put(pool.Get(c))
	}
	// Using config 0 again leaves config 1 the least recently used.
	pool.Put(pool.Get(cfgs[0]))
	if pool.Evictions() != 0 || pool.Idle() != maxPooledConfigs+1 {
		t.Fatalf("within the bound: %d evictions, %d idle", pool.Evictions(), pool.Idle())
	}

	pool.Put(pool.Get(cfgs[maxPooledConfigs]))
	if _, ok := pool.idle[poolKey(cfgs[1])]; ok {
		t.Fatal("the least recently used configuration kept its idle simulators")
	}
	if _, ok := pool.idle[poolKey(cfgs[0])]; !ok {
		t.Fatal("a recently used configuration was evicted")
	}
	if pool.Evictions() != 2 {
		t.Fatalf("evictions = %d, want config 1's two simulators", pool.Evictions())
	}

	pool.Put(pool.Get(cfgs[maxPooledConfigs+1]))
	if got := len(pool.idle); got != maxPooledConfigs {
		t.Fatalf("%d configurations idle, bound is %d", got, maxPooledConfigs)
	}
	if pool.Evictions() != 3 || pool.Idle() != maxPooledConfigs {
		t.Fatalf("after a ninth configuration: %d evictions, %d idle", pool.Evictions(), pool.Idle())
	}
	if _, ok := pool.idle[poolKey(cfgs[2])]; ok {
		t.Fatal("config 2, now least recently used, kept its idle simulator")
	}
}

// TestSimPoolBoundSparesShippedGenerations: what-ifs passing through a
// pool that holds the shipped generations evict each other, never a
// shipped generation, however long ago it was last used.
func TestSimPoolBoundSparesShippedGenerations(t *testing.T) {
	pool := NewSimPool()
	shipped := core.Generations()
	for _, g := range shipped {
		pool.Put(pool.Get(g))
	}
	for i := 0; i < 3; i++ {
		c := shipped[0]
		c.Name = fmt.Sprintf("W%d", i)
		pool.Put(pool.Get(c))
	}
	for _, g := range shipped {
		if _, ok := pool.idle[poolKey(g)]; !ok {
			t.Fatalf("shipped generation %s was evicted for a what-if", g.Name)
		}
	}
	if pool.Evictions() != 2 || len(pool.idle) != maxPooledConfigs {
		t.Fatalf("%d evictions, %d configurations idle: want the two older what-ifs gone", pool.Evictions(), len(pool.idle))
	}
}
