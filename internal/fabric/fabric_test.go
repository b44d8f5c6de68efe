package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"exysim/internal/core"
	"exysim/internal/experiments"
	"exysim/internal/robust"
	"exysim/internal/robust/faultinject"
	"exysim/internal/workload"
)

var tinySpec = workload.SuiteSpec{SlicesPerFamily: 1, InstsPerSlice: 2_000, WarmupFrac: 0.25, Seed: 0xFA6}

func simRun(ctx context.Context, job ShardJob) ([]*experiments.ShardDoc, error) {
	if job.Trace != "" {
		return nil, errors.New("simRun cannot resolve trace populations")
	}
	var opts []experiments.Option
	if len(job.Gens) > 0 {
		opts = append(opts, experiments.WithGenerations(job.Gens))
	}
	if job.Progress != nil {
		opts = append(opts, experiments.WithProgressFunc(func(done, _ int, _ uint64) { job.Progress(done) }))
	}
	return experiments.RunShards(ctx, job.Spec, job.Units, opts...)
}

func refSummary(t *testing.T, spec workload.SuiteSpec) []byte {
	t.Helper()
	ref, err := experiments.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(ref.SummaryDoc())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFabricSweepAcrossWorkersBitIdentical drives the full in-process
// path: two workers lease real shards, compute them, and the merged
// sweep is byte-identical to a single-process run. A second submit of
// the same spec must be served entirely from the shard cache.
func TestFabricSweepAcrossWorkersBitIdentical(t *testing.T) {
	spec := tinySpec.Normalize()
	want := refSummary(t, spec)

	c := NewCoordinator(Config{LeaseTTL: 2 * time.Second, Poll: 5 * time.Millisecond, ShardSlices: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := NewWorker(c, "test", simRun)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}

	run, err := c.Submit(ctx, SubmitReq{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(run.SummaryDoc())
	if !bytes.Equal(got, want) {
		t.Fatalf("fabric sweep differs from single-process run:\n  want: %s\n  got:  %s", want, got)
	}

	st := c.Stats()
	if st.WorkersJoined != 2 {
		t.Fatalf("workers joined = %d, want 2", st.WorkersJoined)
	}
	if st.ShardsCompleted != st.ShardsPlanned || st.ShardsPlanned == 0 {
		t.Fatalf("completed %d of %d planned shards", st.ShardsCompleted, st.ShardsPlanned)
	}
	if st.CacheEntries == 0 {
		t.Fatal("completed shards not cached")
	}

	// Same spec again: every shard is a cache hit, no new simulation.
	run2, err := c.Submit(ctx, SubmitReq{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	got2, _ := json.Marshal(run2.SummaryDoc())
	if !bytes.Equal(got2, want) {
		t.Fatal("cache-served sweep differs from single-process run")
	}
	st2 := c.Stats()
	if st2.CacheHits < st.ShardsPlanned {
		t.Fatalf("cache hits = %d, want >= %d", st2.CacheHits, st.ShardsPlanned)
	}
	if st2.ShardsCompleted != 2*st.ShardsPlanned {
		t.Fatalf("second sweep recomputed shards: completed %d, want %d", st2.ShardsCompleted, 2*st.ShardsPlanned)
	}
	cancel()
	wg.Wait()
}

// TestFabricLocalFallback submits with zero workers: the pump's local
// fallback must complete the sweep, still bit-identical.
func TestFabricLocalFallback(t *testing.T) {
	spec := tinySpec.Normalize()
	want := refSummary(t, spec)

	c := NewCoordinator(Config{Poll: time.Millisecond, ShardSlices: 0})
	run, err := c.Submit(context.Background(), SubmitReq{Spec: spec, Local: simRun})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(run.SummaryDoc())
	if !bytes.Equal(got, want) {
		t.Fatal("local-fallback sweep differs from single-process run")
	}
	if st := c.Stats(); st.LocalRuns == 0 || st.WorkersLive != 0 {
		t.Fatalf("fallback stats: %+v", st)
	}
}

// TestFabricLocalBatchWithoutWorkers: with no worker live, Submit
// hands every shard the cache does not hold to the local runner in one
// call, without waiting for a Poll tick (an hour here). Progress counts
// cells — the cached ones at planning — and ShardWall samples only the
// computed shards.
func TestFabricLocalBatchWithoutWorkers(t *testing.T) {
	spec := tinySpec.Normalize()
	want := refSummary(t, spec)
	gens := core.Generations()
	slices := workload.Suite(spec)
	c := NewCoordinator(Config{Poll: time.Hour, ShardSlices: 4})
	var mu sync.Mutex
	var calls []ShardJob
	local := func(ctx context.Context, job ShardJob) ([]*experiments.ShardDoc, error) {
		mu.Lock()
		calls = append(calls, job)
		mu.Unlock()
		return simRun(ctx, job)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Seed the shard cache with the first three generations.
	if _, err := c.Submit(ctx, SubmitReq{Spec: spec, Gens: gens[:3], Slices: slices, Local: local}); err != nil {
		t.Fatal(err)
	}
	seeded := c.Stats()
	if seeded.CacheEntries == 0 || int(seeded.ShardWall.N()) != seeded.CacheEntries {
		t.Fatalf("seeding sweep: %d shards cached, %d wall samples", seeded.CacheEntries, seeded.ShardWall.N())
	}

	calls = nil
	var reports [][2]int
	run, err := c.Submit(ctx, SubmitReq{Spec: spec, Slices: slices, Local: local, OnProgress: func(done, total int) {
		reports = append(reports, [2]int{done, total})
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(run.SummaryDoc()); !bytes.Equal(got, want) {
		t.Fatalf("local-batch sweep differs from single-process run:\n  want: %s\n  got:  %s", want, got)
	}

	// One call, carrying exactly the shards of generations 3..5.
	var uncached []experiments.Shard
	for _, sh := range experiments.PlanShards(len(gens), len(slices), 4) {
		if sh.Gen >= 3 {
			uncached = append(uncached, sh)
		}
	}
	if len(calls) != 1 || !reflect.DeepEqual(calls[0].Units, uncached) {
		t.Fatalf("local runner calls: %+v, want one with units %v", calls, uncached)
	}
	st := c.Stats()
	if hits := st.CacheHits - seeded.CacheHits; hits != uint64(seeded.CacheEntries) {
		t.Fatalf("cache hits = %d, want the %d seeded shards", hits, seeded.CacheEntries)
	}
	if st.LocalRuns != 2 {
		t.Fatalf("local runs = %d, want one per sweep", st.LocalRuns)
	}
	if n := int(st.ShardWall.N()); n != seeded.CacheEntries+len(uncached) {
		t.Fatalf("shard wall samples = %d, want %d computed shards (cache hits add none)", n, seeded.CacheEntries+len(uncached))
	}

	cells := len(gens) * len(slices)
	if len(reports) == 0 || reports[0] != [2]int{3 * len(slices), cells} || reports[len(reports)-1] != [2]int{cells, cells} {
		t.Fatalf("progress reports %v: want %d/%d cached at planning, %d/%d at the end", reports, 3*len(slices), cells, cells, cells)
	}
	for i := 1; i < len(reports); i++ {
		if reports[i][0] < reports[i-1][0] {
			t.Fatalf("progress went backwards: %v", reports)
		}
	}
}

// TestFabricCachesCleanShardsOnly: a shard whose run quarantined a pair
// is not cached, so the next identical sweep recomputes that shard,
// comes back clean, and takes every other shard from the cache.
func TestFabricCachesCleanShardsOnly(t *testing.T) {
	spec := tinySpec.Normalize()
	want := refSummary(t, spec)
	c := NewCoordinator(Config{Poll: time.Hour, ShardSlices: 4})
	var faulted atomic.Bool
	local := func(ctx context.Context, job ShardJob) ([]*experiments.ShardDoc, error) {
		if faulted.Swap(true) {
			return simRun(ctx, job)
		}
		// The first batch quarantines one pair: a transient fault.
		return experiments.RunShards(ctx, job.Spec, job.Units, experiments.WithResultHooks(func(g, s int) robust.ResultHook {
			if g == 2 && s == 5 {
				return faultinject.NaNIPC
			}
			return nil
		}))
	}
	first, err := c.Submit(context.Background(), SubmitReq{Spec: spec, Local: local})
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Failures) != 1 {
		t.Fatalf("first sweep failures = %d, want the injected quarantine", len(first.Failures))
	}
	st := c.Stats()
	if st.CacheEntries != int(st.ShardsPlanned)-1 {
		t.Fatalf("cached %d of %d shards, want all but the quarantined one", st.CacheEntries, st.ShardsPlanned)
	}

	second, err := c.Submit(context.Background(), SubmitReq{Spec: spec, Local: local})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(second.SummaryDoc()); !bytes.Equal(got, want) {
		t.Fatalf("resweep differs from a clean single-process run:\n  want: %s\n  got:  %s", want, got)
	}
	st2 := c.Stats()
	if hits := st2.CacheHits - st.CacheHits; hits != uint64(st.CacheEntries) {
		t.Fatalf("resweep cache hits = %d, want %d", hits, st.CacheEntries)
	}
	if st2.CacheEntries != int(st.ShardsPlanned) {
		t.Fatalf("after the clean recompute %d shards cached, want %d", st2.CacheEntries, st.ShardsPlanned)
	}
}

// fakeDoc builds a structurally valid (all-zero) shard document for
// protocol tests that never run the simulator.
func fakeDoc(g *Grant, gens []core.GenConfig) *experiments.ShardDoc {
	return &experiments.ShardDoc{
		SchemaVersion: experiments.ResultsSchemaVersion,
		Digest:        g.Digest,
		Gen:           g.Unit.Gen,
		GenName:       gens[g.Unit.Gen].Name,
		SliceLo:       g.Unit.Lo,
		SliceHi:       g.Unit.Hi,
		Results:       make([]core.Result, g.Unit.Hi-g.Unit.Lo),
	}
}

// leaseWithin leases for workerID with parked waits until a grant
// arrives, failing the test after budget.
func leaseWithin(t *testing.T, c *Coordinator, workerID string, budget time.Duration) *Grant {
	t.Helper()
	for deadline := time.Now().Add(budget); time.Now().Before(deadline); {
		g, err := c.Lease(context.Background(), workerID, time.Until(deadline))
		if err != nil {
			t.Fatal(err)
		}
		if g != nil {
			return g
		}
	}
	t.Fatalf("worker %s got no lease within %v", workerID, budget)
	return nil
}

// TestFabricLeaseExpiryStealAndDuplicate exercises the failure
// protocol without simulating: worker A leases a shard and goes
// silent, the lease expires, worker B steals and completes it, and A's
// late duplicate completion is absorbed.
func TestFabricLeaseExpiryStealAndDuplicate(t *testing.T) {
	spec := tinySpec.Normalize()
	gens := core.Generations()
	c := NewCoordinator(Config{
		LeaseTTL:    40 * time.Millisecond,
		EvictAfter:  10 * time.Minute, // keep A a member: isolate lease expiry from eviction
		StealAge:    10 * time.Minute, // no duplicate grants of live leases
		Poll:        5 * time.Millisecond,
		ShardSlices: 0,
	})

	var (
		runErr  error
		runDone = make(chan struct{})
	)
	go func() {
		defer close(runDone)
		_, runErr = c.Submit(context.Background(), SubmitReq{Spec: spec})
	}()

	a, err := c.Join(JoinRequest{Name: "a", GensetDigest: GensetDigest()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Join(JoinRequest{Name: "b"})
	if err != nil {
		t.Fatal(err)
	}

	// A takes one shard and goes silent.
	ga := leaseWithin(t, c, a.WorkerID, 10*time.Second)
	time.Sleep(60 * time.Millisecond) // past LeaseTTL with no heartbeat

	// B drains the whole sweep, including A's expired shard.
	gotStolen := false
	for {
		g, err := c.Lease(context.Background(), b.WorkerID, 0)
		if err != nil {
			t.Fatal(err)
		}
		if g == nil {
			break
		}
		if g.SweepID == ga.SweepID && g.Shard == ga.Shard {
			gotStolen = true
		}
		if err := c.Complete(CompleteRequest{WorkerID: b.WorkerID, SweepID: g.SweepID, Shard: g.Shard, Doc: fakeDoc(g, gens)}); err != nil {
			t.Fatal(err)
		}
	}
	if !gotStolen {
		t.Fatal("A's expired shard was never re-granted to B")
	}

	<-runDone
	if runErr != nil {
		t.Fatalf("sweep failed: %v", runErr)
	}

	// A finally finishes its stolen shard: absorbed, not an error.
	if err := c.Complete(CompleteRequest{WorkerID: a.WorkerID, SweepID: ga.SweepID, Shard: ga.Shard, Doc: fakeDoc(ga, gens)}); err != nil {
		t.Fatalf("late duplicate complete: %v", err)
	}

	st := c.Stats()
	if st.LeasesExpired == 0 {
		t.Fatal("no lease recorded as expired")
	}
	if st.Steals == 0 {
		t.Fatal("no steal recorded")
	}
	if st.CompletesDuplicate == 0 {
		t.Fatal("late completion not counted as duplicate")
	}
}

// TestFabricShardErrorsFailSweep: a shard erroring MaxShardErrors times
// fails the sweep instead of looping forever.
func TestFabricShardErrorsFailSweep(t *testing.T) {
	spec := tinySpec.Normalize()
	c := NewCoordinator(Config{Poll: time.Millisecond, ShardSlices: 0, MaxShardErrors: 2})

	done := make(chan error, 1)
	go func() {
		_, err := c.Submit(context.Background(), SubmitReq{Spec: spec})
		done <- err
	}()
	w, err := c.Join(JoinRequest{Name: "w"})
	if err != nil {
		t.Fatal(err)
	}
	// Parked leases under a deadline: under -race with other packages
	// testing in parallel, Submit can take several hundred ms to
	// generate the suite and queue its shards.
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		g, err := c.Lease(context.Background(), w.WorkerID, 100*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if g == nil {
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("sweep with failing shards reported success")
				}
				if c.Stats().ShardErrors < 2 {
					t.Fatalf("shard errors = %d, want >= 2", c.Stats().ShardErrors)
				}
				return
			default:
				continue
			}
		}
		if err := c.Complete(CompleteRequest{WorkerID: w.WorkerID, SweepID: g.SweepID, Shard: g.Shard, Error: "injected"}); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("sweep never failed")
}

// TestFabricMembershipErrors covers the protocol's refusal paths.
func TestFabricMembershipErrors(t *testing.T) {
	c := NewCoordinator(Config{})
	if _, err := c.Join(JoinRequest{Name: "x", GensetDigest: "bogus"}); !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("join with version skew: %v", err)
	}
	if _, err := c.Lease(context.Background(), "ghost", 0); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("lease from unknown worker: %v", err)
	}
	if err := c.Heartbeat(HeartbeatRequest{WorkerID: "ghost"}); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("heartbeat from unknown worker: %v", err)
	}
	if err := c.Leave(LeaveRequest{WorkerID: "ghost"}); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("leave from unknown worker: %v", err)
	}
}

// TestFabricLeaveRequeuesImmediately: a clean departure hands leases
// back without waiting out the TTL.
func TestFabricLeaveRequeues(t *testing.T) {
	spec := tinySpec.Normalize()
	gens := core.Generations()
	c := NewCoordinator(Config{LeaseTTL: 10 * time.Minute, Poll: time.Millisecond, ShardSlices: 0})
	go c.Submit(context.Background(), SubmitReq{Spec: spec})

	a, _ := c.Join(JoinRequest{Name: "a"})
	g := leaseWithin(t, c, a.WorkerID, 10*time.Second)
	if err := c.Leave(LeaveRequest{WorkerID: a.WorkerID}); err != nil {
		t.Fatal(err)
	}

	b, _ := c.Join(JoinRequest{Name: "b"})
	seen := false
	for deadline := time.Now().Add(10 * time.Second); !seen && time.Now().Before(deadline); {
		gb, err := c.Lease(context.Background(), b.WorkerID, 100*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if gb == nil {
			continue
		}
		if gb.Shard == g.Shard {
			seen = true
		}
		c.Complete(CompleteRequest{WorkerID: b.WorkerID, SweepID: gb.SweepID, Shard: gb.Shard, Doc: fakeDoc(gb, gens)})
	}
	if !seen {
		t.Fatal("released shard never re-granted")
	}
}

// TestFabricCacheEviction: the LRU stays within capacity and counts
// evictions.
func TestFabricCacheEviction(t *testing.T) {
	cache := newShardCache(2)
	d := &experiments.ShardDoc{}
	cache.put("a", d)
	cache.put("b", d)
	if got := cache.get("a"); got == nil {
		t.Fatal("warm entry missing")
	}
	cache.put("c", d) // evicts b (a was touched more recently)
	if cache.get("b") != nil {
		t.Fatal("LRU evicted the wrong entry")
	}
	if cache.get("a") == nil || cache.get("c") == nil {
		t.Fatal("survivors missing")
	}
	if cache.evictions != 1 || cache.len() != 2 {
		t.Fatalf("evictions=%d len=%d, want 1 and 2", cache.evictions, cache.len())
	}
}
