package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"

	"exysim/internal/core"
	"exysim/internal/experiments"
	"exysim/internal/workload"
)

var tinySpec = workload.SuiteSpec{SlicesPerFamily: 1, InstsPerSlice: 2_000, WarmupFrac: 0.25, Seed: 0xFA6}

func simRun(ctx context.Context, job ShardJob) (*experiments.ShardDoc, error) {
	if job.Trace != "" {
		return nil, errors.New("simRun cannot resolve trace populations")
	}
	return experiments.RunShard(ctx, job.Spec, job.Unit)
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
