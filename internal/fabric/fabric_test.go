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
// the same spec must be served entirely from the result store.
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
	cells := len(core.Generations()) * len(workload.Suite(spec))
	if st.CacheEntries != cells {
		t.Fatalf("%d cells stored, want all %d", st.CacheEntries, cells)
	}

	// Same spec again: every cell is stored, no new simulation.
	run2, err := c.Submit(ctx, SubmitReq{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	got2, _ := json.Marshal(run2.SummaryDoc())
	if !bytes.Equal(got2, want) {
		t.Fatal("cache-served sweep differs from single-process run")
	}
	st2 := c.Stats()
	if hits := st2.CacheHits - st.CacheHits; hits != uint64(cells) {
		t.Fatalf("cell hits = %d, want all %d", hits, cells)
	}
	if st2.ShardsCompleted != 2*st.ShardsPlanned {
		t.Fatalf("second sweep recomputed shards: completed %d, want %d", st2.ShardsCompleted, 2*st.ShardsPlanned)
	}

	// Stored answers the same without planning a sweep or counting one.
	run3, ok := c.Stored(SubmitReq{Spec: spec})
	if !ok {
		t.Fatal("Stored missed a fully stored sweep")
	}
	if got3, _ := json.Marshal(run3.SummaryDoc()); !bytes.Equal(got3, want) {
		t.Fatal("Stored's run differs from single-process run")
	}
	if st3 := c.Stats(); st3.SweepsSubmitted != st2.SweepsSubmitted || st3.CacheHits != st2.CacheHits || st3.ShardsPlanned != st2.ShardsPlanned {
		t.Fatalf("Stored counted a sweep: %+v, was %+v", st3, st2)
	}
	other := spec
	other.Seed++
	if _, ok := c.Stored(SubmitReq{Spec: other}); ok {
		t.Fatal("Stored answered a sweep it holds no cell of")
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
// hands every shard over cells the result store does not hold to the
// local runner in one call, without waiting for a Poll tick (an hour
// here). Progress counts cells — the stored ones at planning — and
// ShardWall samples only the computed shards.
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

	// Seed the result store with the first three generations.
	if _, err := c.Submit(ctx, SubmitReq{Spec: spec, Gens: gens[:3], Slices: slices, Local: local}); err != nil {
		t.Fatal(err)
	}
	seeded := c.Stats()
	if seeded.CacheEntries != 3*len(slices) || seeded.ShardWall.N() != int(seeded.ShardsPlanned) {
		t.Fatalf("seeding sweep: %d cells stored, %d wall samples for %d shards", seeded.CacheEntries, seeded.ShardWall.N(), seeded.ShardsPlanned)
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
	var unstored []experiments.Shard
	for _, sh := range experiments.PlanShards(len(gens), len(slices), 4) {
		if sh.Gen >= 3 {
			unstored = append(unstored, sh)
		}
	}
	if len(calls) != 1 || !reflect.DeepEqual(calls[0].Units, unstored) {
		t.Fatalf("local runner calls: %+v, want one with units %v", calls, unstored)
	}
	st := c.Stats()
	if hits := st.CacheHits - seeded.CacheHits; hits != uint64(seeded.CacheEntries) {
		t.Fatalf("cell hits = %d, want the %d seeded cells", hits, seeded.CacheEntries)
	}
	if st.LocalRuns != 2 {
		t.Fatalf("local runs = %d, want one per sweep", st.LocalRuns)
	}
	if n := int(st.ShardWall.N()); n != int(seeded.ShardsPlanned)+len(unstored) {
		t.Fatalf("shard wall samples = %d, want %d computed shards (stored ones add none)", n, int(seeded.ShardsPlanned)+len(unstored))
	}

	cells := len(gens) * len(slices)
	if len(reports) == 0 || reports[0] != [2]int{3 * len(slices), cells} || reports[len(reports)-1] != [2]int{cells, cells} {
		t.Fatalf("progress reports %v: want %d/%d stored at planning, %d/%d at the end", reports, 3*len(slices), cells, cells, cells)
	}
	for i := 1; i < len(reports); i++ {
		if reports[i][0] < reports[i-1][0] {
			t.Fatalf("progress went backwards: %v", reports)
		}
	}
}

// TestFabricCachesCleanShardsOnly: the cells of a shard whose run
// quarantined a pair are not stored, so the next identical sweep
// recomputes just that shard's cells, comes back clean, and takes every
// other cell from the result store.
func TestFabricCachesCleanShardsOnly(t *testing.T) {
	spec := tinySpec.Normalize()
	want := refSummary(t, spec)
	cells := len(core.Generations()) * len(workload.Suite(spec))
	c := NewCoordinator(Config{Poll: time.Hour, ShardSlices: 4})
	var faulted atomic.Bool
	var recomputed []experiments.Shard
	local := func(ctx context.Context, job ShardJob) ([]*experiments.ShardDoc, error) {
		if faulted.Swap(true) {
			recomputed = append(recomputed, job.Units...)
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
	if st.CacheEntries != cells-4 {
		t.Fatalf("stored %d of %d cells, want all but the quarantined shard's 4", st.CacheEntries, cells)
	}

	second, err := c.Submit(context.Background(), SubmitReq{Spec: spec, Local: local})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(second.SummaryDoc()); !bytes.Equal(got, want) {
		t.Fatalf("resweep differs from a clean single-process run:\n  want: %s\n  got:  %s", want, got)
	}
	if want := []experiments.Shard{{Gen: 2, Lo: 4, Hi: 8}}; !reflect.DeepEqual(recomputed, want) {
		t.Fatalf("resweep recomputed %v, want only the quarantined shard %v", recomputed, want)
	}
	st2 := c.Stats()
	if hits := st2.CacheHits - st.CacheHits; hits != uint64(st.CacheEntries) {
		t.Fatalf("resweep cell hits = %d, want %d", hits, st.CacheEntries)
	}
	if st2.CacheEntries != cells {
		t.Fatalf("after the clean recompute %d cells stored, want %d", st2.CacheEntries, cells)
	}
}

// TestFabricResweepAcrossShardWidths: cells are keyed by generation
// config and slice content, not by shard range, so a coordinator with
// another ShardSlices that shares the result store resweeps the same
// spec, bit-identically, with no local run.
func TestFabricResweepAcrossShardWidths(t *testing.T) {
	spec := tinySpec.Normalize()
	want := refSummary(t, spec)
	store := experiments.NewResultStore(0, nil)
	ctx := context.Background()
	a := NewCoordinator(Config{Poll: time.Hour, ShardSlices: 4, Results: store})
	if _, err := a.Submit(ctx, SubmitReq{Spec: spec, Local: simRun}); err != nil {
		t.Fatal(err)
	}
	b := NewCoordinator(Config{Poll: time.Hour, ShardSlices: 3, Results: store})
	run, err := b.Submit(ctx, SubmitReq{Spec: spec, Local: func(context.Context, ShardJob) ([]*experiments.ShardDoc, error) {
		t.Error("resweep ran cells locally")
		return nil, errors.New("no local runs")
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := json.Marshal(run.SummaryDoc()); !bytes.Equal(got, want) {
		t.Fatalf("resweep differs from a single-process run:\n  want: %s\n  got:  %s", want, got)
	}
	st := b.Stats()
	if cells := uint64(len(core.Generations()) * len(workload.Suite(spec))); st.LocalRuns != 0 || st.CacheHits != cells || st.CacheMisses != 0 {
		t.Fatalf("resweep: %d local runs, %d cell hits, %d misses; want 0, %d, 0", st.LocalRuns, st.CacheHits, st.CacheMisses, cells)
	}
}

// TestFabricCacheEviction: a result store budgeted for two generations
// stays within it and counts evictions; a sweep's lookups are uses, so
// the generation swept least recently is the one evicted, and its
// cells are simulated again, identically, on the next sweep over it.
func TestFabricCacheEviction(t *testing.T) {
	spec := tinySpec.Normalize()
	gens := core.Generations()
	n := len(workload.Suite(spec))
	c := NewCoordinator(Config{Poll: time.Hour, ShardSlices: 4, Results: experiments.NewResultStore(int64(2*n)*experiments.CellBytes, nil)})
	// sweep runs generation g alone and returns the cells it computed
	// and its summary.
	sweep := func(g int) (computed int, summary []byte) {
		t.Helper()
		run, err := c.Submit(context.Background(), SubmitReq{Spec: spec, Gens: gens[g : g+1], Local: func(ctx context.Context, job ShardJob) ([]*experiments.ShardDoc, error) {
			for _, u := range job.Units {
				computed += u.Hi - u.Lo
			}
			return simRun(ctx, job)
		}})
		if err != nil {
			t.Fatal(err)
		}
		summary, _ = json.Marshal(run.SummaryDoc())
		return computed, summary
	}

	sweep(0)
	_, first1 := sweep(1)
	if st := c.Stats(); st.CacheEntries != 2*n || st.CacheEvictions != 0 {
		t.Fatalf("within the budget: %d cells, %d evictions; want %d and 0", st.CacheEntries, st.CacheEvictions, 2*n)
	}
	if computed, _ := sweep(0); computed != 0 { // generation 1 is now the least recent
		t.Fatalf("warm generation 0 computed %d cells", computed)
	}
	sweep(2) // evicts generation 1
	if st := c.Stats(); st.CacheEntries != 2*n || st.CacheEvictions != uint64(n) {
		t.Fatalf("past the budget: %d cells, %d evictions; want %d and %d", st.CacheEntries, st.CacheEvictions, 2*n, n)
	}
	if computed, _ := sweep(0); computed != 0 {
		t.Fatalf("LRU evicted generation 0: it computed %d cells", computed)
	}
	computed, again1 := sweep(1)
	if computed != n {
		t.Fatalf("evicted generation 1 computed %d cells, want %d", computed, n)
	}
	if !bytes.Equal(again1, first1) {
		t.Fatalf("recomputed generation 1 differs:\n  first: %s\n  again: %s", first1, again1)
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

// TestFabricRejectsMisplacedDoc: a completed document must sit where
// its grant placed it. One that carries the granted digest but another
// generation, another slice range or a result count that does not fill
// its range is refused, so its cells never reach the result store under
// other cells' keys, and the shard is granted again.
func TestFabricRejectsMisplacedDoc(t *testing.T) {
	spec := tinySpec.Normalize()
	gens := core.Generations()
	c := NewCoordinator(Config{Poll: time.Millisecond})
	done := make(chan error, 1)
	go func() {
		_, err := c.Submit(context.Background(), SubmitReq{Spec: spec})
		done <- err
	}()
	w, err := c.Join(JoinRequest{Name: "w"})
	if err != nil {
		t.Fatal(err)
	}
	g := leaseWithin(t, c, w.WorkerID, 10*time.Second)
	for _, move := range []func(*experiments.ShardDoc){
		func(d *experiments.ShardDoc) { d.Gen = (d.Gen + 1) % len(gens); d.GenName = gens[d.Gen].Name },
		func(d *experiments.ShardDoc) { d.SliceLo, d.SliceHi = d.SliceLo+1, d.SliceHi+1 },
		func(d *experiments.ShardDoc) { d.SliceHi--; d.Results = d.Results[1:] },
		func(d *experiments.ShardDoc) { d.Results = append(d.Results, d.Results[0]) },
	} {
		doc := fakeDoc(g, gens)
		for i := range doc.Results {
			doc.Results[i].Cycles = 1 // what a faulty worker computed
		}
		move(doc)
		if err := c.Complete(CompleteRequest{WorkerID: w.WorkerID, SweepID: g.SweepID, Shard: g.Shard, Doc: doc}); err == nil {
			t.Fatalf("grant %d [%d,%d) completed by a document of generation %d [%d,%d)", g.Unit.Gen, g.Unit.Lo, g.Unit.Hi, doc.Gen, doc.SliceLo, doc.SliceHi)
		}
	}
	for finished := false; !finished; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			finished = true
			continue
		default:
		}
		g, err := c.Lease(context.Background(), w.WorkerID, 100*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if g != nil {
			if err := c.Complete(CompleteRequest{WorkerID: w.WorkerID, SweepID: g.SweepID, Shard: g.Shard, Doc: fakeDoc(g, gens)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	run, ok := c.Stored(SubmitReq{Spec: spec})
	if !ok {
		t.Fatal("the completed sweep's cells are not all stored")
	}
	for g, rs := range run.Results {
		for s, r := range rs {
			if r.Cycles != 0 {
				t.Fatalf("%s slice %d: the store holds a misplaced document's cell", gens[g].Name, s)
			}
		}
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
