package fabric

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"exysim/internal/core"
	"exysim/internal/workload"
)

type leaseResult struct {
	g    *Grant
	err  error
	took time.Duration
}

// parkLease starts a Lease on its own goroutine and returns once the
// coordinator counts it among the parked leases.
func parkLease(t *testing.T, ctx context.Context, c *Coordinator, workerID string, wait time.Duration) <-chan leaseResult {
	t.Helper()
	before := c.Stats().LeaseWaiters
	res := make(chan leaseResult, 1)
	go func() {
		start := time.Now()
		g, err := c.Lease(ctx, workerID, wait)
		res <- leaseResult{g, err, time.Since(start)}
	}()
	for deadline := time.Now().Add(5 * time.Second); c.Stats().LeaseWaiters <= before; {
		if len(res) > 0 || time.Now().After(deadline) {
			t.Fatal("lease never parked")
		}
		time.Sleep(time.Millisecond)
	}
	return res
}

// oneShardSweep submits a sweep of one generation over one slice — a
// single shard — and returns once the shard is queued, with a stop
// function that cancels the sweep and waits for Submit to return.
func oneShardSweep(t *testing.T, c *Coordinator) (gens []core.GenConfig, stop func()) {
	t.Helper()
	spec := tinySpec.Normalize()
	gens = core.Generations()[:1]
	planned := c.Stats().ShardsPlanned
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Submit(ctx, SubmitReq{Spec: spec, Gens: gens, Slices: workload.Suite(spec)[:1]})
	}()
	for deadline := time.Now().Add(5 * time.Second); c.Stats().ShardsPlanned == planned; {
		if time.Now().After(deadline) {
			t.Fatal("sweep never planned")
		}
		time.Sleep(time.Millisecond)
	}
	return gens, func() {
		cancel()
		<-done
	}
}

// TestFabricParkedLeaseWakesOnSubmit: a lease parked on an idle
// coordinator is granted a shard as soon as a sweep queues it, not
// when its wait runs out.
func TestFabricParkedLeaseWakesOnSubmit(t *testing.T) {
	spec := tinySpec.Normalize()
	slices := workload.Suite(spec) // generated before the clock starts
	c := NewCoordinator(Config{LeaseTTL: time.Minute})
	w, err := c.Join(JoinRequest{Name: "w"})
	if err != nil {
		t.Fatal(err)
	}
	res := parkLease(t, context.Background(), c, w.WorkerID, 10*time.Second)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	submitted := time.Now()
	go func() {
		defer close(done)
		c.Submit(ctx, SubmitReq{Spec: spec, Slices: slices})
	}()
	r := <-res
	if r.err != nil || r.g == nil {
		t.Fatalf("parked lease returned grant %v, err %v", r.g, r.err)
	}
	if d := time.Since(submitted); d > 2*time.Second {
		t.Fatalf("grant arrived %v after Submit, want well under the 10s wait", d)
	}
	if n := c.Stats().LeaseWaiters; n != 0 {
		t.Fatalf("lease waiters = %d after the grant, want 0", n)
	}
	cancel()
	<-done
}

// TestFabricParkedLeaseWakesOnRequeue: every path that returns a shard
// to the queue wakes a parked lease, which is then granted that shard.
// Worker A holds the sweep's only shard; worker B parks with a 10s wait
// and heartbeats meanwhile, as a parked worker does.
func TestFabricParkedLeaseWakesOnRequeue(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		// requeue returns A's shard to the queue; nil leaves A silent.
		requeue func(c *Coordinator, a string, g *Grant) error
	}{
		{"error complete", Config{LeaseTTL: time.Minute}, func(c *Coordinator, a string, g *Grant) error {
			return c.Complete(CompleteRequest{WorkerID: a, SweepID: g.SweepID, Shard: g.Shard, Error: "injected"})
		}},
		{"leave", Config{LeaseTTL: time.Minute}, func(c *Coordinator, a string, _ *Grant) error {
			return c.Leave(LeaveRequest{WorkerID: a})
		}},
		// Silent A is evicted after EvictAfter, set well inside B's wait,
		// and the sweep pump's next reap expires A's lease.
		{"lease expiry", Config{LeaseTTL: time.Minute, EvictAfter: 500 * time.Millisecond}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Poll = 5 * time.Millisecond
			c := NewCoordinator(tc.cfg)
			gens, stop := oneShardSweep(t, c)
			defer stop()
			a, _ := c.Join(JoinRequest{Name: "a"})
			b, _ := c.Join(JoinRequest{Name: "b"})
			ga := leaseWithin(t, c, a.WorkerID, 10*time.Second)

			hbCtx, stopHB := context.WithCancel(context.Background())
			hbDone := make(chan struct{})
			go func() {
				defer close(hbDone)
				for hbCtx.Err() == nil {
					c.Heartbeat(HeartbeatRequest{WorkerID: b.WorkerID})
					time.Sleep(20 * time.Millisecond)
				}
			}()
			defer func() {
				stopHB()
				<-hbDone
			}()
			res := parkLease(t, context.Background(), c, b.WorkerID, 10*time.Second)
			if tc.requeue != nil {
				if err := tc.requeue(c, a.WorkerID, ga); err != nil {
					t.Fatal(err)
				}
			}
			r := <-res
			if r.err != nil || r.g == nil {
				t.Fatalf("parked lease returned grant %v, err %v", r.g, r.err)
			}
			if r.g.SweepID != ga.SweepID || r.g.Shard != ga.Shard {
				t.Fatalf("woken lease granted %s/%d, want the requeued %s/%d", r.g.SweepID, r.g.Shard, ga.SweepID, ga.Shard)
			}
			if r.took >= 10*time.Second {
				t.Fatalf("lease took %v: it ran out its wait instead of waking", r.took)
			}
			if n := c.Stats().LeasesExpired; (tc.requeue == nil) != (n == 1) {
				t.Fatalf("leases expired = %d", n)
			}
			if err := c.Complete(CompleteRequest{WorkerID: b.WorkerID, SweepID: r.g.SweepID, Shard: r.g.Shard, Doc: fakeDoc(r.g, gens)}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFabricLeaseWaitBounds pins how long an unanswered lease waits.
func TestFabricLeaseWaitBounds(t *testing.T) {
	c := NewCoordinator(Config{LeaseTTL: 300 * time.Millisecond, EvictAfter: time.Hour})
	w, _ := c.Join(JoinRequest{Name: "w"})
	lease := func(wait time.Duration) (*Grant, time.Duration) {
		t.Helper()
		start := time.Now()
		g, err := c.Lease(context.Background(), w.WorkerID, wait)
		if err != nil {
			t.Fatal(err)
		}
		return g, time.Since(start)
	}

	// No work: nil once the wait ends.
	if g, took := lease(30 * time.Millisecond); g != nil || took < 30*time.Millisecond {
		t.Fatalf("empty lease: grant %v after %v, want nil after >= 30ms", g, took)
	}
	// A wait past LeaseTTL/3 is cut to LeaseTTL/3.
	if g, took := lease(time.Minute); g != nil || took < 100*time.Millisecond || took > 5*time.Second {
		t.Fatalf("over-long lease: grant %v after %v, want nil after ~100ms", g, took)
	}

	// On a coordinator whose cap is 20s: a wait of 0 answers at once,
	// and a canceled ctx returns at once, parked or not.
	c2 := NewCoordinator(Config{LeaseTTL: time.Minute})
	w2, _ := c2.Join(JoinRequest{Name: "w2"})
	start := time.Now()
	if g, err := c2.Lease(context.Background(), w2.WorkerID, 0); g != nil || err != nil || time.Since(start) > 5*time.Second {
		t.Fatalf("zero-wait lease: grant %v, err %v after %v", g, err, time.Since(start))
	}
	ctx, cancel := context.WithCancel(context.Background())
	res := parkLease(t, ctx, c2, w2.WorkerID, 10*time.Second)
	cancel()
	if r := <-res; r.g != nil || r.err != nil || r.took > 5*time.Second {
		t.Fatalf("canceled lease: grant %v, err %v after %v", r.g, r.err, r.took)
	}
	start = time.Now()
	if g, err := c2.Lease(ctx, w2.WorkerID, 10*time.Second); g != nil || err != nil || time.Since(start) > 5*time.Second {
		t.Fatalf("lease with a canceled ctx: grant %v, err %v after %v", g, err, time.Since(start))
	}
	if n := c2.Stats().LeaseWaiters; n != 0 {
		t.Fatalf("lease waiters = %d after every lease returned", n)
	}
}

// TestFabricDrainStopsParking: Drain releases parked leases at once,
// later leases answer without waiting, and queued work is still
// granted so in-flight sweeps finish.
func TestFabricDrainStopsParking(t *testing.T) {
	c := NewCoordinator(Config{LeaseTTL: time.Minute})
	w, _ := c.Join(JoinRequest{Name: "w"})
	res := parkLease(t, context.Background(), c, w.WorkerID, 10*time.Second)
	c.Drain()
	if r := <-res; r.g != nil || r.err != nil || r.took > 5*time.Second {
		t.Fatalf("parked lease at drain: grant %v, err %v after %v", r.g, r.err, r.took)
	}
	start := time.Now()
	if g, err := c.Lease(context.Background(), w.WorkerID, 10*time.Second); g != nil || err != nil || time.Since(start) > 5*time.Second {
		t.Fatalf("lease after drain: grant %v, err %v after %v", g, err, time.Since(start))
	}

	gens, stop := oneShardSweep(t, c)
	defer stop()
	g := leaseWithin(t, c, w.WorkerID, 10*time.Second)
	if err := c.Complete(CompleteRequest{WorkerID: w.WorkerID, SweepID: g.SweepID, Shard: g.Shard, Doc: fakeDoc(g, gens)}); err != nil {
		t.Fatal(err)
	}
}

// fakeCoord answers every lease at once with no work, or with err.
type fakeCoord struct {
	err    error
	leases atomic.Int64
}

func (f *fakeCoord) Join(JoinRequest) (JoinDoc, error) {
	return JoinDoc{WorkerID: "w", LeaseTTLMillis: 30_000}, nil
}

func (f *fakeCoord) Lease(context.Context, string, time.Duration) (*Grant, error) {
	f.leases.Add(1)
	return nil, f.err
}

func (f *fakeCoord) Complete(CompleteRequest) error   { return nil }
func (f *fakeCoord) Heartbeat(HeartbeatRequest) error { return nil }
func (f *fakeCoord) Leave(LeaveRequest) error         { return nil }

// TestFabricWorkerDoesNotSpin: against a coordinator that never parks
// (an older one, or one draining) or that keeps failing, the worker
// backs off instead of re-leasing in a tight loop.
func TestFabricWorkerDoesNotSpin(t *testing.T) {
	for _, f := range []*fakeCoord{{}, {err: errors.New("coordinator unreachable")}} {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		err := NewWorker(f, "w", simRun).Run(ctx)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("worker stopped with %v", err)
		}
		// Backoff doubles from 1ms to a 50ms cap: about 13 leases in
		// 200ms, where a spinning loop makes thousands.
		if n := f.leases.Load(); n > 50 {
			t.Fatalf("lease error %v: %d leases in 200ms", f.err, n)
		}
	}
}
