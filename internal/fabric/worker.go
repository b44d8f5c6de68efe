package fabric

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"exysim/internal/experiments"
	"exysim/internal/robust"
	"exysim/internal/stats"
)

// Worker pulls shard leases from a Coord and computes them with a
// RunFunc. One Worker drives one membership; a process wanting more
// parallelism runs the RunFunc internally parallel (the serve layer's
// shard runner spreads one shard across SweepParallelism goroutines)
// rather than joining multiple times.
type Worker struct {
	coord Coord
	name  string
	run   RunFunc

	mu   sync.Mutex
	id   string
	ttl  time.Duration
	wall stats.Summary
}

// NewWorker creates a worker that will join coord under name and
// compute grants with run.
func NewWorker(coord Coord, name string, run RunFunc) *Worker {
	return &Worker{coord: coord, name: name, run: run}
}

// Run joins the coordinator and processes leases until ctx is
// canceled. Cancellation models a crash as far as the fabric is
// concerned: outstanding leases are NOT handed back — they age out and
// get stolen — so tests and drains that want a clean handback call
// Release explicitly afterwards.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.join(ctx); err != nil {
		return err
	}
	hbCtx, stopHB := context.WithCancel(ctx)
	var hbDone sync.WaitGroup
	hbDone.Add(1)
	go func() {
		defer hbDone.Done()
		w.heartbeatLoop(hbCtx)
	}()
	defer func() {
		stopHB()
		hbDone.Wait()
	}()

	// idle counts unproductive leases in a row: errors, and empty
	// leases that came back before their wait was up (a coordinator
	// that does not park leases, or one that is draining). Each one
	// backs off, so the loop never spins.
	idle := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		// A third of the TTL: the most the coordinator grants.
		wait := w.leaseTTL() / 3
		start := time.Now()
		grant, err := w.coord.Lease(ctx, w.workerID(), wait)
		switch {
		case errors.Is(err, ErrUnknownWorker):
			// Evicted (a long GC pause, a partition): rejoin and retry.
			if err := w.join(ctx); err != nil {
				return err
			}
		case grant != nil:
			idle = 0
			w.work(ctx, grant)
		case err == nil && time.Since(start) >= wait:
			idle = 0 // the whole wait passed with no work: park again
		default:
			idle++
			if !w.sleep(ctx, robust.Backoff(idle)) {
				return ctx.Err()
			}
		}
	}
}

// work computes one grant and uploads the outcome, retrying the upload
// with jittered backoff so a briefly unreachable coordinator does not
// cost a recompute.
func (w *Worker) work(ctx context.Context, g *Grant) {
	start := time.Now()
	docs, err := w.run(ctx, ShardJob{Spec: g.Spec, Trace: g.Trace, Units: []experiments.Shard{g.Unit}, Gens: g.Gens})
	if err == nil && len(docs) != 1 {
		err = fmt.Errorf("fabric: shard runner returned %d documents for one shard", len(docs))
	}
	if ctx.Err() != nil && err != nil {
		// Crash semantics: a canceled computation reports nothing; the
		// lease ages out and the shard is stolen.
		return
	}
	wall := time.Since(start).Seconds()
	req := CompleteRequest{
		WorkerID:    w.workerID(),
		SweepID:     g.SweepID,
		Shard:       g.Shard,
		WallSeconds: wall,
	}
	if err != nil {
		req.Error = err.Error()
	} else {
		req.Doc = docs[0]
		w.mu.Lock()
		w.wall.Add(wall)
		w.mu.Unlock()
	}
	for attempt := 1; attempt <= 5; attempt++ {
		cerr := w.coord.Complete(req)
		if cerr == nil || cerr == ErrUnknownWorker {
			return
		}
		if !w.sleep(ctx, robust.Backoff(attempt)) {
			return
		}
	}
}

// join registers (or re-registers) with jittered-backoff retries, so a
// worker started before its coordinator comes up eventually connects.
func (w *Worker) join(ctx context.Context) error {
	req := JoinRequest{Name: w.name, GensetDigest: GensetDigest()}
	for attempt := 1; ; attempt++ {
		doc, err := w.coord.Join(req)
		if err == nil {
			w.mu.Lock()
			w.id = doc.WorkerID
			w.ttl = time.Duration(doc.LeaseTTLMillis) * time.Millisecond
			w.mu.Unlock()
			return nil
		}
		if err == ErrVersionSkew {
			return fmt.Errorf("fabric: join refused: %w", err)
		}
		if attempt >= 8 {
			return fmt.Errorf("fabric: join failed after %d attempts: %w", attempt, err)
		}
		if !w.sleep(ctx, robust.Backoff(attempt)) {
			return ctx.Err()
		}
	}
}

// heartbeatLoop extends membership (and thereby every held lease) at a
// third of the lease TTL, carrying the cumulative shard wall summary.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	for {
		ttl := w.leaseTTL()
		interval := ttl / 3
		if interval <= 0 {
			interval = time.Second
		}
		if !w.sleep(ctx, interval) {
			return
		}
		w.mu.Lock()
		req := HeartbeatRequest{WorkerID: w.id, ShardWall: w.wall}
		w.mu.Unlock()
		// ErrUnknownWorker here is fine: the lease loop rejoins.
		_ = w.coord.Heartbeat(req)
	}
}

// Release departs cleanly, handing outstanding leases back to the
// coordinator queue. Drains call this after Run has returned.
func (w *Worker) Release() error {
	id := w.workerID()
	if id == "" {
		return nil
	}
	err := w.coord.Leave(LeaveRequest{WorkerID: id})
	if err == ErrUnknownWorker {
		return nil
	}
	return err
}

// Wall returns the worker's cumulative shard wall-time summary.
func (w *Worker) Wall() stats.Summary {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.wall
}

func (w *Worker) workerID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

func (w *Worker) leaseTTL() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ttl <= 0 {
		return 3 * time.Second
	}
	return w.ttl
}

// sleep waits d or until ctx is done, reporting whether the full wait
// elapsed.
func (w *Worker) sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// Ensure the in-process coordinator satisfies the worker-facing
// interface (the HTTP client is checked in client.go).
var _ Coord = (*Coordinator)(nil)
