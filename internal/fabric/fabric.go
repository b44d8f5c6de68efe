package fabric

import (
	"context"
	"fmt"
	"sync"
	"time"

	"exysim/internal/core"
	"exysim/internal/experiments"
	"exysim/internal/obs"
	"exysim/internal/stats"
	"exysim/internal/trace"
	"exysim/internal/workload"
)

// Config shapes a Coordinator. Zero values take the defaults noted on
// each field.
type Config struct {
	// LeaseTTL is how long a lease survives without a heartbeat from
	// its holder; an expired lease returns its shard to the queue for
	// another worker to steal. Default 10s.
	LeaseTTL time.Duration
	// StealAge is how long a lease may be held — with live heartbeats —
	// before an idle worker is granted a duplicate of the same shard
	// (first completion wins). This bounds sweep tail latency on a
	// slow-but-alive straggler. Default 6×LeaseTTL.
	StealAge time.Duration
	// EvictAfter is how long a worker may go silent before it is
	// dropped from the membership table. Default 3×LeaseTTL.
	EvictAfter time.Duration
	// Poll is the coordinator's own tick while a sweep is in flight: it
	// reaps expired leases (waking parked leases for the requeued
	// shards) and hands the sweep's pending shards to its local runner
	// once no worker is live. Workers do not poll; their leases park
	// until work arrives. A sweep submitted with no live worker does not
	// wait for a tick. Default 50ms.
	Poll time.Duration
	// ShardSlices caps the slice-range width of a planned shard.
	// Default 8.
	ShardSlices int
	// Results is the store a sweep looks its cells up in and keeps the
	// cells of clean computed shards in. A coordinator given none builds
	// its own with the default budget.
	Results *experiments.ResultStore
	// MaxShardErrors fails the sweep after one shard errors this many
	// times on distinct grants. Default 3.
	MaxShardErrors int
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.StealAge <= 0 {
		c.StealAge = 6 * c.LeaseTTL
	}
	if c.EvictAfter <= 0 {
		c.EvictAfter = 3 * c.LeaseTTL
	}
	if c.Poll <= 0 {
		c.Poll = 50 * time.Millisecond
	}
	if c.ShardSlices == 0 {
		c.ShardSlices = 8
	}
	if c.Results == nil {
		c.Results = experiments.NewResultStore(0, nil)
	}
	if c.MaxShardErrors <= 0 {
		c.MaxShardErrors = 3
	}
	return c
}

// RunFunc computes the shards job.Units names and returns one document
// per unit, in order. A worker passes the one unit of its grant; a
// coordinator's local runner gets every pending shard of a sweep in one
// call. The serve layer supplies one backed by its simulator pool, warm
// cache, and trace store. A non-empty job.Trace names the population
// whose slices replace the spec's synthetic suite; a RunFunc that
// cannot resolve it must return an error (the shards are retried).
type RunFunc func(ctx context.Context, job ShardJob) ([]*experiments.ShardDoc, error)

// Stats is a point-in-time snapshot of coordinator counters, exported
// on the serving daemon's /metrics.
type Stats struct {
	WorkersJoined  uint64
	WorkersEvicted uint64
	WorkersLive    int

	SweepsSubmitted uint64
	ShardsPlanned   uint64
	ShardsCompleted uint64
	ShardErrors     uint64

	LeasesGranted      uint64
	LeasesExpired      uint64
	Steals             uint64
	CompletesDuplicate uint64
	// LocalRuns counts calls to a sweep's local runner: one per batch of
	// shards computed on the coordinator for want of a live worker.
	LocalRuns uint64

	// Cells Submit found in and missed from the result store, and the
	// store's evicted and resident cells.
	CacheHits      uint64
	CacheMisses    uint64
	CacheEvictions uint64
	CacheEntries   int

	// LeaseWaiters is the number of Lease calls parked right now,
	// waiting for a shard to enter the queue.
	LeaseWaiters int

	// ShardWall summarizes wall seconds per computed shard: a worker's
	// as reported at Complete, a local batch's split across its shards
	// by cell count. Shards served from the result store add no sample,
	// so N×Mean is the time spent computing. WorkerWall is the merge of
	// the cumulative summaries the live workers carry on their
	// heartbeats.
	ShardWall  stats.Summary
	WorkerWall stats.Summary
}

type workerState struct {
	id       string
	name     string
	lastSeen time.Time
	wall     stats.Summary
}

type lease struct {
	worker  string
	granted time.Time
}

type shardState uint8

const (
	shardPending shardState = iota
	shardLeased
	shardDone
)

// plan is a sweep's resolved request and its cells looked up in the
// result store.
type plan struct {
	spec   workload.SuiteSpec
	trace  string // population content address; "" for synthetic sweeps
	gens   []core.GenConfig
	slices []*trace.Slice
	cover  *experiments.Cover // a sweep's shards are its units
}

type sweep struct {
	*plan
	id string
	// gensWire is gens when the set differs from the default M1..M6 (it
	// must ride every grant), nil when workers can use their own default.
	gensWire []core.GenConfig
	shards   []experiments.Shard
	digests  []string // of the shards to compute; "" for stored ones
	docs     []*experiments.ShardDoc
	state    []shardState
	leases   [][]lease
	errs     []int
	// expired marks shards requeued because their lease aged out; the
	// next grant of such a shard counts as a steal.
	expired []bool

	remaining int
	done      chan struct{}
	err       error
	closed    bool

	// Progress in (generation, slice) cells: cells of every planned
	// shard, of the completed ones, and those the running local batch
	// has finished (its shards are not complete yet).
	cells, cellsDone, batchDone int
	onProgress                  func(done, total int)
}

// reportLocked sends the sweep's cell progress to its observer. A
// worker that steals a shard from a running local batch gets its cells
// counted twice until the batch ends, hence the cap.
func (sw *sweep) reportLocked() {
	if sw.onProgress != nil {
		sw.onProgress(min(sw.cellsDone+sw.batchDone, sw.cells), sw.cells)
	}
}

// width is shard i's cell count.
func (sw *sweep) width(i int) int { return sw.shards[i].Hi - sw.shards[i].Lo }

// SubmitReq describes one sweep handed to Coordinator.Submit.
type SubmitReq struct {
	Spec workload.SuiteSpec
	// Gens and Slices default to core.Generations() and
	// workload.Suite(Spec); the serve layer passes its warm-cached
	// suite so coordinator-side merges reuse one materialization.
	Gens   []core.GenConfig
	Slices []*trace.Slice
	// Trace names the ingested population Slices came from
	// (tracestore.PopulationID). It rides every Grant so workers resolve
	// the same slices, and it enters the shard digests a completed shard
	// must match.
	Trace string
	// OnProgress, if set, observes (done, total) counts of (generation,
	// slice) cells: stored cells count at planning, a worker's shard at
	// its completion, and a local batch's cells as they finish.
	OnProgress func(done, total int)
	// Local computes shards on the coordinator itself whenever no live
	// worker exists — at submit, or once every worker has left — taking
	// all of the sweep's pending shards in one call. It makes a sweep on
	// a worker-less coordinator one single-process batch over the cells
	// the result store does not hold.
	Local RunFunc
}

// Coordinator owns sweep planning over the result store, the lease
// table, and result merging. It implements Coord for in-process
// workers; serve's fabric endpoints adapt it to HTTP.
type Coordinator struct {
	cfg Config

	mu        sync.Mutex
	workers   map[string]*workerState
	sweeps    map[string]*sweep
	queue     []shardRef
	joinSeq   uint64
	sweepSeq  uint64
	shardWall stats.Summary

	// wake is closed, and cleared, whenever a shard enters the queue or
	// the coordinator starts draining; parked leases wait on it. It is
	// made lazily by the first lease to park after the last wake.
	wake         chan struct{}
	leaseWaiters int
	draining     bool

	joined, evicted    uint64
	sweepsSubmitted    uint64
	shardsPlanned      uint64
	shardsCompleted    uint64
	shardErrors        uint64
	leasesGranted      uint64
	leasesExpired      uint64
	steals             uint64
	completesDuplicate uint64
	localRuns          uint64
	cellHits           uint64
	cellMisses         uint64
}

type shardRef struct {
	sw  *sweep
	idx int
}

// localWorkerID marks leases held by a sweep's local batch; they bypass
// heartbeat expiry because the batch always completes or its sweep
// fails.
const localWorkerID = "local"

// NewCoordinator creates a coordinator with cfg's policies.
func NewCoordinator(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	return &Coordinator{
		cfg:     cfg,
		workers: make(map[string]*workerState),
		sweeps:  make(map[string]*sweep),
	}
}

// Join implements Coord.
func (c *Coordinator) Join(req JoinRequest) (JoinDoc, error) {
	if req.GensetDigest != "" && req.GensetDigest != GensetDigest() {
		return JoinDoc{}, ErrVersionSkew
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.joinSeq++
	name := req.Name
	if name == "" {
		name = "worker"
	}
	id := fmt.Sprintf("%s#%d", name, c.joinSeq)
	c.workers[id] = &workerState{id: id, name: name, lastSeen: time.Now()}
	c.joined++
	return JoinDoc{
		WorkerID:       id,
		LeaseTTLMillis: c.cfg.LeaseTTL.Milliseconds(),
	}, nil
}

// Lease implements Coord. With no work to grant and a positive wait,
// the call parks for up to min(wait, LeaseTTL/3) without holding the
// coordinator lock, and every time a shard enters the queue it retries
// the grant. It returns nil when the wait ends, ctx is done, or the
// coordinator is draining.
func (c *Coordinator) Lease(ctx context.Context, workerID string, wait time.Duration) (*Grant, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	g, err := c.leaseLocked(workerID)
	if g != nil || err != nil || wait <= 0 || c.draining {
		return g, err
	}
	timer := time.NewTimer(min(wait, c.cfg.LeaseTTL/3))
	defer timer.Stop()
	c.leaseWaiters++
	defer func() { c.leaseWaiters-- }() // runs before the deferred Unlock
	for !c.draining {
		if c.wake == nil {
			c.wake = make(chan struct{})
		}
		wake := c.wake
		c.mu.Unlock()
		select {
		case <-wake:
		case <-timer.C:
			c.mu.Lock()
			return nil, nil
		case <-ctx.Done():
			c.mu.Lock()
			return nil, nil
		}
		c.mu.Lock()
		// Another parked lease may have taken the shard: park again
		// until this call's own deadline.
		if g, err := c.leaseLocked(workerID); g != nil || err != nil {
			return g, err
		}
	}
	return nil, nil
}

// Drain stops leases from parking: parked leases return at once and
// later ones answer without waiting. Grants are unaffected, so sweeps
// already submitted still finish on their workers.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.draining = true
	c.wakeLocked()
}

// wakeLocked wakes every parked lease.
func (c *Coordinator) wakeLocked() {
	if c.wake != nil {
		close(c.wake)
		c.wake = nil
	}
}

// enqueueLocked appends shard i of sw to the queue and wakes the parked
// leases; every path that queues a shard goes through it.
func (c *Coordinator) enqueueLocked(sw *sweep, i int) {
	c.queue = append(c.queue, shardRef{sw, i})
	c.wakeLocked()
}

// leaseLocked pops the oldest pending shard, or duplicates a
// straggler's lease if the queue is empty and a shard has been leased
// longer than StealAge. A nil grant means there is no work for
// workerID right now.
func (c *Coordinator) leaseLocked(workerID string) (*Grant, error) {
	now := time.Now()
	w := c.workers[workerID]
	if w == nil {
		return nil, ErrUnknownWorker
	}
	w.lastSeen = now
	c.reapLocked(now)

	// Queue first: drop stale refs (completed while requeued), grant
	// the first shard still pending.
	for len(c.queue) > 0 {
		ref := c.queue[0]
		c.queue = c.queue[1:]
		if ref.sw.closed || ref.sw.state[ref.idx] != shardPending {
			continue
		}
		return c.grantLocked(ref, w, now), nil
	}

	// Work stealing for stragglers: no queued work, so duplicate the
	// oldest sufficiently aged lease held by someone else.
	var oldest shardRef
	var oldestAt time.Time
	found := false
	for _, sw := range c.sweeps {
		if sw.closed {
			continue
		}
		for i, st := range sw.state {
			if st != shardLeased {
				continue
			}
			held := false
			for _, l := range sw.leases[i] {
				if l.worker == workerID {
					held = true
					break
				}
			}
			if held {
				continue
			}
			for _, l := range sw.leases[i] {
				if now.Sub(l.granted) >= c.cfg.StealAge && (!found || l.granted.Before(oldestAt)) {
					oldest, oldestAt, found = shardRef{sw, i}, l.granted, true
				}
			}
		}
	}
	if found {
		return c.grantLocked(oldest, w, now), nil
	}
	return nil, nil
}

// grantLocked records the lease and builds the Grant. A shard granted
// while other leases on it are outstanding — or that a different worker
// previously held — counts as stolen.
func (c *Coordinator) grantLocked(ref shardRef, w *workerState, now time.Time) *Grant {
	sw, i := ref.sw, ref.idx
	if len(sw.leases[i]) > 0 || sw.expired[i] {
		c.steals++
		sw.expired[i] = false
	}
	sw.state[i] = shardLeased
	sw.leases[i] = append(sw.leases[i], lease{worker: w.id, granted: now})
	c.leasesGranted++
	return &Grant{
		SweepID: sw.id,
		Shard:   i,
		Unit:    sw.shards[i],
		Digest:  sw.digests[i],
		Spec:    sw.spec,
		Trace:   sw.trace,
		Gens:    sw.gensWire,
	}
}

// Complete implements Coord. First completion wins; later duplicates
// (steal races, retried uploads) are acknowledged and dropped. Unknown
// workers may still complete — the result is valid regardless of
// membership, and the worker will learn it was evicted on its next
// Lease.
func (c *Coordinator) Complete(req CompleteRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.completeLocked(req)
	if sw := c.sweeps[req.SweepID]; sw != nil {
		sw.reportLocked()
	}
	return err
}

// completeLocked is Complete, minus the progress report, for a worker's
// upload and for each shard of a local batch.
func (c *Coordinator) completeLocked(req CompleteRequest) error {
	now := time.Now()
	if w := c.workers[req.WorkerID]; w != nil {
		w.lastSeen = now
	}
	sw := c.sweeps[req.SweepID]
	if sw == nil || sw.closed {
		c.completesDuplicate++ // sweep already merged (or canceled) and forgotten
		return nil
	}
	if req.Shard < 0 || req.Shard >= len(sw.shards) {
		return fmt.Errorf("fabric: shard %d outside sweep %s's %d shards", req.Shard, req.SweepID, len(sw.shards))
	}
	if sw.state[req.Shard] == shardDone {
		c.completesDuplicate++
		return nil
	}
	c.dropLeasesLocked(sw, req.Shard, req.WorkerID)
	if req.Error != "" || req.Doc == nil {
		c.shardErrors++
		sw.errs[req.Shard]++
		if sw.errs[req.Shard] >= c.cfg.MaxShardErrors {
			c.failSweepLocked(sw, fmt.Errorf("fabric: shard %d failed %d times, last: %s", req.Shard, sw.errs[req.Shard], req.Error))
			return nil
		}
		if len(sw.leases[req.Shard]) == 0 {
			sw.state[req.Shard] = shardPending
			c.enqueueLocked(sw, req.Shard)
		}
		return nil
	}
	// The digest names the granted shard; the placement is where the
	// result store files the document's cells.
	if sh, d := sw.shards[req.Shard], req.Doc; d.Digest != sw.digests[req.Shard] || d.Gen != sh.Gen || d.SliceLo != sh.Lo || d.SliceHi != sh.Hi || len(d.Results) != sh.Hi-sh.Lo {
		return fmt.Errorf("fabric: shard %d document (digest %s, generation %d, %d results for slices [%d,%d)) does not match the grant (%s, %d, [%d,%d))",
			req.Shard, d.Digest, d.Gen, len(d.Results), d.SliceLo, d.SliceHi, sw.digests[req.Shard], sh.Gen, sh.Lo, sh.Hi)
	}
	c.shardWall.Add(req.WallSeconds)
	sw.cover.Keep(req.Doc)
	c.finishShardLocked(sw, req.Shard, req.Doc)
	return nil
}

// dropLeasesLocked removes workerID's lease on shard i (all leases if
// workerID is empty).
func (c *Coordinator) dropLeasesLocked(sw *sweep, i int, workerID string) {
	kept := sw.leases[i][:0]
	for _, l := range sw.leases[i] {
		if workerID != "" && l.worker != workerID {
			kept = append(kept, l)
		}
	}
	sw.leases[i] = kept
}

// finishShardLocked records a completed or stored document and the
// cell count, and closes the sweep when it was the last shard.
func (c *Coordinator) finishShardLocked(sw *sweep, i int, doc *experiments.ShardDoc) {
	sw.state[i] = shardDone
	sw.leases[i] = nil
	sw.docs[i] = doc
	sw.remaining--
	sw.cellsDone += sw.width(i)
	c.shardsCompleted++
	if sw.remaining == 0 {
		close(sw.done)
	}
}

func (c *Coordinator) failSweepLocked(sw *sweep, err error) {
	if sw.closed {
		return
	}
	sw.err = err
	sw.closed = true
	close(sw.done)
}

// Heartbeat implements Coord.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[req.WorkerID]
	if w == nil {
		return ErrUnknownWorker
	}
	w.lastSeen = time.Now()
	w.wall = req.ShardWall
	return nil
}

// Leave implements Coord: clean departure returns the worker's leases
// to the queue immediately.
func (c *Coordinator) Leave(req LeaveRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[req.WorkerID]
	if w == nil {
		return ErrUnknownWorker
	}
	delete(c.workers, req.WorkerID)
	c.releaseWorkerLocked(req.WorkerID)
	return nil
}

// releaseWorkerLocked drops every lease workerID holds, requeueing
// shards left leaseless.
func (c *Coordinator) releaseWorkerLocked(workerID string) {
	for _, sw := range c.sweeps {
		if sw.closed {
			continue
		}
		for i, st := range sw.state {
			if st != shardLeased {
				continue
			}
			had := len(sw.leases[i]) > 0
			c.dropLeasesLocked(sw, i, workerID)
			if had && len(sw.leases[i]) == 0 {
				sw.state[i] = shardPending
				c.enqueueLocked(sw, i)
			}
		}
	}
}

// reapLocked lazily expires leases whose holders stopped heartbeating
// and evicts workers silent past EvictAfter. Called from Lease and the
// Submit tick, so a dead worker's shards return to the queue, and wake
// the parked leases, within one Poll tick of its lease expiring.
func (c *Coordinator) reapLocked(now time.Time) {
	for id, w := range c.workers {
		if now.Sub(w.lastSeen) > c.cfg.EvictAfter {
			delete(c.workers, id)
			c.evicted++
		}
	}
	for _, sw := range c.sweeps {
		if sw.closed {
			continue
		}
		for i, st := range sw.state {
			if st != shardLeased {
				continue
			}
			kept := sw.leases[i][:0]
			for _, l := range sw.leases[i] {
				if l.worker == localWorkerID {
					// A local batch always completes (with results or an
					// error) or fails its sweep — its lease cannot be
					// orphaned.
					kept = append(kept, l)
					continue
				}
				w := c.workers[l.worker]
				if w == nil || now.Sub(w.lastSeen) > c.cfg.LeaseTTL {
					c.leasesExpired++
					continue
				}
				kept = append(kept, l)
			}
			sw.leases[i] = kept
			if len(kept) == 0 {
				sw.state[i] = shardPending
				sw.expired[i] = true
				c.enqueueLocked(sw, i)
			}
		}
	}
}

// liveWorkersLocked counts workers heartbeating within one lease TTL.
func (c *Coordinator) liveWorkersLocked(now time.Time) int {
	n := 0
	for _, w := range c.workers {
		if now.Sub(w.lastSeen) <= c.cfg.LeaseTTL {
			n++
		}
	}
	return n
}

// LiveWorkers reports how many workers are currently heartbeating.
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveWorkersLocked(time.Now())
}

// plan resolves req's defaults and looks its cells up.
func (c *Coordinator) plan(req SubmitReq) (*plan, error) {
	p := &plan{spec: req.Spec.Normalize(), trace: req.Trace, gens: req.Gens, slices: req.Slices}
	if p.gens == nil {
		p.gens = core.Generations()
	}
	if p.slices == nil {
		if req.Trace != "" {
			return nil, fmt.Errorf("fabric: sweep names trace population %s but carries no slices", req.Trace)
		}
		p.slices = workload.Suite(p.spec)
	}
	p.cover = c.cfg.Results.Cover(p.gens, p.slices, c.cfg.ShardSlices)
	return p, nil
}

// merge assembles the sweep's PopulationRun from one document per unit
// of its cover.
func (p *plan) merge(docs []*experiments.ShardDoc) (*experiments.PopulationRun, error) {
	run, err := experiments.MergeShards(p.spec, p.gens, p.slices, docs)
	if err != nil {
		return nil, err
	}
	run.PopID = p.trace
	return run, nil
}

// Stored returns the PopulationRun Submit would return for req when
// the result store holds every one of its cells, and false otherwise.
// It plans no sweep and counts nothing: a server answers a resubmitted
// job with it before queueing. Pass req.Slices; nil generates the suite.
func (c *Coordinator) Stored(req SubmitReq) (*experiments.PopulationRun, bool) {
	p, err := c.plan(req)
	if err != nil || p.cover.Misses > 0 {
		return nil, false
	}
	run, err := p.merge(p.cover.Docs)
	return run, err == nil
}

// Submit plans, distributes, and merges one sweep, blocking until every
// shard is complete (from the result store, workers, or a local batch)
// and returning a PopulationRun bit-identical to a single-process
// experiments.Run over the same spec. Shards are planned over each
// generation's runs of cells the store misses (experiments.Cover).
func (c *Coordinator) Submit(ctx context.Context, req SubmitReq) (*experiments.PopulationRun, error) {
	p, err := c.plan(req)
	if err != nil {
		return nil, err
	}
	shards := p.cover.Units
	var gensWire []core.GenConfig
	if req.Gens != nil && obs.ConfigDigest(p.gens) != obs.ConfigDigest(core.Generations()) {
		// A custom generation set (e.g. M1..M6 plus a hypothetical M7)
		// must travel with every grant: the join handshake only vouches
		// that workers agree on the default set.
		gensWire = p.gens
	}

	c.mu.Lock()
	c.sweepSeq++
	sw := &sweep{
		plan:       p,
		id:         fmt.Sprintf("sweep-%d", c.sweepSeq),
		gensWire:   gensWire,
		shards:     shards,
		digests:    make([]string, len(shards)),
		docs:       make([]*experiments.ShardDoc, len(shards)),
		state:      make([]shardState, len(shards)),
		leases:     make([][]lease, len(shards)),
		errs:       make([]int, len(shards)),
		expired:    make([]bool, len(shards)),
		remaining:  len(shards),
		done:       make(chan struct{}),
		cells:      len(p.gens) * len(p.slices),
		onProgress: req.OnProgress,
	}
	c.sweepsSubmitted++
	c.shardsPlanned += uint64(len(shards))
	c.cellHits += uint64(p.cover.Hits)
	c.cellMisses += uint64(p.cover.Misses)
	c.sweeps[sw.id] = sw
	for i, doc := range p.cover.Docs {
		if doc != nil {
			c.finishShardLocked(sw, i, doc)
		} else {
			sw.digests[i] = shards[i].TraceDigest(p.spec, p.gens[shards[i].Gen], p.trace)
			c.enqueueLocked(sw, i)
		}
	}
	sw.reportLocked()
	done := sw.remaining == 0
	c.mu.Unlock()

	defer func() {
		c.mu.Lock()
		sw.closed = true
		delete(c.sweeps, sw.id)
		c.mu.Unlock()
	}()

	if !done {
		if err := c.pump(ctx, sw, req.Local); err != nil {
			return nil, err
		}
	}
	return p.merge(sw.docs)
}

// pump waits for the sweep, reaping leases each tick. Whenever the
// fabric has no live worker it hands every pending shard of the sweep
// to the local runner in one batch.
func (c *Coordinator) pump(ctx context.Context, sw *sweep, local RunFunc) error {
	tick := time.NewTicker(c.cfg.Poll)
	defer tick.Stop()
	for {
		if local != nil && ctx.Err() == nil {
			if batch := c.claimLocal(sw); batch != nil {
				c.runLocal(ctx, sw, batch, local)
				continue
			}
		}
		select {
		case <-sw.done:
			return sw.err
		case <-ctx.Done():
			c.mu.Lock()
			c.failSweepLocked(sw, ctx.Err())
			c.mu.Unlock()
			return ctx.Err()
		case <-tick.C:
			c.mu.Lock()
			c.reapLocked(time.Now())
			c.mu.Unlock()
		}
	}
}

// claimLocal leases every pending shard of sw to the local runner when
// no worker is live and returns their indices; nil leaves the sweep's
// work to the workers. Other sweeps' shards stay queued for their own
// pumps.
func (c *Coordinator) claimLocal(sw *sweep) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	if sw.closed || c.liveWorkersLocked(now) > 0 {
		return nil
	}
	var batch []int
	kept := c.queue[:0]
	for _, ref := range c.queue {
		if ref.sw.closed || ref.sw.state[ref.idx] != shardPending {
			continue // stale ref
		}
		if ref.sw != sw {
			kept = append(kept, ref)
			continue
		}
		if sw.expired[ref.idx] {
			// Reclaiming an expired lease is a steal even when the thief
			// is the coordinator itself.
			c.steals++
			sw.expired[ref.idx] = false
		}
		sw.state[ref.idx] = shardLeased
		sw.leases[ref.idx] = append(sw.leases[ref.idx], lease{worker: localWorkerID, granted: now})
		batch = append(batch, ref.idx)
	}
	c.queue = kept
	return batch
}

// runLocal computes a batch of shards in one call of the local runner
// and feeds each through the completion path workers use, splitting
// the batch's wall time across its shards by cell count. A batch
// canceled with its sweep reports nothing, as a crashed worker would.
func (c *Coordinator) runLocal(ctx context.Context, sw *sweep, batch []int, local RunFunc) {
	job := ShardJob{Spec: sw.spec, Trace: sw.trace, Gens: sw.gensWire, Units: make([]experiments.Shard, len(batch))}
	cells := 0
	for k, i := range batch {
		job.Units[k] = sw.shards[i]
		cells += sw.width(i)
	}
	job.Progress = func(done int) {
		c.mu.Lock()
		defer c.mu.Unlock()
		// Run's workers report concurrently: keep the highest count.
		if done > sw.batchDone {
			sw.batchDone = done
			sw.reportLocked()
		}
	}
	start := time.Now()
	docs, err := local(ctx, job)
	wall := time.Since(start).Seconds()
	if err == nil && len(docs) != len(batch) {
		err = fmt.Errorf("fabric: local runner returned %d documents for %d shards", len(docs), len(batch))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.localRuns++
	if err != nil && ctx.Err() != nil {
		return
	}
	for k, i := range batch {
		req := CompleteRequest{WorkerID: localWorkerID, SweepID: sw.id, Shard: i, WallSeconds: wall * float64(sw.width(i)) / float64(cells)}
		if err != nil {
			req.Error = err.Error()
		} else {
			req.Doc = docs[k]
		}
		if cerr := c.completeLocked(req); cerr != nil {
			c.failSweepLocked(sw, cerr)
			return
		}
	}
	// The batch's cells now count through its completed shards.
	sw.batchDone = 0
	sw.reportLocked()
}

// Stats snapshots the coordinator counters.
func (c *Coordinator) Stats() Stats {
	cells, evictions := c.cfg.Results.Stats()
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		WorkersJoined:      c.joined,
		WorkersEvicted:     c.evicted,
		WorkersLive:        c.liveWorkersLocked(time.Now()),
		SweepsSubmitted:    c.sweepsSubmitted,
		ShardsPlanned:      c.shardsPlanned,
		ShardsCompleted:    c.shardsCompleted,
		ShardErrors:        c.shardErrors,
		LeasesGranted:      c.leasesGranted,
		LeasesExpired:      c.leasesExpired,
		Steals:             c.steals,
		CompletesDuplicate: c.completesDuplicate,
		LocalRuns:          c.localRuns,
		CacheHits:          c.cellHits,
		CacheMisses:        c.cellMisses,
		CacheEvictions:     evictions,
		CacheEntries:       cells,
		LeaseWaiters:       c.leaseWaiters,
		ShardWall:          c.shardWall,
	}
	for _, w := range c.workers {
		s.WorkerWall.Merge(w.wall)
	}
	return s
}
