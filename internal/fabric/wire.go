// Package fabric turns a population sweep into a horizontally scalable
// coordinator/worker computation. The coordinator plans a sweep into
// (generation, slice-range) shards (experiments.PlanShards), hands them
// to workers under heartbeat-extended TTL leases, steals shards back
// from slow or dead workers, takes the cells an earlier sweep or job
// computed from a content-addressed result store
// (experiments.ResultStore), and reassembles the completed ShardDocs
// into a PopulationRun that is bit-identical to a single-process run
// (experiments.MergeShards).
//
// Workers and coordinator may share a process (the Coordinator struct
// implements Coord directly) or be separate exyserve processes speaking
// the HTTP wire protocol in this file (Client implements Coord over
// POST /v1/fabric/{join,lease,complete,heartbeat,leave}).
package fabric

import (
	"context"
	"errors"
	"time"

	"exysim/internal/core"
	"exysim/internal/experiments"
	"exysim/internal/obs"
	"exysim/internal/stats"
	"exysim/internal/workload"
)

// ErrUnknownWorker is returned by coordinator calls whose worker ID is
// not (or no longer) a member: never joined, evicted after missed
// heartbeats, or departed. The HTTP layer maps it to 410 Gone; workers
// respond by re-joining.
var ErrUnknownWorker = errors.New("fabric: unknown worker")

// ErrVersionSkew is returned by Join when the worker's generation-set
// digest differs from the coordinator's: the two processes would
// simulate different machines, so sharding across them could not be
// bit-identical. The HTTP layer maps it to 409 Conflict.
var ErrVersionSkew = errors.New("fabric: worker/coordinator generation set mismatch")

// GensetDigest fingerprints the simulator configuration a process
// would shard with: the result schema version and every generation
// config. Join refuses workers whose digest differs.
func GensetDigest() string {
	return obs.ConfigDigest(struct {
		Schema int
		Gens   []core.GenConfig
	}{experiments.ResultsSchemaVersion, core.Generations()})
}

// JoinRequest registers a worker with the coordinator.
type JoinRequest struct {
	// Name is a human-readable worker name (host-pid); the coordinator
	// derives a unique worker ID from it.
	Name string `json:"name"`
	// GensetDigest must match the coordinator's GensetDigest().
	GensetDigest string `json:"genset_digest"`
}

// JoinDoc is the coordinator's reply to a successful join.
type JoinDoc struct {
	WorkerID       string `json:"worker_id"`
	LeaseTTLMillis int64  `json:"lease_ttl_millis"`
}

// LeaseRequest is the body of POST /v1/fabric/lease. WaitMillis is how
// long the coordinator may hold the request open waiting for work; a
// missing or zero wait answers at once.
type LeaseRequest struct {
	WorkerID   string `json:"worker_id"`
	WaitMillis int64  `json:"wait_millis,omitempty"`
}

// Grant is one leased work unit: run shard Shard of the sweep's spec
// and Complete it before the lease expires (heartbeats extend the
// lease). The spec plus the shard range — and for trace sweeps the
// population's content address — fully determine the work, so a worker
// needs no other sweep state.
type Grant struct {
	SweepID string             `json:"sweep_id"`
	Shard   int                `json:"shard"`
	Unit    experiments.Shard  `json:"unit"`
	Digest  string             `json:"digest"`
	Spec    workload.SuiteSpec `json:"spec"`
	// Trace is the tracestore.PopulationID of the ingested population the
	// sweep runs over; empty for synthetic sweeps. Workers resolve it to
	// slices through their trace store, an in-memory registry, or a bundle
	// fetch from the coordinator.
	Trace string `json:"trace,omitempty"`
	// Gens carries the sweep's full generation set when it differs from
	// the default M1..M6 — predictor-lab sweeps append a hypothetical
	// generation, and a worker's join-time genset digest only vouches for
	// the default set. Empty means core.Generations().
	Gens []core.GenConfig `json:"gens,omitempty"`
}

// ShardJob is the argument a RunFunc receives: shards of one sweep,
// plus the trace population (if any) whose slices they simulate. A
// non-empty Gens replaces the default generation set.
type ShardJob struct {
	Spec  workload.SuiteSpec
	Trace string
	// Units lists the shards to compute: a grant's one unit on a worker,
	// every pending shard of the sweep in a coordinator's local batch.
	Units []experiments.Shard
	Gens  []core.GenConfig
	// Progress, set on local batches only, observes how many of the
	// units' cells have finished, restored checkpoint cells included.
	// A runner over experiments.Run calls it one call at a time, the
	// count rising by one per call after the first.
	Progress func(done int)
}

// CompleteRequest reports a shard outcome. Exactly one of Doc or Error
// is set. Complete is idempotent and first-complete-wins: a duplicate
// (the shard was stolen and finished elsewhere first, or a retry after
// a lost response) is acknowledged and discarded.
type CompleteRequest struct {
	WorkerID    string                `json:"worker_id"`
	SweepID     string                `json:"sweep_id"`
	Shard       int                   `json:"shard"`
	WallSeconds float64               `json:"wall_seconds"`
	Doc         *experiments.ShardDoc `json:"doc,omitempty"`
	Error       string                `json:"error,omitempty"`
}

// HeartbeatRequest keeps a worker's membership and leases alive while
// it computes or waits for work, and carries the worker's cumulative
// shard wall-time summary; the coordinator merges the per-worker
// summaries (stats.Summary.Merge) into the fleet view on /metrics.
type HeartbeatRequest struct {
	WorkerID  string        `json:"worker_id"`
	ShardWall stats.Summary `json:"shard_wall"`
}

// LeaveRequest departs cleanly: the worker's outstanding leases return
// to the queue immediately instead of aging out.
type LeaveRequest struct {
	WorkerID string `json:"worker_id"`
}

// Coord is the coordinator surface a worker drives. Coordinator
// implements it in-process; Client implements it over HTTP.
type Coord interface {
	// Join registers the worker and returns its ID and lease timing.
	Join(req JoinRequest) (JoinDoc, error)
	// Lease requests one work unit. With no work queued it waits up to
	// wait (at most a third of the lease TTL; 0 answers at once) for a
	// shard to enter the queue. A nil grant means the wait ended, ctx
	// is done, or the coordinator is draining.
	Lease(ctx context.Context, workerID string, wait time.Duration) (*Grant, error)
	// Complete reports a shard result (or failure).
	Complete(req CompleteRequest) error
	// Heartbeat extends the worker's membership and leases.
	Heartbeat(req HeartbeatRequest) error
	// Leave departs cleanly, releasing outstanding leases.
	Leave(req LeaveRequest) error
}
