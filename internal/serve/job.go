// Job lifecycle for the sweep-serving daemon: wire request forms, the
// tracked Job with its progress/event fan-out, and the JSON views the
// HTTP layer returns.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"exysim/internal/branch"
	"exysim/internal/core"
	"exysim/internal/experiments"
	"exysim/internal/obs"
	"exysim/internal/workload"
)

// JobStatus is a job's lifecycle state.
type JobStatus string

// Job lifecycle states.
const (
	StatusQueued   JobStatus = "queued"
	StatusRunning  JobStatus = "running"
	StatusDone     JobStatus = "done"
	StatusFailed   JobStatus = "failed"
	StatusCanceled JobStatus = "canceled"
)

// terminal reports whether a status is final.
func (s JobStatus) terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// JobRequestSchemaVersion is the request schema this server accepts:
// the workload spec nested under "spec" plus the optional "m7" form. An
// unset schema_version (0) means this version; any other is rejected.
const JobRequestSchemaVersion = 2

// SpecRequest sizes a job's synthetic population: a preset
// (tiny|quick|standard, default tiny) plus individual overrides.
type SpecRequest struct {
	Preset          string  `json:"preset,omitempty"`
	SlicesPerFamily int     `json:"slices_per_family,omitempty"`
	InstsPerSlice   int     `json:"insts_per_slice,omitempty"`
	WarmupFrac      float64 `json:"warmup_frac,omitempty"`
	Seed            uint64  `json:"seed,omitempty"`
}

// M7Request asks a population job to sweep a hypothetical generation
// beside the shipped M1..M6: Base (default "M6") is copied and its
// direction/indirect predictor replaced by Predictor, under Name
// (default "M7"). The result SummaryDoc then carries one extra
// generation column, computed bit-identically across the local,
// warm-pooled, and fabric-worker paths.
type M7Request struct {
	Base      string               `json:"base,omitempty"`
	Name      string               `json:"name,omitempty"`
	Predictor branch.PredictorSpec `json:"predictor"`
}

// JobRequest is the wire form of a job submission. Kind selects the
// work: "population" (the default) sweeps every generation over the
// spec's synthetic population and returns a versioned SummaryDoc;
// "slice" runs one (generation, slice) pair guarded and returns the
// detailed Result. "m7" adds a hypothetical predictor-lab generation to
// a population sweep.
type JobRequest struct {
	// SchemaVersion selects the request schema: 0 (unset) or
	// JobRequestSchemaVersion.
	SchemaVersion int `json:"schema_version,omitempty"`

	Kind string `json:"kind,omitempty"`

	// Spec sizes the synthetic population; nil means the tiny preset.
	Spec *SpecRequest `json:"spec,omitempty"`

	// M7 extends a population sweep with a hypothetical generation.
	M7 *M7Request `json:"m7,omitempty"`

	// Gen and Slice select the pair of a slice job (e.g. "M4", "web/3").
	Gen   string `json:"gen,omitempty"`
	Slice string `json:"slice,omitempty"`

	// Trace, for population jobs, sweeps an ingested trace population
	// (the id returned by POST /v1/traces) instead of the synthetic
	// suite; per-generation estimates are then SimPoint-weighted.
	Trace string `json:"trace,omitempty"`
}

// Request bounds on what one job may generate before it simulates:
// every slice is built from its own program (~1.6 MB of transient
// allocation, ~2 ms) into a trace of 32-byte entries, so without them a
// ~40-byte body could make the daemon allocate without limit.
// maxJobSlices admits the paper's 4,026 slices, and maxJobEntries (2 GiB
// of trace) the standard preset (198 × 180K = 35.6M) and 16 slices of
// 1.875M. A slice job generates its one slice whatever the population.
const (
	maxJobSlices  = 4096
	maxJobEntries = 1 << 26
)

// checkBounds refuses a spec a request of kind may not generate.
func checkBounds(kind string, spec workload.SuiteSpec) error {
	slices := 1.0
	if kind != "slice" {
		slices = spec.Slices()
	}
	if slices > maxJobSlices {
		return fmt.Errorf("spec asks %.4g slices, over the %d one job may", slices, maxJobSlices)
	}
	if n := slices * spec.SliceEntries(); n > maxJobEntries {
		return fmt.Errorf("spec sizes %.4g trace entries, over the %d one job may", n, maxJobEntries)
	}
	return nil
}

// resolve validates the request and materializes the effective
// workload spec.
func (r *JobRequest) resolve() (workload.SuiteSpec, error) {
	switch r.SchemaVersion {
	case 0:
		r.SchemaVersion = JobRequestSchemaVersion
	case JobRequestSchemaVersion:
	default:
		return workload.SuiteSpec{}, fmt.Errorf("unsupported schema_version %d (this server speaks %d)", r.SchemaVersion, JobRequestSchemaVersion)
	}
	switch r.Kind {
	case "":
		r.Kind = "population"
	case "population", "slice":
	default:
		return workload.SuiteSpec{}, fmt.Errorf("unknown kind %q (population|slice)", r.Kind)
	}
	if r.M7 != nil && r.Kind != "population" {
		return workload.SuiteSpec{}, fmt.Errorf("m7 is only valid for kind \"population\"")
	}
	var sr SpecRequest
	if r.Spec != nil {
		sr = *r.Spec
	}
	var spec workload.SuiteSpec
	switch sr.Preset {
	case "", "tiny":
		spec = workload.TinySpec
	case "quick":
		spec = workload.QuickSpec
	case "standard":
		spec = workload.StandardSpec
	default:
		return workload.SuiteSpec{}, fmt.Errorf("unknown preset %q (tiny|quick|standard)", sr.Preset)
	}
	if sr.SlicesPerFamily != 0 {
		spec.SlicesPerFamily = sr.SlicesPerFamily
	}
	if sr.InstsPerSlice != 0 {
		spec.InstsPerSlice = sr.InstsPerSlice
	}
	if sr.WarmupFrac != 0 {
		spec.WarmupFrac = sr.WarmupFrac
	}
	if sr.Seed != 0 {
		spec.Seed = sr.Seed
	}
	spec = spec.Normalize()
	if err := checkBounds(r.Kind, spec); err != nil {
		return workload.SuiteSpec{}, err
	}
	if r.Kind == "slice" {
		if r.Gen == "" || r.Slice == "" {
			return workload.SuiteSpec{}, fmt.Errorf("slice jobs need both gen and slice")
		}
		if _, ok := core.GenByName(r.Gen); !ok {
			return workload.SuiteSpec{}, fmt.Errorf("unknown generation %q", r.Gen)
		}
		if _, _, err := workload.ParseSliceName(r.Slice); err != nil {
			return workload.SuiteSpec{}, err
		}
	} else if r.Gen != "" || r.Slice != "" {
		return workload.SuiteSpec{}, fmt.Errorf("gen/slice are only valid for kind \"slice\"")
	}
	if r.Trace != "" && r.Kind != "population" {
		return workload.SuiteSpec{}, fmt.Errorf("trace is only valid for kind \"population\"")
	}
	return spec, nil
}

// hypoGens resolves the request's generation set: nil for the default
// M1..M6, or the hypothetical-extended set when M7 is present. Errors
// (unknown baseline, invalid geometry, name collision) surface at
// submit time as a 400, before any simulation starts.
func (r *JobRequest) hypoGens() ([]core.GenConfig, error) {
	if r.M7 == nil {
		return nil, nil
	}
	return experiments.HypotheticalGens(r.M7.Base, r.M7.Name, r.M7.Predictor)
}

// jobDigest fingerprints the resolved request: two submissions with the
// same digest are guaranteed to compute the same result, which is what
// names the checkpoint files. An M7 request folds its hypothetical
// generation in, so predictor-lab sweeps can never alias a default
// sweep (or a differently-specced M7).
func jobDigest(req JobRequest, spec workload.SuiteSpec) string {
	var m7 M7Request
	if req.M7 != nil {
		m7 = *req.M7
	}
	return obs.ConfigDigest(struct {
		Kind       string
		Spec       workload.SuiteSpec
		Gen, Slice string
		Trace      string
		HasM7      bool
		M7         M7Request
	}{req.Kind, spec, req.Gen, req.Slice, req.Trace, req.M7 != nil, m7})
}

// Event is one JSONL/SSE stream frame: progress ticks while the job
// runs, then exactly one terminal "result" frame carrying the full job
// view.
type Event struct {
	Type  string   `json:"type"` // "progress" | "result"
	Done  int      `json:"done,omitempty"`
	Total int      `json:"total,omitempty"`
	Job   *JobView `json:"job,omitempty"`
}

// JobView is the JSON form of a job's current state.
type JobView struct {
	ID     string          `json:"id"`
	Kind   string          `json:"kind"`
	Status JobStatus       `json:"status"`
	Digest string          `json:"digest"`
	Done   int             `json:"done"`
	Total  int             `json:"total"`
	Cached bool            `json:"cached,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// sliceDoc is the versioned result document of a slice job.
type sliceDoc struct {
	SchemaVersion int         `json:"schema_version"`
	Gen           string      `json:"gen"`
	Slice         string      `json:"slice"`
	Result        core.Result `json:"result"`
}

func newSliceDoc(gen, slice string, r core.Result) sliceDoc {
	return sliceDoc{SchemaVersion: experiments.ResultsSchemaVersion, Gen: gen, Slice: slice, Result: r}
}

// Job is one tracked unit of work. Workers mutate it through
// setProgress/finish; the HTTP layer reads it through view and streams
// it through subscribe.
type Job struct {
	id     string
	req    JobRequest
	spec   workload.SuiteSpec
	digest string
	// gens is the resolved generation set for population jobs: nil for
	// the default M1..M6, the hypothetical-extended set for M7 requests.
	gens []core.GenConfig

	// ctx governs the job's execution; cancel aborts it (DELETE, or the
	// drain deadline). It is derived before enqueueing so canceling a
	// still-queued job works too.
	ctx    context.Context
	cancel context.CancelFunc

	// enqueued stamps admission to the queue; queue-wait latency is
	// measured from here to the moment a worker picks the job up.
	enqueued time.Time

	mu          sync.Mutex
	status      JobStatus
	done, total int
	result      json.RawMessage
	errMsg      string
	subs        map[int]chan Event
	nextSub     int
}

func newJob(base context.Context, id string, req JobRequest, spec workload.SuiteSpec, gens []core.GenConfig) *Job {
	ctx, cancel := context.WithCancel(base)
	return &Job{
		id: id, req: req, spec: spec, digest: jobDigest(req, spec), gens: gens,
		ctx: ctx, cancel: cancel,
		enqueued: time.Now(),
		status:   StatusQueued,
		subs:     map[int]chan Event{},
	}
}

// view snapshots the job as its JSON form.
func (j *Job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.viewLocked()
}

func (j *Job) viewLocked() JobView {
	return JobView{
		ID: j.id, Kind: j.req.Kind, Status: j.status, Digest: j.digest,
		Done: j.done, Total: j.total,
		Error: j.errMsg, Result: j.result,
	}
}

// start transitions queued → running; it reports false if the job was
// already canceled (its ctx died while queued).
func (j *Job) start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	j.status = StatusRunning
	return true
}

// setProgress records a progress tick and broadcasts it to streamers.
// Sends are non-blocking: a slow subscriber misses ticks rather than
// stalling the sweep; the terminal frame is delivered via channel close
// plus job state, so nothing essential is ever dropped.
func (j *Job) setProgress(done, total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.terminal() {
		return
	}
	j.done, j.total = done, total
	e := Event{Type: "progress", Done: done, Total: total}
	for _, ch := range j.subs {
		select {
		case ch <- e:
		default:
		}
	}
}

// finish records the terminal state and closes every subscriber
// channel; streamers then emit the terminal frame from the job state.
// Progress stays what the run last reported: a finished sweep has
// reported every cell, and the terminal frame shows it, not an
// assumption.
func (j *Job) finish(status JobStatus, result json.RawMessage, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.terminal() {
		return
	}
	j.status, j.result, j.errMsg = status, result, errMsg
	for id, ch := range j.subs {
		close(ch)
		delete(j.subs, id)
	}
	j.cancel() // release the context's resources
}

// subscribe registers a progress listener. The returned channel closes
// when the job reaches a terminal state (immediately if it already
// has); the caller then reads the terminal view. The cancel func must
// be called to unsubscribe.
func (j *Job) subscribe() (<-chan Event, func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	ch := make(chan Event, 16)
	if j.status.terminal() {
		close(ch)
		return ch, func() {}
	}
	id := j.nextSub
	j.nextSub++
	j.subs[id] = ch
	return ch, func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if _, ok := j.subs[id]; ok {
			delete(j.subs, id)
			close(ch)
		}
	}
}
