// Behavioral tests for the serving daemon: request validation and
// bounds, answers from the result store, backpressure, drain semantics,
// slice-job equivalence, and the concurrent bit-identity +
// constructor-count guard the pooled architecture exists for.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"exysim/internal/branch"
	"exysim/internal/core"
	"exysim/internal/experiments"
	"exysim/internal/workload"
)

// serveSpec keeps server-side sweeps fast: 16 slices × 6 gens.
var serveSpec = workload.SuiteSpec{SlicesPerFamily: 1, InstsPerSlice: 4_000, WarmupFrac: 0.25, Seed: 0xE59}

func specRequest(spec workload.SuiteSpec) JobRequest {
	return JobRequest{
		Kind: "population",
		Spec: &SpecRequest{
			SlicesPerFamily: spec.SlicesPerFamily,
			InstsPerSlice:   spec.InstsPerSlice,
			WarmupFrac:      spec.WarmupFrac,
			Seed:            spec.Seed,
		},
	}
}

func postJob(t *testing.T, ts *httptest.Server, req JobRequest) (*http.Response, JobView) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return resp, v
}

func getJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: %d", id, resp.StatusCode)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitJob polls until the job reaches a terminal state.
func waitJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		v := getJob(t, ts, id)
		if v.Status.terminal() {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	panic("unreachable")
}

func metrics(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRequestValidation(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for name, body := range map[string]string{
		"bad json":          `{`,
		"unknown field":     `{"presett":"tiny"}`,
		"unknown kind":      `{"kind":"fleet"}`,
		"unknown preset":    `{"spec":{"preset":"huge"}}`,
		"slice without gen": `{"kind":"slice","slice":"web/0"}`,
		"unknown gen":       `{"kind":"slice","gen":"M9","slice":"web/0"}`,
		"gen on population": `{"gen":"M1"}`,
		// ~40 bytes asking for a billion-instruction slice per family.
		"oversized slices":     `{"spec":{"insts_per_slice":1000000000}}`,
		"oversized population": `{"spec":{"preset":"standard","slices_per_family":48}}`,
		"oversized slice job":  `{"kind":"slice","gen":"M1","slice":"web/0","spec":{"insts_per_slice":100000000}}`,
		// Millions of one-instruction slices: each is still a program.
		"many tiny slices":   `{"spec":{"slices_per_family":8000000,"insts_per_slice":1}}`,
		"past the slice cap": `{"spec":{"slices_per_family":497,"insts_per_slice":1}}`,
		// Within the bound on instructions, past it on trace entries.
		"past it with slack":   `{"spec":{"slices_per_family":496,"insts_per_slice":13120}}`,
		"oversized m7 banks":   `{"m7":{"predictor":{"kind":"tage-sc-l","tage":{"banks":1000000,"bank_rows":1024,"tag_bits":11,"ctr_bits":3,"useful_bits":2,"hist_min":4,"hist_max":640,"bimodal_rows":8192}}}}`,
		"oversized m7 rows":    `{"m7":{"predictor":{"kind":"shp","shp":{"Tables":16,"Rows":1073741824,"BiasEntries":8192,"GHISTLen":206,"PHISTLen":100}}}}`,
		"oversized m7 history": `{"m7":{"predictor":{"indirect":{"banks":6,"bank_rows":512,"tag_bits":9,"hist_min":2,"hist_max":1000000000,"base_rows":512}}}}`,
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if m := metrics(t, ts); m["serve.jobs_submitted"] != 0 || m["serve.cache_misses"] != 0 {
		t.Fatalf("a refused request reached the result store or the queue: %v", m)
	}
	// The bounds admit the standard preset, a 1.5M-instruction spec with
	// two slices per family, and the paper's slice count (4,092).
	for _, sr := range []SpecRequest{{Preset: "standard"}, {SlicesPerFamily: 2, InstsPerSlice: 1_500_000}, {SlicesPerFamily: 496, InstsPerSlice: 13_000}} {
		req := JobRequest{Spec: &sr}
		if _, err := req.resolve(); err != nil {
			t.Errorf("%+v refused: %v", sr, err)
		}
	}
	if resp, err := ts.Client().Get(ts.URL + "/v1/jobs/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("missing job: status %d, want 404", resp.StatusCode)
		}
	}
}

// TestConcurrentSweepsBitIdenticalWithPooling is the tentpole's
// acceptance gate: 8 concurrent population sweeps (distinct seeds, so
// no cache assist) must each return exactly the bytes a direct
// experiments.Run of the same spec produces, while the shared simulator
// pool keeps total constructions bounded by the server's concurrency —
// not by the request count.
func TestConcurrentSweepsBitIdenticalWithPooling(t *testing.T) {
	const jobs = 8
	// Result store off: the second wave must simulate again.
	cfg := Config{Workers: 2, SweepParallelism: 2, ResultBudget: -1}
	s := New(cfg)
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Reference documents computed directly, outside the server.
	want := make([]string, jobs)
	for i := range want {
		spec := serveSpec
		spec.Seed = serveSpec.Seed + uint64(i)
		p, err := experiments.Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(p.SummaryDoc())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = string(b)
	}

	run := func(wave int) {
		var wg sync.WaitGroup
		ids := make([]string, jobs)
		for i := 0; i < jobs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				spec := serveSpec
				spec.Seed = serveSpec.Seed + uint64(i)
				for {
					resp, v := postJob(t, ts, specRequest(spec))
					if resp.StatusCode == http.StatusAccepted {
						ids[i] = v.ID
						return
					}
					if resp.StatusCode != http.StatusTooManyRequests {
						t.Errorf("wave %d job %d: status %d", wave, i, resp.StatusCode)
						return
					}
					time.Sleep(20 * time.Millisecond) // queue full: honor backpressure
				}
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		for i, id := range ids {
			v := waitJob(t, ts, id)
			if v.Status != StatusDone {
				t.Fatalf("wave %d job %d: status %s (%s)", wave, i, v.Status, v.Error)
			}
			// The response encoder re-indents the raw document; compare
			// the canonical (compact) bytes.
			var got bytes.Buffer
			if err := json.Compact(&got, v.Result); err != nil {
				t.Fatal(err)
			}
			if got.String() != want[i] {
				t.Fatalf("wave %d job %d: served result differs from direct Run:\n  want %s\n  got  %s",
					wave, i, want[i], got.String())
			}
		}
	}

	run(1)
	built := metrics(t, ts)["serve.pool.sims_built"]
	// The hard bound: constructions never exceed what the concurrency
	// level can hold simultaneously (2 sweeps × 2 workers × 6 gens),
	// regardless of how many requests were served. Without pooling,
	// 8 jobs would build a fresh set per request.
	bound := float64(cfg.Workers * cfg.SweepParallelism * 6)
	if built == 0 || built > bound {
		t.Fatalf("sims_built = %v, want in (0, %v]", built, bound)
	}
	wall := metrics(t, ts)["serve.slice_wall_us.count"]
	run(2)
	m := metrics(t, ts)
	if again := m["serve.pool.sims_built"]; again > bound {
		t.Fatalf("second wave overflowed the construction bound: %v > %v", again, bound)
	}
	if m["serve.slice_wall_us.count"] != 2*wall || m["serve.cache_hits"] != 0 {
		t.Fatalf("second wave simulated %v cells (first %v), %v jobs from the disabled store",
			m["serve.slice_wall_us.count"]-wall, wall, m["serve.cache_hits"])
	}
}

// TestQueueOverflowShedsLoad pins the backpressure contract: with one
// worker held busy and a one-deep queue, the third submission is shed
// with 429 and a Retry-After hint, and the shed job is never tracked.
func TestQueueOverflowShedsLoad(t *testing.T) {
	release := make(chan struct{})
	s := newHookedServer(Config{Workers: 1, QueueDepth: 1}, func(j *Job) {
		select {
		case <-release:
		case <-j.ctx.Done():
		}
	})
	defer func() {
		close(release)
		s.Shutdown(context.Background())
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp1, v1 := postJob(t, ts, specRequest(serveSpec))
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp1.StatusCode)
	}
	// Wait until the worker has dequeued job 1, freeing the queue slot.
	waitFor(t, func() bool { return s.running.Load() == 1 })

	spec2 := serveSpec
	spec2.Seed++
	resp2, _ := postJob(t, ts, specRequest(spec2))
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit should queue: %d", resp2.StatusCode)
	}
	spec3 := serveSpec
	spec3.Seed += 2
	resp3, _ := postJob(t, ts, specRequest(spec3))
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: %d, want 429", resp3.StatusCode)
	}
	if resp3.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}
	m := metrics(t, ts)
	if m["serve.jobs_rejected"] != 1 {
		t.Fatalf("jobs_rejected = %v, want 1", m["serve.jobs_rejected"])
	}
	// Deciding to queue or shed a job generates nothing: a suite is
	// looked up at submit only when the population table already holds
	// it.
	if m["serve.warm.suite_misses"] != 0 {
		t.Fatalf("suite_misses = %v, want 0: a submit generated a suite", m["serve.warm.suite_misses"])
	}
	_ = v1
}

// TestDrainFinishesInFlight pins graceful shutdown: during a drain, new
// submissions get 503, but the running and queued jobs complete before
// Shutdown returns.
func TestDrainFinishesInFlight(t *testing.T) {
	release := make(chan struct{})
	s := newHookedServer(Config{Workers: 1, QueueDepth: 4}, func(j *Job) {
		select {
		case <-release:
		case <-j.ctx.Done():
		}
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, v1 := postJob(t, ts, specRequest(serveSpec))
	spec2 := serveSpec
	spec2.Seed++
	_, v2 := postJob(t, ts, specRequest(spec2))
	waitFor(t, func() bool { return s.running.Load() == 1 })

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.draining
	})

	// Draining: new work is refused, health reports it.
	spec3 := serveSpec
	spec3.Seed += 2
	resp3, _ := postJob(t, ts, specRequest(spec3))
	if resp3.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: %d, want 503", resp3.StatusCode)
	}
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Draining bool `json:"draining"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if !health.Draining {
		t.Fatal("healthz should report draining")
	}

	close(release)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("graceful drain errored: %v", err)
	}
	for _, id := range []string{v1.ID, v2.ID} {
		if v := getJob(t, ts, id); v.Status != StatusDone {
			t.Fatalf("job %s after drain: %s (%s), want done", id, v.Status, v.Error)
		}
	}
}

// TestDrainDeadlineCancelsInFlight pins the other half of the drain
// contract: when the deadline passes first, Shutdown cancels the
// remaining jobs cooperatively and still waits for them to stop.
func TestDrainDeadlineCancelsInFlight(t *testing.T) {
	s := newHookedServer(Config{Workers: 1, QueueDepth: 4},
		func(j *Job) { <-j.ctx.Done() }) // job blocks until canceled
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, v1 := postJob(t, ts, specRequest(serveSpec))
	waitFor(t, func() bool { return s.running.Load() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
	if v := getJob(t, ts, v1.ID); v.Status != StatusCanceled {
		t.Fatalf("in-flight job after deadline: %s, want canceled", v.Status)
	}
}

// TestCancelEndpoint covers DELETE on both a running and a queued job.
func TestCancelEndpoint(t *testing.T) {
	release := make(chan struct{})
	s := newHookedServer(Config{Workers: 1, QueueDepth: 4}, func(j *Job) {
		select {
		case <-release:
		case <-j.ctx.Done():
		}
	})
	defer func() {
		close(release)
		s.Shutdown(context.Background())
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, running := postJob(t, ts, specRequest(serveSpec))
	spec2 := serveSpec
	spec2.Seed++
	_, queued := postJob(t, ts, specRequest(spec2))
	waitFor(t, func() bool { return s.running.Load() == 1 })

	// Cancel both up front: the queued job's cancellation only
	// materializes once the (currently blocked) worker dequeues it, and
	// canceling the running job is what unblocks that worker.
	for _, id := range []string{queued.ID, running.ID} {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	for _, id := range []string{running.ID, queued.ID} {
		if v := waitJob(t, ts, id); v.Status != StatusCanceled {
			t.Fatalf("job %s: status %s, want canceled", id, v.Status)
		}
	}
}

// TestCacheHitSkipsQueue pins answers from the result store: an
// identical second submission, every cell of which the first job
// stored, answers 200 with byte-identical results and without consuming
// queue capacity.
func TestCacheHitSkipsQueue(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp1, v1 := postJob(t, ts, specRequest(serveSpec))
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp1.StatusCode)
	}
	done := waitJob(t, ts, v1.ID)

	resp2, v2 := postJob(t, ts, specRequest(serveSpec))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cache hit status = %d, want 200", resp2.StatusCode)
	}
	if !v2.Cached || v2.Status != StatusDone {
		t.Fatalf("cache hit view: %+v", v2)
	}
	if string(v2.Result) != string(done.Result) {
		t.Fatal("cached result differs from the original")
	}
	m := metrics(t, ts)
	if m["serve.cache_hits"] != 1 {
		t.Fatalf("cache_hits = %v, want 1", m["serve.cache_hits"])
	}
	if m["serve.jobs_submitted"] != 1 {
		t.Fatalf("jobs_submitted = %v, want 1 (hit must not enqueue)", m["serve.jobs_submitted"])
	}
}

// TestSliceJobMatchesDirectRun pins the single-slice path: the served
// result must be bit-identical to core.RunSlice on a fresh simulator.
// It also pins the pool's steady state: once built, M1..M6 simulators
// are reused, even when one-shot M7 population jobs run in between.
func TestSliceJobMatchesDirectRun(t *testing.T) {
	// One sweep goroutine per population job, so each job checks out
	// exactly one simulator per generation.
	s := New(Config{Workers: 1, SweepParallelism: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := specRequest(serveSpec)
	req.Kind = "slice"
	req.Gen, req.Slice = "M4", "web/0"
	_, v := postJob(t, ts, req)
	done := waitJob(t, ts, v.ID)
	if done.Status != StatusDone {
		t.Fatalf("slice job: %s (%s)", done.Status, done.Error)
	}
	var doc sliceDoc
	if err := json.Unmarshal(done.Result, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.SchemaVersion != experiments.ResultsSchemaVersion || doc.Gen != "M4" {
		t.Fatalf("slice doc header: %+v", doc)
	}

	g, _ := core.GenByName("M4")
	sl, err := workload.ByName("web/0", serveSpec)
	if err != nil {
		t.Fatal(err)
	}
	want := core.RunSlice(g, sl)
	if !reflect.DeepEqual(doc.Result, want) {
		t.Fatalf("served slice result differs from direct run:\n  want %+v\n  got  %+v", want, doc.Result)
	}

	// A second identical submission hits the cache, and a distinct slice
	// reuses the pooled simulator instead of building another.
	built := s.pool.Built()
	req2 := req
	req2.Slice = "web/1"
	_, v2 := postJob(t, ts, req2)
	if w := waitJob(t, ts, v2.ID); w.Status != StatusDone {
		t.Fatalf("second slice job: %s (%s)", w.Status, w.Error)
	}
	if got := s.pool.Built(); got != built {
		t.Fatalf("second slice job constructed a simulator: built %d → %d", built, got)
	}

	// Interleave one-shot M7 population jobs with M1..M6 slice jobs. More
	// one-shot configurations pass through than the pool keeps; after the
	// first job builds M1..M6, only each job's own M7 is ever built.
	shipped := core.Generations()
	oneShots := len(shipped) + 3
	for i := 0; i < oneShots; i++ {
		pop := specRequest(workload.SuiteSpec{SlicesPerFamily: 1, InstsPerSlice: 1_000, WarmupFrac: 0.25, Seed: 0xE59})
		pop.M7 = &M7Request{Base: "M1", Name: fmt.Sprintf("M7.%d", i), Predictor: branch.SHPSpec(branch.M1SHPConfig())}
		_, pv := postJob(t, ts, pop)
		if w := waitJob(t, ts, pv.ID); w.Status != StatusDone {
			t.Fatalf("one-shot M7 job %d: %s (%s)", i, w.Status, w.Error)
		}
		if i == 0 {
			built = s.pool.Built()
		}
		sl := req
		sl.Gen, sl.Slice = shipped[i%len(shipped)].Name, fmt.Sprintf("specint/%d", i)
		_, sv := postJob(t, ts, sl)
		if w := waitJob(t, ts, sv.ID); w.Status != StatusDone {
			t.Fatalf("slice job %s %s: %s (%s)", sl.Gen, sl.Slice, w.Status, w.Error)
		}
	}
	if got, want := s.pool.Built()-built, uint64(oneShots-1); got != want {
		t.Fatalf("after the first one-shot job the pool built %d simulators, want %d (one M7 per job)", got, want)
	}
	if s.pool.Evictions() == 0 {
		t.Fatal("one-shot M7 configurations never left the pool")
	}
}

// TestBadSliceNameFailsJob: a slice name workload.ByName cannot
// resolve — unknown family, malformed index, negative index — is
// rejected at submit with 400, and no job is created.
func TestBadSliceNameFailsJob(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, name := range []string{"nosuch/99", "web/x1", "web/-1"} {
		req := specRequest(serveSpec)
		req.Kind = "slice"
		req.Gen, req.Slice = "M1", name
		resp, _ := postJob(t, ts, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("slice %q: status %d, want 400", name, resp.StatusCode)
		}
	}
	if m := metrics(t, ts); m["serve.jobs_submitted"] != 0 {
		t.Fatalf("jobs_submitted = %v, want 0", m["serve.jobs_submitted"])
	}
	s.mu.Lock()
	tracked := len(s.jobs)
	s.mu.Unlock()
	if tracked != 0 {
		t.Fatalf("jobs tracked = %d, want 0", tracked)
	}
}

// TestCheckpointedDrainResumes pins the drain story end to end: a sweep
// canceled by the drain deadline leaves its checkpoint behind, and
// resubmitting the same job on a fresh server resumes from it instead
// of resimulating everything.
func TestCheckpointedDrainResumes(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 1, CheckpointDir: dir})
	ts := httptest.NewServer(s.Handler())

	// Cancel the sweep once it has made some progress.
	_, v := postJob(t, ts, specRequest(serveSpec))
	waitFor(t, func() bool {
		j, ok := s.job(v.ID)
		if !ok {
			return false
		}
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.done >= 3
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_ = s.Shutdown(ctx)
	canceled := getJob(t, ts, v.ID)
	ts.Close()
	if canceled.Status != StatusCanceled {
		t.Fatalf("drained job: %s, want canceled", canceled.Status)
	}

	// Fresh server, same checkpoint dir: the resubmitted job resumes.
	s2 := New(Config{Workers: 1, CheckpointDir: dir})
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	_, v2 := postJob(t, ts2, specRequest(serveSpec))
	done := waitJob(t, ts2, v2.ID)
	if done.Status != StatusDone {
		t.Fatalf("resumed job: %s (%s)", done.Status, done.Error)
	}
	var doc experiments.SummaryDoc
	if err := json.Unmarshal(done.Result, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Resumed == 0 {
		t.Fatal("resubmitted sweep did not resume from the drain checkpoint")
	}
	cells := 6 * len(workload.Suite(serveSpec))
	if sims := s2.Metrics().Get("serve.slice_wall_us.count"); int(sims) != cells-doc.Resumed {
		t.Fatalf("resumed sweep simulated %v cells, want the %d the checkpoint lacked", sims, cells-doc.Resumed)
	}

	// The document, minus the resume provenance, matches a direct run.
	p, err := experiments.Run(context.Background(), serveSpec)
	if err != nil {
		t.Fatal(err)
	}
	want := p.SummaryDoc()
	got := doc
	got.Resumed = 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed summary differs from direct run:\n  want %+v\n  got  %+v", want, got)
	}

	// The resume provenance stays with that job: the same request again
	// is answered from the result store at submit, with no resumed cells.
	resp3, again := postJob(t, ts2, specRequest(serveSpec))
	if resp3.StatusCode != http.StatusOK || !again.Cached {
		t.Fatalf("resubmit: status %d, cached %v; want 200 from the result store", resp3.StatusCode, again.Cached)
	}
	var doc3 experiments.SummaryDoc
	if err := json.Unmarshal(again.Result, &doc3); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc3, want) {
		t.Fatalf("stored resubmit differs from direct run:\n  want %+v\n  got  %+v", want, doc3)
	}
}

func TestJobDigestDistinguishesRequests(t *testing.T) {
	base := specRequest(serveSpec)
	spec, err := base.resolve()
	if err != nil {
		t.Fatal(err)
	}
	d1 := jobDigest(base, spec)

	seededSpec := serveSpec
	seededSpec.Seed++
	seeded := specRequest(seededSpec)
	spec2, err := seeded.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if jobDigest(seeded, spec2) == d1 {
		t.Fatal("different seeds share a digest")
	}

	slice := base
	slice.Kind, slice.Gen, slice.Slice = "slice", "M1", "web/0"
	spec3, err := slice.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if jobDigest(slice, spec3) == d1 {
		t.Fatal("slice job shares the population digest")
	}

	// Preset spelling vs explicit fields: same resolved spec, same digest.
	preset := JobRequest{Kind: "population", Spec: &SpecRequest{Preset: "tiny"}}
	pspec, err := preset.resolve()
	if err != nil {
		t.Fatal(err)
	}
	explicit := specRequest(workload.TinySpec)
	espec, err := explicit.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if jobDigest(preset, pspec) != jobDigest(explicit, espec) {
		t.Fatal("equivalent requests got different digests")
	}
}

// A checkpoint dir that doesn't exist yet is created by the server
// rather than failing every population job.
func TestCheckpointDirCreated(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "ckpts")
	s := New(Config{Workers: 1, CheckpointDir: dir})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, v := postJob(t, ts, specRequest(serveSpec))
	got := waitJob(t, ts, v.ID)
	if got.Status != StatusDone {
		t.Fatalf("job %s: %s (%s)", got.ID, got.Status, got.Error)
	}
	if _, err := os.Stat(filepath.Join(dir, got.Digest+".ckpt")); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
}

// TestJobTableBounded submits past a lowered job-table cap: the oldest
// finished jobs are evicted and answer 404, the listing and healthz
// count stop growing, and a running job is kept however old it is —
// until it finishes and becomes the oldest finished job itself.
func TestJobTableBounded(t *testing.T) {
	release := make(chan struct{})
	var releaseOnce sync.Once
	free := func() { releaseOnce.Do(func() { close(release) }) }
	s := newServer(Config{Workers: 2, QueueDepth: 16})
	s.jobCap = 3
	s.testHook = func(j *Job) {
		if j.req.Slice == "specint/0" {
			<-release
		}
	}
	s.startWorkers()
	defer func() {
		free() // a failed check must not leave Shutdown waiting on the held job
		s.Shutdown(context.Background())
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	slice := func(name string) JobRequest {
		req := specRequest(serveSpec)
		req.Kind, req.Gen, req.Slice = "slice", "M1", name
		return req
	}
	code := func(id string) int {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	tracked := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		if len(s.jobs) != len(s.order) {
			t.Fatalf("job table has %d entries but lists %d", len(s.jobs), len(s.order))
		}
		return len(s.jobs)
	}

	_, held := postJob(t, ts, slice("specint/0"))
	waitFor(t, func() bool { return s.running.Load() == 1 })
	var done []string
	for _, name := range []string{"web/0", "web/1", "mobile/0", "mobile/1", "game/0", "game/1"} {
		resp, v := postJob(t, ts, slice(name))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: %d, want 202", name, resp.StatusCode)
		}
		if got := waitJob(t, ts, v.ID); got.Status != StatusDone {
			t.Fatalf("%s: %s (%s)", name, got.Status, got.Error)
		}
		done = append(done, v.ID)
	}
	waitFor(t, func() bool { return tracked() == 4 })
	for i, id := range done {
		want := http.StatusOK
		if i < len(done)-3 {
			want = http.StatusNotFound
		}
		if got := code(id); got != want {
			t.Errorf("finished job %d (%s): %d, want %d", i, id, got, want)
		}
	}
	if v := getJob(t, ts, held.ID); v.Status != StatusRunning {
		t.Fatalf("oldest job is running but reads %s", v.Status)
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthDoc
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil || h.JobsTracked != 4 {
		t.Fatalf("healthz jobs_tracked = %d (err %v), want 4", h.JobsTracked, err)
	}

	free()
	waitFor(t, func() bool { return s.running.Load() == 0 && tracked() == 3 })
	if got := code(held.ID); got != http.StatusNotFound {
		t.Errorf("held job, oldest once finished: %d, want 404", got)
	}
	for _, id := range done[len(done)-3:] {
		if got := code(id); got != http.StatusOK {
			t.Errorf("newest finished job %s: %d, want 200", id, got)
		}
	}
}

// waitFor spins until cond holds, failing after a generous deadline.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never held")
}

// newHookedServer builds a server whose jobs block in hook — installed
// before the workers start, so no test races the executor.
func newHookedServer(cfg Config, hook func(*Job)) *Server {
	s := newServer(cfg)
	s.testHook = hook
	s.startWorkers()
	return s
}
