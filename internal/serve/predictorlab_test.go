// Serving-layer predictor-lab tests: the versioned request schema's
// backward-compatibility contract (every pre-v2 bare form keeps
// working, byte-for-byte on digests), its validation surface, and the
// M7 acceptance — a hypothetical-generation sweep submitted through
// POST /v1/jobs must return byte-identical SummaryDocs across the
// single-process, warm-pooled-rerun, and fabric-worker paths. `make
// predictor-smoke` runs this (race-enabled) as part of the tier-1 gate.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"exysim/internal/branch"
	"exysim/internal/experiments"
	"exysim/internal/fabric"
	"exysim/internal/workload"
)

// m7Predictor is the lab spec these tests sweep: TAGE-SC-L direction
// prediction plus ITTAGE indirect targets.
func m7Predictor() branch.PredictorSpec {
	spec := branch.TAGESpec(branch.M7TAGEConfig())
	ind := branch.M7ITTAGEConfig()
	spec.Indirect = &ind
	return spec
}

// postRaw submits a raw JSON body, so compat tests exercise the exact
// wire bytes old clients send (including unknown-field rejection).
func postRaw(t *testing.T, ts *httptest.Server, body string) (*http.Response, JobView, string) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	var errBody struct {
		Error string `json:"error"`
	}
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	} else {
		_ = json.NewDecoder(resp.Body).Decode(&errBody)
	}
	return resp, v, errBody.Error
}

// TestJobRequestSchemaCompat pins the request-schema contract on a
// server with no running workers, so submissions validate and enqueue
// without executing.
func TestJobRequestSchemaCompat(t *testing.T) {
	s := newServer(Config{QueueDepth: 64})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Forms without a spec or a schema_version stay accepted: nil spec
	// means the tiny preset, an unset version means 2.
	for _, body := range []string{
		`{}`,
		`{"kind":"population"}`,
		`{"kind":"slice","gen":"M4","slice":"web/0"}`,
		`{"schema_version":2,"spec":{"preset":"tiny"}}`,
	} {
		resp, _, errMsg := postRaw(t, ts, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("form %s rejected: %d %s", body, resp.StatusCode, errMsg)
		}
	}

	// The pre-v2 flat spelling and schema_version 1 are retired.
	legacy := []string{
		`{"preset":"tiny"}`,
		`{"kind":"population","preset":"quick","slices_per_family":1,"insts_per_slice":4000,"warmup_frac":0.25,"seed":3673}`,
		`{"schema_version":1,"preset":"tiny"}`,
		`{"schema_version":1}`,
		`{"spec":{"preset":"tiny"},"preset":"tiny"}`,
	}
	for _, body := range legacy {
		resp, _, _ := postRaw(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("legacy form %s: status %d, want 400", body, resp.StatusCode)
		}
	}

	// Digests hash the resolved spec and name the <digest>.ckpt files,
	// so they must not move: these literals predate
	// the flat spelling's retirement.
	nestedBody := `{"schema_version":2,"kind":"population","spec":{"preset":"quick","slices_per_family":2,"insts_per_slice":5000,"warmup_frac":0.25,"seed":229}}`
	_, nested, _ := postRaw(t, ts, nestedBody)
	if nested.Digest != "0c18157c7b4a1b74" {
		t.Fatalf("nested request digest %q, want 0c18157c7b4a1b74", nested.Digest)
	}

	// An M7 request is a different computation: different digest.
	m7Body := `{"kind":"population","spec":{"preset":"quick","slices_per_family":2,"insts_per_slice":5000,"warmup_frac":0.25,"seed":229},` +
		`"m7":{"predictor":{"kind":"tage-sc-l"}}}`
	_, m7v, _ := postRaw(t, ts, m7Body)
	if m7v.Digest != "0ff3e00067a2470b" {
		t.Fatalf("M7 request digest %q, want 0ff3e00067a2470b", m7v.Digest)
	}
	// ...and so is the same M7 with different geometry.
	m7Body2 := strings.Replace(m7Body, `{"kind":"tage-sc-l"}`, `{"kind":"tage-sc-l","indirect":`+mustJSON(t, branch.M7ITTAGEConfig())+`}`, 1)
	_, m7v2, _ := postRaw(t, ts, m7Body2)
	if m7v2.Digest == "" || m7v2.Digest == m7v.Digest {
		t.Fatal("differently-specced M7 requests must digest differently")
	}

	// Validation surface.
	rejected := []struct{ body, wantErr string }{
		{`{"schema_version":3}`, "unsupported schema_version"},
		{`{"schema_version":1,"spec":{"preset":"tiny"}}`, "schema_version"},
		{`{"schema_version":1,"m7":{"predictor":{}}}`, "schema_version"},
		{`{"preset":"tiny"}`, "unknown field"},
		{`{"kind":"slice","gen":"M4","slice":"web/0","m7":{"predictor":{}}}`, "m7 is only valid"},
		{`{"m7":{"predictor":{"kind":"perceptron-9000"}}}`, "unknown predictor kind"},
		{`{"m7":{"base":"M9","predictor":{}}}`, "unknown baseline"},
		{`{"m7":{"name":"M3","predictor":{}}}`, "collides"},
		{`{"m7":{"predictor":{"indirect":{"banks":-1}}}}`, "invalid predictor geometry"},
		{`{"m7":{"predictor":{"kind":"tage-sc-l","bogus_field":1}}}`, "bogus_field"},
	}
	for _, tc := range rejected {
		resp, _, errMsg := postRaw(t, ts, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.body, resp.StatusCode)
		}
		if !strings.Contains(errMsg, tc.wantErr) {
			t.Fatalf("%s: error %q does not mention %q", tc.body, errMsg, tc.wantErr)
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// m7Request is the canonical M7 submission these tests run.
func m7Request() JobRequest {
	req := specRequest(serveSpec)
	pred := m7Predictor()
	req.M7 = &M7Request{Base: "M6", Name: "M7", Predictor: pred}
	return req
}

// canonicalDoc re-marshals a result document so indentation differences
// from the HTTP encoder cannot mask or fake a mismatch.
func canonicalDoc(t *testing.T, raw json.RawMessage) []byte {
	t.Helper()
	var doc experiments.SummaryDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("bad result document: %v", err)
	}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestM7SubmitThreePathsBitIdentical is the tentpole acceptance: an M7
// population sweep submitted via POST /v1/jobs returns a SummaryDoc
// with all of M1..M6 plus the hypothetical generation, byte-identical
// whether the server ran it single-process, reran it on pooled
// simulators, sharded it across a fabric worker, or answered it from
// the result store.
func TestM7SubmitThreePathsBitIdentical(t *testing.T) {
	spec := serveSpec.Normalize()
	gens, err := experiments.HypotheticalGens("M6", "M7", m7Predictor())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := experiments.Run(context.Background(), spec, experiments.WithGenerations(gens))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref.SummaryDoc())
	if err != nil {
		t.Fatal(err)
	}

	// Paths 1 and 2: single-process cold, then a pooled rerun on the
	// same server (result store off, so the resubmit recomputes on the
	// simulators the first run returned to the pool).
	s := New(Config{Workers: 1, ResultBudget: -1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, label := range []string{"single-process", "pooled rerun"} {
		resp, v := postJob(t, ts, m7Request())
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s submit: %d", label, resp.StatusCode)
		}
		final := waitJob(t, ts, v.ID)
		if final.Status != StatusDone {
			t.Fatalf("%s: %s: %s", label, final.Status, final.Error)
		}
		if got := canonicalDoc(t, final.Result); !bytes.Equal(got, want) {
			t.Fatalf("%s result differs from experiments.Run reference:\n want %s\n got  %s", label, want, got)
		}
	}

	// Path 3: a separate server whose sweep routes through the fabric to
	// an HTTP worker (the worker runs another server's shard runner,
	// like `exyserve --worker`).
	s2 := New(Config{Workers: 1, SweepParallelism: 2, FabricShardSlices: 4})
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	ws := newServer(Config{}) // worker-side pool and table, no HTTP jobs
	defer ws.Shutdown(context.Background())
	wctx, stopWorker := context.WithCancel(context.Background())
	defer stopWorker()
	w := fabric.NewWorker(fabric.NewClient(ts2.URL), "m7-worker", ws.ShardRunner())
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		w.Run(wctx)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s2.Fabric().LiveWorkers() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("worker never joined")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, v := postJob(t, ts2, m7Request())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fabric submit: %d", resp.StatusCode)
	}
	final := waitJob(t, ts2, v.ID)
	if final.Status != StatusDone {
		t.Fatalf("fabric job: %s: %s", final.Status, final.Error)
	}
	if got := canonicalDoc(t, final.Result); !bytes.Equal(got, want) {
		t.Fatalf("fabric-worker result differs from reference:\n want %s\n got  %s", want, got)
	}

	// The document really carries the extra column.
	var doc experiments.SummaryDoc
	if err := json.Unmarshal(final.Result, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Generations) != 7 || doc.Generations[6] != "M7" {
		t.Fatalf("generations = %v, want M1..M6 plus M7", doc.Generations)
	}
	if _, ok := doc.Means["mpki"]["M7"]; !ok {
		t.Fatalf("no M7 MPKI mean in %v", doc.Means)
	}

	// Path 4: the same job again on the fabric server: every cell comes
	// from the result store the worker's shards filled, at submit.
	before := s2.Metrics()
	resp, v = postJob(t, ts2, m7Request())
	if resp.StatusCode != http.StatusOK || !v.Cached {
		t.Fatalf("stored resubmit: status %d, cached %v; want 200 from the result store", resp.StatusCode, v.Cached)
	}
	if got := canonicalDoc(t, v.Result); !bytes.Equal(got, want) {
		t.Fatalf("stored result differs from reference:\n want %s\n got  %s", want, got)
	}
	after := s2.Metrics()
	if after.Get("serve.fabric.shards_planned") != before.Get("serve.fabric.shards_planned") ||
		after.Get("serve.fabric.leases_granted") != before.Get("serve.fabric.leases_granted") {
		t.Fatal("stored resubmit planned or leased shards")
	}

	stopWorker()
	<-workerDone
}

// TestM7WorkerlessReusesShardCache: on a daemon with no fabric worker,
// an M7 sweep after a plain one takes M1..M6 from the result store and
// simulates only the M7 column, and its document is byte-identical to
// experiments.Run over the hypothetical generation set — over the
// synthetic suite and over an uploaded trace population.
func TestM7WorkerlessReusesShardCache(t *testing.T) {
	gens, err := experiments.HypotheticalGens("M6", "M7", m7Predictor())
	if err != nil {
		t.Fatal(err)
	}
	const shardSlices = 4
	for _, trace := range []bool{false, true} {
		name := "synthetic"
		if trace {
			name = "trace"
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{Workers: 1, SweepParallelism: 2, FabricShardSlices: shardSlices}
			if trace {
				cfg.TraceDir = t.TempDir()
			}
			s := New(cfg)
			defer s.Shutdown(context.Background())
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			plain := specRequest(serveSpec)
			opts := []experiments.Option{experiments.WithGenerations(gens)}
			slices := workload.Suite(serveSpec)
			if trace {
				pop, err := s.population(uploadFixture(t, ts).Meta.ID)
				if err != nil {
					t.Fatal(err)
				}
				plain.Trace, slices = pop.Meta.ID, pop.Slices
				opts = append(opts, experiments.WithPopulation(pop.Meta.ID, pop.Slices))
			}
			ref, err := experiments.Run(context.Background(), serveSpec, opts...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(ref.SummaryDoc())
			if err != nil {
				t.Fatal(err)
			}
			run := func(req JobRequest) json.RawMessage {
				t.Helper()
				resp, v := postJob(t, ts, req)
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("submit: %d", resp.StatusCode)
				}
				final := waitJob(t, ts, v.ID)
				if final.Status != StatusDone {
					t.Fatalf("job: %s: %s", final.Status, final.Error)
				}
				return final.Result
			}

			run(plain)
			before := s.Metrics()
			m7 := plain
			m7.M7 = &M7Request{Base: "M6", Name: "M7", Predictor: m7Predictor()}
			if got := canonicalDoc(t, run(m7)); !bytes.Equal(got, want) {
				t.Fatalf("worker-less M7 sweep differs from experiments.Run:\n want %s\n got  %s", want, got)
			}
			after := s.Metrics()
			delta := func(name string) float64 { return after.Get(name) - before.Get(name) }
			if got := delta("serve.fabric.cell_hits"); got != float64(6*len(slices)) {
				t.Fatalf("cell hits = %v, want the %d cells of M1..M6", got, 6*len(slices))
			}
			perGen := len(experiments.PlanShards(1, len(slices), shardSlices))
			if got := delta("serve.fabric.shards_planned"); got != float64(7*perGen) {
				t.Fatalf("shards planned = %v, want the %d a cold sweep plans", got, 7*perGen)
			}
			if got := delta("serve.slice_wall_us.count"); got != float64(len(slices)) {
				t.Fatalf("simulated %v slices, want only the %d of the M7 column", got, len(slices))
			}
			if got := delta("serve.fabric.local_runs"); got != 1 {
				t.Fatalf("local runs = %v, want one batch", got)
			}
			if n := s.table.Stats().SuiteMisses; trace && n != 0 {
				t.Fatalf("trace jobs generated %d synthetic suites they never sweep", n)
			}
		})
	}
}
