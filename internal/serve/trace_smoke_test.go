// Trace pipeline smoke: a ChampSim fixture uploaded through POST
// /v1/traces becomes a content-addressed, SimPoint-weighted population;
// sweeping it single-process, and again through the fabric with workers
// that resolve the population over HTTP (one store-less, one caching
// into its own store), must produce byte-identical weighted summary
// documents. `make trace-smoke` runs this as the tier-1 gate for the
// real-trace pipeline.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"exysim/internal/experiments"
	"exysim/internal/fabric"
	"exysim/internal/simpoint"
	"exysim/internal/tracestore"
	"exysim/internal/workload"
)

const traceFixture = "../tracestore/testdata/fixture.champsim.gz"

// uploadFixture POSTs the committed ChampSim fixture with SimPoint
// options small enough to yield several weighted slices.
func uploadFixture(t *testing.T, ts *httptest.Server) traceUploadDoc {
	t.Helper()
	f, err := os.Open(traceFixture)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	resp, err := ts.Client().Post(ts.URL+"/v1/traces?name=fixture&interval=6000&maxk=4",
		"application/octet-stream", f)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: %s", resp.Status)
	}
	var doc traceUploadDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestTracePipelineEndToEnd(t *testing.T) {
	// Coordinator A holds the trace store. Its result store is off: the
	// worker-less reference sweep below goes through the coordinator too,
	// and with the store on the fabric re-run would leave its workers
	// nothing to compute.
	a := New(Config{
		Workers:           2,
		SweepParallelism:  2,
		ResultBudget:      -1,
		TraceDir:          t.TempDir(),
		FabricShardSlices: 2,
	})
	defer a.Shutdown(context.Background())
	ts := httptest.NewServer(a.Handler())
	defer ts.Close()

	up := uploadFixture(t, ts)
	if up.Dedup {
		t.Fatal("first upload reported dedup")
	}
	id := up.Meta.ID
	if id == "" || len(up.Meta.Slices) < 2 {
		t.Fatalf("upload produced a degenerate population: %+v", up.Meta)
	}
	for _, sm := range up.Meta.Slices {
		if sm.Weight <= 0 {
			t.Fatalf("slice %s has no SimPoint weight", sm.Name)
		}
	}

	// Re-upload of the same bytes: answered from the store.
	if up2 := uploadFixture(t, ts); !up2.Dedup || up2.Meta.ID != id {
		t.Fatalf("re-upload not deduped: %+v", up2)
	}

	// Listing and metadata lookup see the population.
	var list struct {
		Traces []tracestore.Meta `json:"traces"`
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Traces) != 1 || list.Traces[0].ID != id {
		t.Fatalf("trace listing = %+v, want the uploaded population", list.Traces)
	}
	if r, err := ts.Client().Get(ts.URL + "/v1/traces/" + id); err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("GET trace meta: %v %v", err, r.Status)
	} else {
		r.Body.Close()
	}

	// Unknown trace ids and non-population kinds fail at submit.
	if r, _ := postJob(t, ts, JobRequest{Trace: "feedfacefeedface"}); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown trace accepted: %s", r.Status)
	}
	if r, _ := postJob(t, ts, JobRequest{Kind: "slice", Gen: "M4", Slice: "web/0", Trace: id}); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("slice job with trace accepted: %s", r.Status)
	}

	// Reference: the single-process sweep (no fabric workers yet).
	req := specRequest(serveSpec)
	req.Trace = id
	_, v := postJob(t, ts, req)
	final := waitJob(t, ts, v.ID)
	if final.Status != StatusDone {
		t.Fatalf("trace sweep ended %s: %s", final.Status, final.Error)
	}
	var refDoc experiments.SummaryDoc
	if err := json.Unmarshal(final.Result, &refDoc); err != nil {
		t.Fatal(err)
	}
	if refDoc.Trace != id {
		t.Fatalf("summary trace = %q, want %q", refDoc.Trace, id)
	}
	if len(refDoc.WeightedMeans) == 0 {
		t.Fatal("trace sweep produced no weighted means")
	}
	if refDoc.Slices != len(up.Meta.Slices) {
		t.Fatalf("summary covers %d slices, population has %d", refDoc.Slices, len(up.Meta.Slices))
	}
	want, _ := json.Marshal(refDoc)

	// Fabric: two workers that do NOT hold the population. C is
	// store-less (its population table only), D caches the fetched
	// bundle into its own store. Both resolve from A's bundle endpoint
	// on first grant.
	c := New(Config{Workers: 1, SweepParallelism: 2})
	defer c.Shutdown(context.Background())
	c.SetTraceFetcher(HTTPTraceFetcher(ts.URL))
	d := New(Config{Workers: 1, SweepParallelism: 2, TraceDir: t.TempDir()})
	defer d.Shutdown(context.Background())
	d.SetTraceFetcher(HTTPTraceFetcher(ts.URL))

	ctx, cancelAll := context.WithCancel(context.Background())
	defer cancelAll()
	var wg sync.WaitGroup
	for i, srv := range []*Server{c, d} {
		w := fabric.NewWorker(fabric.NewClient(ts.URL), fmt.Sprintf("tw%d", i), srv.ShardRunner())
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for a.Fabric().LiveWorkers() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("fabric workers never joined")
		}
		time.Sleep(5 * time.Millisecond)
	}

	granted := a.Fabric().Stats().LeasesGranted
	_, v2 := postJob(t, ts, req)
	final2 := waitJob(t, ts, v2.ID)
	if final2.Status != StatusDone {
		t.Fatalf("fabric trace sweep ended %s: %s", final2.Status, final2.Error)
	}
	if st := a.Fabric().Stats(); st.LeasesGranted == granted {
		t.Fatal("the fabric sweep granted no lease: its workers computed nothing")
	}
	var fabDoc experiments.SummaryDoc
	if err := json.Unmarshal(final2.Result, &fabDoc); err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(fabDoc)
	if !bytes.Equal(got, want) {
		t.Fatalf("fabric trace sweep differs from single-process run:\n  want: %s\n  got:  %s", want, got)
	}

	// The workers really resolved over HTTP: D's store now holds the
	// population. Store-less C fetched it once, on its first grant, and
	// answers the next resolution from its population table.
	if !d.store.Has(id) {
		t.Fatal("worker with a store did not cache the fetched population")
	}
	fetched := c.table.Stats()
	if fetched.TraceMisses != 1 {
		t.Fatalf("store-less worker resolved the population with %d fetches, want 1", fetched.TraceMisses)
	}
	if _, err := c.population(id); err != nil {
		t.Fatal(err)
	}
	if st := c.table.Stats(); st.TraceMisses != 1 || st.TraceHits != fetched.TraceHits+1 {
		t.Fatalf("store-less worker's next resolution: %d hits, %d fetches; want %d and 1",
			st.TraceHits, st.TraceMisses, fetched.TraceHits+1)
	}

	// A corrupted or mislabeled bundle is rejected by content check.
	if _, err := c.population("feedfacefeedface"); err == nil {
		t.Fatal("fetching an unknown id must fail")
	}

	// The store surfaces on /metrics.
	snap := a.Metrics()
	if snap.Get("serve.tracestore.populations") < 1 {
		t.Fatalf("serve.tracestore.populations = %v, want >= 1", snap.Get("serve.tracestore.populations"))
	}

	cancelAll()
	wg.Wait()
}

// TestTraceUploadBodyCap drives the upload spooler at a 1 KiB cap: one
// byte past it answers 413 and leaves no spool file behind, a body at
// the cap spools intact. The endpoint runs the same spooler at
// maxTraceBody.
func TestTraceUploadBodyCap(t *testing.T) {
	const limit = 1 << 10
	dir := t.TempDir()
	spool := func(body []byte) (int, string, bool) {
		w := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodPost, "/v1/traces?name=x", bytes.NewReader(body))
		path, ok := spoolUpload(w, r, dir, limit)
		return w.Code, path, ok
	}
	if code, _, ok := spool(bytes.Repeat([]byte{0xA5}, limit+1)); ok || code != http.StatusRequestEntityTooLarge {
		t.Fatalf("upload one byte past the cap: ok=%v, %d, want 413", ok, code)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("refused upload left %d spool files", len(left))
	}
	body := bytes.Repeat([]byte{0x5A}, limit)
	_, path, ok := spool(body)
	if !ok {
		t.Fatal("upload at the cap refused")
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("spooled upload differs from the body (err %v)", err)
	}
}

// TestTraceGetReadsMetadataOnly: GET /v1/traces/{id} of a population on
// disk but not resident answers its metadata without resolving it — no
// trace miss, nothing admitted to the population table — an unknown id
// answers 404, and a server without a store 503.
func TestTraceGetReadsMetadataOnly(t *testing.T) {
	dir := t.TempDir()
	st, err := tracestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.SuiteSpec{SlicesPerFamily: 1, InstsPerSlice: 2_000, WarmupFrac: 0.25, Seed: 7}
	pop := tracestore.NewPopulation("disk", "trace", workload.Suite(spec), &simpoint.Result{Cfg: simpoint.DefaultConfig()})
	if err := st.Put(pop); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, TraceDir: dir})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	before := metrics(t, ts)
	resp, err := ts.Client().Get(ts.URL + "/v1/traces/" + pop.Meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	var meta tracestore.Meta
	err = json.NewDecoder(resp.Body).Decode(&meta)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || meta.ID != pop.Meta.ID {
		t.Fatalf("GET: %d, id %q, %v", resp.StatusCode, meta.ID, err)
	}
	after := metrics(t, ts)
	for _, k := range []string{"serve.warm.populations", "serve.tracestore.misses"} {
		if after[k] != before[k] {
			t.Fatalf("%s moved %v → %v: the GET resolved the population", k, before[k], after[k])
		}
	}
	if r, err := ts.Client().Get(ts.URL + "/v1/traces/nope"); err != nil || r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: %v %v", r, err)
	}

	bs := New(Config{Workers: 1})
	defer bs.Shutdown(context.Background())
	bare := httptest.NewServer(bs.Handler())
	defer bare.Close()
	if r, err := bare.Client().Get(bare.URL + "/v1/traces/" + pop.Meta.ID); err != nil || r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("no store: %v %v", r, err)
	}
}
