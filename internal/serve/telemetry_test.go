// Tests for the serving daemon's telemetry surface: /metrics content
// negotiation (Prometheus default, JSON on request), the /healthz
// operational document, latency histogram population, and structured
// logging keyed by job digest.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"exysim/internal/branch"
	"exysim/internal/obs"
)

// TestMetricsContentNegotiation: /metrics defaults to Prometheus text
// exposition; JSON is served for ?format=json and Accept:
// application/json.
func TestMetricsContentNegotiation(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentTypePrometheus {
		t.Fatalf("default content type = %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE serve_jobs_submitted counter",
		"# TYPE serve_queue_depth gauge",
		"# TYPE serve_queue_wait_us histogram",
		`serve_queue_wait_us_bucket{le="+Inf"} 0`,
		"serve_slice_wall_us_count 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus exposition missing %q:\n%s", want, text)
		}
	}

	// JSON via query parameter.
	resp, err = ts.Client().Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]float64
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("?format=json did not return JSON: %v", err)
	}
	if _, ok := m["serve.jobs_submitted"]; !ok {
		t.Fatalf("JSON exposition missing serve.jobs_submitted: %v", m)
	}

	// JSON via Accept header.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/json")
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Accept negotiation content type = %q", ct)
	}
}

// TestHealthzDoc pins the health document's shape and sanity: uptime
// advances, queue/running/cache reflect server state.
func TestHealthzDoc(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthDoc
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Draining {
		t.Fatalf("healthz = %+v", h)
	}
	if h.UptimeSeconds <= 0 {
		t.Fatalf("uptime not advancing: %+v", h)
	}
	if h.QueueDepth != 0 || h.JobsRunning != 0 || h.JobsTracked != 0 || h.ResultCells != 0 {
		t.Fatalf("idle server reports activity: %+v", h)
	}
}

// TestServeLatencyHistograms: one completed sweep populates queue-wait,
// run-duration, slice-wall, and heartbeat histograms, and the result
// store reports the job's cells.
func TestServeLatencyHistograms(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewTextHandler(lockedWriter{&mu, &buf}, nil))
	s := New(Config{Logger: logger})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, v := postJob(t, ts, specRequest(serveSpec))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	done := waitJob(t, ts, v.ID)
	if done.Status != StatusDone {
		t.Fatalf("job status = %s (%s)", done.Status, done.Error)
	}

	m := metrics(t, ts)
	if m["serve.queue_wait_us.count"] != 1 {
		t.Fatalf("queue_wait count = %v", m["serve.queue_wait_us.count"])
	}
	if m["serve.run_us.count"] != 1 {
		t.Fatalf("run count = %v", m["serve.run_us.count"])
	}
	// 6 generations × 9 slices of the tiny serve spec.
	if m["serve.slice_wall_us.count"] != 54 {
		t.Fatalf("slice_wall count = %v", m["serve.slice_wall_us.count"])
	}
	if m["serve.heartbeat_gap_us.count"] == 0 {
		t.Fatal("no heartbeat gaps recorded")
	}
	if m["serve.cache_misses"] != 1 {
		t.Fatalf("cache_misses = %v", m["serve.cache_misses"])
	}
	if m["serve.results.cells"] != 54 {
		t.Fatalf("results.cells = %v, want the job's 54", m["serve.results.cells"])
	}

	// The Prometheus view exposes the same histograms as bucket series.
	presp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	ptext, _ := io.ReadAll(presp.Body)
	presp.Body.Close()
	if !strings.Contains(string(ptext), "serve_run_us_count 1") {
		t.Fatalf("prometheus missing run histogram:\n%s", ptext)
	}

	// Structured logs carry the job's digest through its lifecycle.
	mu.Lock()
	logs := buf.String()
	mu.Unlock()
	for _, want := range []string{"job queued", "job started", "job done", "digest=" + done.Digest} {
		if !strings.Contains(logs, want) {
			t.Fatalf("logs missing %q:\n%s", want, logs)
		}
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

// TestAdmissionMetricsExported: /metrics exports the pool's evictions,
// in the Prometheus and the JSON form, with the count the pool holds:
// the second of two one-shot M7 jobs pushes the first one's idle
// simulator out of the pool.
func TestAdmissionMetricsExported(t *testing.T) {
	s := New(Config{Workers: 1, SweepParallelism: 1})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		req := specRequest(serveSpec)
		req.M7 = &M7Request{Base: "M1", Name: fmt.Sprintf("M7.%d", i), Predictor: branch.SHPSpec(branch.M1SHPConfig())}
		_, v := postJob(t, ts, req)
		if done := waitJob(t, ts, v.ID); done.Status != StatusDone {
			t.Fatalf("job %d: %s (%s)", i, done.Status, done.Error)
		}
	}
	if evictions := s.pool.Evictions(); evictions != 1 {
		t.Fatalf("pool evictions %d; want one", evictions)
	}

	m := metrics(t, ts)
	if m["serve.pool.evictions"] != 1 {
		t.Fatalf("JSON metrics: evictions %v; want 1", m["serve.pool.evictions"])
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"# TYPE serve_pool_evictions counter",
		"serve_pool_evictions 1\n",
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("prometheus exposition missing %q:\n%s", want, text)
		}
	}
}
