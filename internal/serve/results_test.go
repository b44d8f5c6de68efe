package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"exysim/internal/experiments"
)

// TestResultCacheLRU: a server's result store holds ResultBudget bytes
// of cells, evicting the least recently used; a slice job answered at
// submit counts as a use, an evicted cell's job is simulated again, and
// a negative budget stores nothing.
func TestResultCacheLRU(t *testing.T) {
	// submit runs the slice job (gen, web/0) and reports whether the
	// result store answered it at submit.
	submit := func(ts *httptest.Server, gen string) (cached bool) {
		t.Helper()
		req := specRequest(serveSpec)
		req.Kind, req.Gen, req.Slice = "slice", gen, "web/0"
		resp, v := postJob(t, ts, req)
		switch resp.StatusCode {
		case http.StatusOK:
			return v.Cached
		case http.StatusAccepted:
			if v := waitJob(t, ts, v.ID); v.Status != StatusDone {
				t.Fatalf("slice job %s: %s (%s)", gen, v.Status, v.Error)
			}
			return false
		}
		t.Fatalf("slice job %s: status %d", gen, resp.StatusCode)
		return false
	}

	s := New(Config{Workers: 1, ResultBudget: 2 * experiments.CellBytes})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, step := range []struct {
		gen    string
		cached bool
	}{
		{"M1", false},
		{"M2", false},
		{"M1", true},  // M2 is now the least recently used
		{"M3", false}, // evicts M2
		{"M1", true},
		{"M2", false}, // simulated again; evicts M3
		{"M1", true},
	} {
		if got := submit(ts, step.gen); got != step.cached {
			t.Fatalf("slice job %s: cached %v, want %v", step.gen, got, step.cached)
		}
	}
	if m := metrics(t, ts); m["serve.results.cells"] != 2 || m["serve.results.evictions"] != 2 {
		t.Fatalf("result store: %v cells, %v evictions; want 2 and 2", m["serve.results.cells"], m["serve.results.evictions"])
	}

	off := New(Config{Workers: 1, ResultBudget: -1})
	defer off.Shutdown(context.Background())
	ots := httptest.NewServer(off.Handler())
	defer ots.Close()
	for range 2 {
		if submit(ots, "M1") {
			t.Fatal("a disabled result store answered a job")
		}
	}
}
