// Parked fabric leases over HTTP, and the request-body caps on the
// fabric and job endpoints.
package serve

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"exysim/internal/fabric"
)

type leaseOutcome struct {
	g   *fabric.Grant
	err error
}

// parkHTTPLease joins a worker through cl, starts a lease with a 10s
// wait on its own goroutine, and returns once s counts it as parked.
func parkHTTPLease(t *testing.T, ctx context.Context, s *Server, cl *fabric.Client) (workerID string, res <-chan leaseOutcome) {
	t.Helper()
	doc, err := cl.Join(fabric.JoinRequest{Name: "parked", GensetDigest: fabric.GensetDigest()})
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan leaseOutcome, 1)
	go func() {
		g, err := cl.Lease(ctx, doc.WorkerID, 10*time.Second)
		out <- leaseOutcome{g, err}
	}()
	waitFor(t, func() bool { return s.Metrics().Get("serve.fabric.lease_waiters") == 1 })
	return doc.WorkerID, out
}

// TestFabricHungUpLeaseFreesHandler: a worker that abandons its parked
// lease (its context ends) frees the coordinator's handler at once.
func TestFabricHungUpLeaseFreesHandler(t *testing.T) {
	s := New(Config{Workers: 1, FabricLeaseTTL: 30 * time.Second})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	_, res := parkHTTPLease(t, ctx, s, fabric.NewClient(ts.URL))
	start := time.Now()
	cancel()
	if r := <-res; r.g != nil || !errors.Is(r.err, context.Canceled) {
		t.Fatalf("abandoned lease: grant %v, err %v", r.g, r.err)
	}
	waitFor(t, func() bool { return s.Metrics().Get("serve.fabric.lease_waiters") == 0 })
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("handler held the abandoned lease for %v", d)
	}
}

// TestFabricParkedLeaseOverHTTP: a worker parked in POST
// /v1/fabric/lease is granted a shard as soon as a job is submitted,
// and the parked lease shows on /metrics in both forms.
func TestFabricParkedLeaseOverHTTP(t *testing.T) {
	s := New(Config{Workers: 1, SweepParallelism: 2, FabricLeaseTTL: 30 * time.Second})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.warm.Suite(serveSpec) // generated before the clock starts
	cl := fabric.NewClient(ts.URL)
	id, res := parkHTTPLease(t, context.Background(), s, cl)

	if got := metrics(t, ts)["serve.fabric.lease_waiters"]; got != 1 {
		t.Fatalf("JSON serve.fabric.lease_waiters = %v, want 1", got)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), "\nserve_fabric_lease_waiters 1\n") {
		t.Fatal("Prometheus exposition lacks serve_fabric_lease_waiters 1")
	}

	submitted := time.Now()
	_, v := postJob(t, ts, specRequest(serveSpec))
	r := <-res
	if r.err != nil || r.g == nil {
		t.Fatalf("parked lease returned grant %v, err %v", r.g, r.err)
	}
	if d := time.Since(submitted); d > 2*time.Second {
		t.Fatalf("grant arrived %v after the submit, want well under the 10s wait", d)
	}

	// Hand the shard back: with no worker left, the coordinator's local
	// fallback finishes the sweep.
	if err := cl.Leave(fabric.LeaveRequest{WorkerID: id}); err != nil {
		t.Fatal(err)
	}
	if final := waitJob(t, ts, v.ID); final.Status != StatusDone {
		t.Fatalf("job ended %s: %s", final.Status, final.Error)
	}
}

// TestFabricDrainReleasesParkedLease: draining a server with a worker
// parked in a lease finishes Server.Shutdown and http.Server.Shutdown
// well inside the lease's wait, and leases during the drain answer at
// once.
func TestFabricDrainReleasesParkedLease(t *testing.T) {
	s := New(Config{Workers: 1, FabricLeaseTTL: 30 * time.Second})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	cl := fabric.NewClient("http://" + ln.Addr().String())
	id, res := parkHTTPLease(t, context.Background(), s, cl)

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if r := <-res; r.g != nil || r.err != nil {
		t.Fatalf("parked lease at drain: grant %v, err %v", r.g, r.err)
	}
	if g, err := cl.Lease(ctx, id, 10*time.Second); g != nil || err != nil {
		t.Fatalf("lease during drain: grant %v, err %v", g, err)
	}
	if err := hs.Shutdown(ctx); err != nil {
		t.Fatalf("http.Server.Shutdown: %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("drain took %v with a worker parked for 10s", d)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve: %v", err)
	}
}

// TestRequestBodyCaps: job and fabric bodies past their caps answer
// 413, plain or as gzip that inflates past the cap, while bodies within
// them decode as before. The fabric decoder runs at a 1 KiB cap: at
// maxFabricBody the JSON decoder would buffer 64 MiB.
func TestRequestBodyCaps(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	request := func(path, body string, gz bool) *http.Request {
		if gz {
			var buf bytes.Buffer
			zw := gzip.NewWriter(&buf)
			zw.Write([]byte(body))
			zw.Close()
			body = buf.String()
		}
		r := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		if gz {
			r.Header.Set("Content-Encoding", "gzip")
		}
		return r
	}
	serve := func(r *http.Request) int {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		return w.Code
	}

	// Job submits: one byte past maxJobBody is refused; a small body
	// still reaches validation.
	if code := serve(request("/v1/jobs", `{"spec":{"preset":"`+strings.Repeat("a", maxJobBody)+`"}}`, false)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized job body: %d, want 413", code)
	}
	if code := serve(request("/v1/jobs", `{"spec":{"preset":"nope"}}`, false)); code != http.StatusBadRequest {
		t.Fatalf("small bad job body: %d, want 400", code)
	}
	// A small gzip lease body decodes on the real endpoint: an unknown
	// worker is told to rejoin.
	if code := serve(request("/v1/fabric/lease", `{"worker_id":"ghost"}`, true)); code != http.StatusGone {
		t.Fatalf("small gzip lease: %d, want 410", code)
	}

	const limit = 1 << 10
	long := `{"worker_id":"` + strings.Repeat("a", limit) + `"}`
	bomb := request("/v1/fabric/lease", long, true)
	if bomb.ContentLength >= limit/10 {
		t.Fatalf("compressed body is %d bytes, want it far under the %d-byte cap", bomb.ContentLength, limit)
	}
	for _, tc := range []struct {
		name string
		r    *http.Request
		want int
	}{
		{"plain past the cap", request("/v1/fabric/lease", long, false), http.StatusRequestEntityTooLarge},
		{"gzip inflating past the cap", bomb, http.StatusRequestEntityTooLarge},
		{"gzip within the cap", request("/v1/fabric/lease", `{"worker_id":"w","wait_millis":5}`, true), http.StatusOK},
		{"truncated JSON within the cap", request("/v1/fabric/lease", long[:limit/2], true), http.StatusBadRequest},
	} {
		w := httptest.NewRecorder()
		var req fabric.LeaseRequest
		if decodeFabric(w, tc.r, limit, "lease", &req) {
			w.WriteHeader(http.StatusOK)
		}
		if w.Code != tc.want {
			t.Errorf("%s: %d, want %d", tc.name, w.Code, tc.want)
		}
		if tc.want == http.StatusOK && (req.WorkerID != "w" || req.WaitMillis != 5) {
			t.Errorf("%s: decoded %+v", tc.name, req)
		}
	}
}
