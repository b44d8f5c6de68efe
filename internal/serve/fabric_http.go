// Fabric endpoints: the coordinator side of the distributed sweep
// fabric, mounted on the same mux as the job API. Workers are other
// exyserve processes started with --worker --join <this server>; they
// drive these five endpoints through fabric.Client.
//
//	POST /v1/fabric/join       register (409 on generation-set skew)
//	POST /v1/fabric/lease      request work, waiting up to wait_millis
//	                           (capped at a third of the lease TTL) for
//	                           a shard to be queued: 200 with a grant,
//	                           204 when the wait ends with none, 410
//	                           for an unknown worker
//	POST /v1/fabric/complete   upload a shard result (gzip request body)
//	POST /v1/fabric/heartbeat  extend membership and leases (410 unknown)
//	POST /v1/fabric/leave      depart cleanly, releasing leases
//
// Every body is capped at maxFabricBody bytes, both as sent and after
// gzip inflation; a body past either cap answers 413.
package serve

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"time"

	"exysim/internal/fabric"
)

// maxFabricBody caps a fabric request body, compressed and inflated. A
// shard document is about 1.3 KB per slice, so 64 MiB holds a
// 10,000-slice shard several times over.
const maxFabricBody = 64 << 20

// decodeFabric decodes a JSON request body of at most limit bytes,
// transparently inflating a gzip Content-Encoding — shard result
// uploads are compressed by the worker client — to at most limit bytes.
// On failure it answers 400, or 413 past either cap, and reports false.
func decodeFabric(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	body := http.MaxBytesReader(w, r.Body, limit)
	if strings.EqualFold(r.Header.Get("Content-Encoding"), "gzip") {
		zr, err := gzip.NewReader(body)
		if err != nil {
			writeBodyError(w, what, err)
			return false
		}
		defer zr.Close()
		body = http.MaxBytesReader(w, zr, limit)
	}
	if err := json.NewDecoder(body).Decode(v); err != nil {
		writeBodyError(w, what, err)
		return false
	}
	return true
}

// writeBodyError answers a request whose body could not be read: 413
// when it passed a size cap, 400 otherwise.
func writeBodyError(w http.ResponseWriter, what string, err error) {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(w, status, "bad "+what+" body: "+err.Error())
}

// fabricError maps the coordinator's sentinel errors onto the wire:
// 410 Gone tells a worker to rejoin, 409 Conflict refuses version skew.
func fabricError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, fabric.ErrUnknownWorker):
		writeError(w, http.StatusGone, err.Error())
	case errors.Is(err, fabric.ErrVersionSkew):
		writeError(w, http.StatusConflict, err.Error())
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

func (s *Server) handleFabricJoin(w http.ResponseWriter, r *http.Request) {
	var req fabric.JoinRequest
	if !decodeFabric(w, r, maxFabricBody, "join", &req) {
		return
	}
	doc, err := s.fabric.Join(req)
	if err != nil {
		fabricError(w, err)
		return
	}
	s.log.Info("fabric worker joined", "worker", doc.WorkerID)
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleFabricLease(w http.ResponseWriter, r *http.Request) {
	var req fabric.LeaseRequest
	if !decodeFabric(w, r, maxFabricBody, "lease", &req) {
		return
	}
	// The request's context ends the wait when the worker hangs up.
	grant, err := s.fabric.Lease(r.Context(), req.WorkerID, time.Duration(req.WaitMillis)*time.Millisecond)
	if err != nil {
		fabricError(w, err)
		return
	}
	if grant == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, grant)
}

func (s *Server) handleFabricComplete(w http.ResponseWriter, r *http.Request) {
	var req fabric.CompleteRequest
	if !decodeFabric(w, r, maxFabricBody, "complete", &req) {
		return
	}
	if err := s.fabric.Complete(req); err != nil {
		fabricError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleFabricHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req fabric.HeartbeatRequest
	if !decodeFabric(w, r, maxFabricBody, "heartbeat", &req) {
		return
	}
	if err := s.fabric.Heartbeat(req); err != nil {
		fabricError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleFabricLeave(w http.ResponseWriter, r *http.Request) {
	var req fabric.LeaveRequest
	if !decodeFabric(w, r, maxFabricBody, "leave", &req) {
		return
	}
	if err := s.fabric.Leave(req); err != nil {
		fabricError(w, err)
		return
	}
	s.log.Info("fabric worker left", "worker", req.WorkerID)
	w.WriteHeader(http.StatusNoContent)
}

// gzipHandler compresses responses for clients that accept it. Streams
// are exempt (compression would buffer the progress frames the Flusher
// is trying to push) and so is pprof (its responses are already
// length-sensitive binaries).
func gzipHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") ||
			strings.HasSuffix(r.URL.Path, "/stream") ||
			strings.HasPrefix(r.URL.Path, "/debug/pprof") {
			next.ServeHTTP(w, r)
			return
		}
		gw := &gzipResponseWriter{rw: w}
		defer gw.close()
		next.ServeHTTP(gw, r)
	})
}

// gzipResponseWriter defers the compress/no-compress decision to
// WriteHeader time so bodyless statuses (204, 304) pass through without
// an empty gzip frame.
type gzipResponseWriter struct {
	rw          http.ResponseWriter
	zw          *gzip.Writer
	wroteHeader bool
}

func (g *gzipResponseWriter) Header() http.Header { return g.rw.Header() }

func (g *gzipResponseWriter) WriteHeader(status int) {
	if g.wroteHeader {
		return
	}
	g.wroteHeader = true
	if status == http.StatusNoContent || status == http.StatusNotModified {
		g.rw.WriteHeader(status)
		return
	}
	h := g.rw.Header()
	h.Del("Content-Length")
	h.Set("Content-Encoding", "gzip")
	h.Add("Vary", "Accept-Encoding")
	g.rw.WriteHeader(status)
	g.zw = gzip.NewWriter(g.rw)
}

func (g *gzipResponseWriter) Write(p []byte) (int, error) {
	if !g.wroteHeader {
		g.WriteHeader(http.StatusOK)
	}
	if g.zw != nil {
		return g.zw.Write(p)
	}
	return g.rw.Write(p)
}

func (g *gzipResponseWriter) close() {
	if g.zw != nil {
		g.zw.Close()
	}
}
