// Trace population endpoints: upload (streaming SimPoint ingest into
// the content-addressed store), listing, metadata, and the binary
// bundle fabric workers fetch to resolve a population they don't hold.
package serve

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"

	"exysim/internal/simpoint"
	"exysim/internal/tracestore"
)

// SetTraceFetcher installs the resolver of last resort for trace
// populations this process doesn't hold locally: worker mode points it
// at the coordinator (HTTPTraceFetcher) so a granted trace shard can be
// computed without the operator pre-seeding every worker's store.
// Fetched populations enter the warm cache's population table, and the
// store when one is open. Call before the worker starts leasing; the
// resolver is read concurrently afterwards.
func (s *Server) SetTraceFetcher(fetch func(id string) (*tracestore.Population, error)) {
	s.traceMu.Lock()
	s.traceFetch = fetch
	s.traceMu.Unlock()
}

// population resolves a trace population id through the warm cache's
// population table; a population the table does not hold is decoded
// from the local store, or else fetched with the installed fetcher and
// kept in the store when one is open. A fetched population's recomputed
// id must match the requested one — a corrupted or mislabeled source is
// an error, not a silently different sweep.
func (s *Server) population(id string) (*tracestore.Population, error) {
	return s.warm.Trace(id, func() (*tracestore.Population, error) {
		if s.store != nil && s.store.Has(id) {
			return s.store.Get(id)
		}
		s.traceMu.Lock()
		fetch := s.traceFetch
		s.traceMu.Unlock()
		if fetch == nil {
			return nil, fmt.Errorf("serve: unknown trace population %q", id)
		}
		pop, err := fetch(id)
		if err != nil {
			return nil, fmt.Errorf("serve: fetch trace population %s: %w", id, err)
		}
		if got := tracestore.PopulationID(pop.Slices, pop.Meta.SimPoint); got != id {
			return nil, fmt.Errorf("serve: fetched trace population %s resolves to %s", id, got)
		}
		if s.store != nil {
			if err := s.store.Put(pop); err != nil {
				return nil, err
			}
		}
		return pop, nil
	})
}

// traceUploadDoc is the POST /v1/traces response.
type traceUploadDoc struct {
	Meta  tracestore.Meta `json:"meta"`
	Dedup bool            `json:"dedup,omitempty"`
}

// handleTraceUpload ingests the request body (a raw or gzip-compressed
// ChampSim trace) under query-parameter options:
//
//	name      population label (required)
//	suite     suite grouping (default "trace")
//	interval  SimPoint interval length in instructions
//	maxk      SimPoint cluster-count cap
//	max       analyze at most this many instructions (0 = all)
//
// The body spools to a temp file because ingest reads the source twice
// (analyze, then extract); the store dedups re-uploads by content.
func (s *Server) handleTraceUpload(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeError(w, http.StatusServiceUnavailable, "no trace store (start with --trace-dir)")
		return
	}
	q := r.URL.Query()
	opts := tracestore.IngestOptions{
		Name:     q.Get("name"),
		Suite:    q.Get("suite"),
		SimPoint: simpoint.DefaultConfig(),
	}
	if opts.Name == "" {
		writeError(w, http.StatusBadRequest, "missing required query parameter: name")
		return
	}
	intArg := func(key string) (int, bool) {
		v := q.Get(key)
		if v == "" {
			return 0, true
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad "+key+": "+v)
			return 0, false
		}
		return n, true
	}
	n, ok := intArg("interval")
	if !ok {
		return
	}
	if n > 0 {
		opts.SimPoint.IntervalInsts = n
	}
	if n, ok = intArg("maxk"); !ok {
		return
	}
	if n > 0 {
		opts.SimPoint.MaxK = n
	}
	if n, ok = intArg("max"); !ok {
		return
	}
	opts.MaxInsts = n

	path, ok := spoolUpload(w, r, s.store.Root(), maxTraceBody)
	if !ok {
		return
	}
	defer os.Remove(path)
	pop, dedup, err := s.store.IngestFile(path, opts)
	if err == nil {
		// Resident from its upload on: the first sweep over it hits.
		_, err = s.warm.AdmitTrace(pop)
	}
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "ingest: "+err.Error())
		return
	}
	status := http.StatusCreated
	if dedup {
		status = http.StatusOK
	}
	s.log.Info("trace ingested", "id", pop.Meta.ID, "name", pop.Meta.Name,
		"slices", len(pop.Slices), "insts", pop.Meta.TotalInsts, "dedup", dedup)
	writeJSON(w, status, traceUploadDoc{Meta: pop.Meta, Dedup: dedup})
}

// maxTraceBody caps a trace upload at 1 GiB. A gzipped ChampSim trace
// of a few hundred thousand instructions is a few MB.
const maxTraceBody = 1 << 30

// spoolUpload copies at most limit bytes of the request body to a new
// temp file in dir and returns its path. A body past the limit answers
// 413, any other read or write error 400; either way the file is
// removed and spoolUpload returns false.
func spoolUpload(w http.ResponseWriter, r *http.Request, dir string, limit int64) (string, bool) {
	tmp, err := os.CreateTemp(dir, "upload-*.trace")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "spool upload: "+err.Error())
		return "", false
	}
	_, err = io.Copy(tmp, http.MaxBytesReader(w, r.Body, limit))
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		writeBodyError(w, "upload", err)
		return "", false
	}
	return tmp.Name(), true
}

func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeError(w, http.StatusServiceUnavailable, "no trace store (start with --trace-dir)")
		return
	}
	metas, err := s.store.List()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"traces": metas})
}

func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	pop, err := s.population(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, pop.Meta)
}

// handleTraceBundle streams the population as a self-verifying binary
// bundle — metadata plus every slice's EXYT encoding, digest-checked on
// read. This is how a fabric worker without the trace pulls it from its
// coordinator before computing a granted shard.
func (s *Server) handleTraceBundle(w http.ResponseWriter, r *http.Request) {
	pop, err := s.population(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := tracestore.WriteBundle(w, pop); err != nil {
		// Headers are gone; all we can do is log and cut the stream so the
		// client's ReadBundle fails its digest check.
		s.log.Warn("bundle write failed", "id", pop.Meta.ID, "err", err)
	}
}

// HTTPTraceFetcher resolves trace populations from another exyserve's
// bundle endpoint — the fetcher worker mode installs, pointed at the
// coordinator it joined.
func HTTPTraceFetcher(base string) func(id string) (*tracestore.Population, error) {
	return func(id string) (*tracestore.Population, error) {
		resp, err := http.Get(base + "/v1/traces/" + id + "/bundle")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			return nil, fmt.Errorf("bundle fetch: %s: %s", resp.Status, body)
		}
		return tracestore.ReadBundle(resp.Body)
	}
}
