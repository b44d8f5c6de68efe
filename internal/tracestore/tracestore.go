// Package tracestore is the content-addressed local store for ingested
// trace populations: the weighted SimPoint slices cut from one real
// (e.g. ChampSim) trace, persisted once and shared across jobs and
// fabric workers. A population's identity is a digest over its slices'
// content hashes (trace.Slice.Digest) plus the SimPoint configuration
// that produced them, so two ingests of the same trace bytes with the
// same settings collapse to one entry — on disk and in every process
// that loads it.
//
// On disk, each population is one directory under the store root:
//
//	<root>/<id>/meta.json     population metadata (Meta)
//	<root>/<id>/slice-N.exyt  one EXYT stream per slice, in Meta order
//
// Writes are staged in a temp directory and renamed into place, so a
// crashed ingest never leaves a half-written population behind; a rename
// collision means another process stored the same content first, which
// is success by definition.
//
// The store keeps no population in memory: Get decodes and verifies
// from disk on every call. A process that sweeps populations keeps the
// resident ones in its experiments.WarmCache population table, under
// the byte budget it shares with the synthetic suites.
package tracestore

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"exysim/internal/simpoint"
	"exysim/internal/trace"
)

// MetaSchemaVersion is bumped when meta.json changes incompatibly;
// readers reject newer versions instead of misparsing them.
const MetaSchemaVersion = 1

// SliceMeta records one stored slice's identity and weight.
type SliceMeta struct {
	Name    string  `json:"name"`
	Digest  string  `json:"digest"` // trace.Slice.Digest, %016x
	Insts   int     `json:"insts"`
	Warmup  int     `json:"warmup"`
	Weight  float64 `json:"weight"`
	Cluster int     `json:"cluster"`
}

// Meta is a stored population's metadata (meta.json).
type Meta struct {
	SchemaVersion int    `json:"schema_version"`
	ID            string `json:"id"`   // content digest over slices+config
	Name          string `json:"name"` // workload label ("spec.mcf", ...)
	Suite         string `json:"suite"`
	// SourceKey identifies the raw input + ingest settings (SHA-256 of
	// the compressed source bytes, combined with the SimPoint config)
	// for upload dedup: re-ingesting the same file with the same
	// settings is answered from the store without a second analysis.
	SourceKey string `json:"source_key,omitempty"`
	// SourceBytes is the raw (possibly compressed) input size.
	SourceBytes int64 `json:"source_bytes,omitempty"`
	// TotalInsts counts the dynamic instructions the analysis observed
	// in the source trace (not the stored slices).
	TotalInsts int64 `json:"total_insts"`
	// Intervals/K summarize the phase analysis behind the slicing.
	Intervals int             `json:"intervals"`
	K         int             `json:"k"`
	SimPoint  simpoint.Config `json:"simpoint"`
	Slices    []SliceMeta     `json:"slices"`
}

// Population couples a population's metadata with its decoded slices
// (in Meta.Slices order). Slices are shared read-only; every replay path
// only reads them.
type Population struct {
	Meta   Meta
	Slices []*trace.Slice
}

// PopulationID derives the content address of a slice population
// produced by cfg: an FNV-1a combination of the SimPoint configuration
// and every slice's content digest, in slice order. It is deterministic
// across processes, so a coordinator and its workers agree on identity
// without exchanging instruction bytes.
func PopulationID(slices []*trace.Slice, cfg simpoint.Config) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "simpoint%+v/%d", cfg, len(slices))
	for _, sl := range slices {
		fmt.Fprintf(h, "/%016x", sl.Digest())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Store is a content-addressed population store rooted at one directory.
// All methods are safe for concurrent use; multiple processes may share
// a root (writes are atomic renames keyed by content).
type Store struct {
	root string

	mu       sync.Mutex
	ids      map[string]struct{} // populations known on disk
	bySource map[string]string   // SourceKey -> id
}

// Open opens (creating if needed) a store rooted at dir and indexes the
// populations already on disk.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	s := &Store{
		root:     dir,
		ids:      map[string]struct{}{},
		bySource: map[string]string{},
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || strings.HasPrefix(e.Name(), "tmp-") {
			continue
		}
		meta, err := readMeta(filepath.Join(dir, e.Name()))
		if err != nil {
			// A foreign or damaged directory doesn't poison the store;
			// it is simply not indexed.
			continue
		}
		s.ids[meta.ID] = struct{}{}
		if meta.SourceKey != "" {
			s.bySource[meta.SourceKey] = meta.ID
		}
	}
	return s, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// Has reports whether the population is on disk.
func (s *Store) Has(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.ids[id]
	return ok
}

// Len counts the populations on disk.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ids)
}

// FindBySource returns the stored population id for an ingest source
// key, if this store has already ingested it.
func (s *Store) FindBySource(key string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.bySource[key]
	return id, ok
}

// List returns the metadata of every stored population, sorted by name
// then id.
func (s *Store) List() ([]Meta, error) {
	s.mu.Lock()
	ids := make([]string, 0, len(s.ids))
	for id := range s.ids {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	metas := make([]Meta, 0, len(ids))
	for _, id := range ids {
		meta, err := readMeta(filepath.Join(s.root, id))
		if err != nil {
			return nil, err
		}
		metas = append(metas, meta)
	}
	sort.Slice(metas, func(i, j int) bool {
		if metas[i].Name != metas[j].Name {
			return metas[i].Name < metas[j].Name
		}
		return metas[i].ID < metas[j].ID
	})
	return metas, nil
}

// Put persists the population (no-op when its id is already stored).
func (s *Store) Put(p *Population) error {
	if p.Meta.ID == "" {
		return fmt.Errorf("tracestore: population has no id")
	}
	if len(p.Slices) != len(p.Meta.Slices) {
		return fmt.Errorf("tracestore: %d slices but %d slice metas", len(p.Slices), len(p.Meta.Slices))
	}
	s.mu.Lock()
	_, have := s.ids[p.Meta.ID]
	s.mu.Unlock()
	if !have {
		if err := s.write(p); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ids[p.Meta.ID] = struct{}{}
	if p.Meta.SourceKey != "" {
		s.bySource[p.Meta.SourceKey] = p.Meta.ID
	}
	return nil
}

func (s *Store) write(p *Population) error {
	tmp, err := os.MkdirTemp(s.root, "tmp-")
	if err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	defer os.RemoveAll(tmp)
	for i, sl := range p.Slices {
		f, err := os.Create(filepath.Join(tmp, sliceFile(i)))
		if err != nil {
			return fmt.Errorf("tracestore: %w", err)
		}
		err = trace.Write(f, sl)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("tracestore: slice %d: %w", i, err)
		}
	}
	data, err := json.MarshalIndent(p.Meta, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(tmp, "meta.json"), append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	final := filepath.Join(s.root, p.Meta.ID)
	if err := os.Rename(tmp, final); err != nil {
		// Content-addressed: if the destination exists, another writer
		// stored identical content first.
		if _, statErr := os.Stat(filepath.Join(final, "meta.json")); statErr == nil {
			return nil
		}
		return fmt.Errorf("tracestore: %w", err)
	}
	return nil
}

// Get decodes the population by id from disk. Every returned slice's
// content digest is checked against the stored metadata — disk
// corruption surfaces as an error, never as silently different results.
func (s *Store) Get(id string) (*Population, error) {
	dir := filepath.Join(s.root, id)
	meta, err := readMeta(dir)
	if err != nil {
		return nil, err
	}
	if meta.ID != id {
		return nil, fmt.Errorf("tracestore: %s/meta.json claims id %s", id, meta.ID)
	}
	pop := &Population{Meta: meta, Slices: make([]*trace.Slice, len(meta.Slices))}
	for i, sm := range meta.Slices {
		f, err := os.Open(filepath.Join(dir, sliceFile(i)))
		if err != nil {
			return nil, fmt.Errorf("tracestore: %w", err)
		}
		sl, err := trace.Read(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("tracestore: population %s slice %d: %w", id, i, err)
		}
		if got := fmt.Sprintf("%016x", sl.Digest()); got != sm.Digest {
			return nil, fmt.Errorf("tracestore: population %s slice %d (%s): content digest %s does not match stored %s",
				id, i, sm.Name, got, sm.Digest)
		}
		pop.Slices[i] = sl
	}
	return pop, nil
}

func sliceFile(i int) string { return fmt.Sprintf("slice-%04d.exyt", i) }

func readMeta(dir string) (Meta, error) {
	data, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return Meta{}, fmt.Errorf("tracestore: %w", err)
	}
	var meta Meta
	if err := json.Unmarshal(data, &meta); err != nil {
		return Meta{}, fmt.Errorf("tracestore: %s: %w", dir, err)
	}
	if meta.SchemaVersion > MetaSchemaVersion {
		return Meta{}, fmt.Errorf("tracestore: %s: schema version %d is newer than supported %d",
			dir, meta.SchemaVersion, MetaSchemaVersion)
	}
	return meta, nil
}

// NewPopulation assembles a Population (with metadata and content id)
// from extracted weighted slices. The caller fills source provenance on
// the returned Meta before Put when known.
func NewPopulation(name, suite string, slices []*trace.Slice, res *simpoint.Result) *Population {
	metas := make([]SliceMeta, len(slices))
	for i, sl := range slices {
		metas[i] = SliceMeta{
			Name:    sl.Name,
			Digest:  fmt.Sprintf("%016x", sl.Digest()),
			Insts:   len(sl.Insts),
			Warmup:  sl.Warmup,
			Weight:  sl.Weight,
			Cluster: sl.Cluster,
		}
	}
	return &Population{
		Meta: Meta{
			SchemaVersion: MetaSchemaVersion,
			ID:            PopulationID(slices, res.Cfg),
			Name:          name,
			Suite:         suite,
			TotalInsts:    res.TotalInsts,
			Intervals:     res.Intervals,
			K:             res.K,
			SimPoint:      res.Cfg,
			Slices:        metas,
		},
		Slices: slices,
	}
}
