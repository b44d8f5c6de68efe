package experiments

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"

	"exysim/internal/isa"
	"exysim/internal/obs"
	"exysim/internal/trace"
	"exysim/internal/tracestore"
	"exysim/internal/workload"
)

// populationBudget bounds the bytes of the populations a PopulationTable
// keeps resident, suites and trace populations together. It fits one
// population at the request bound (2^26 trace entries, ~2.1 GiB).
const populationBudget = 4 << 30

// instBytes is a resident population's charge per instruction: its
// isa.Inst plus the decoded byte of its stream.
const instBytes = int64(unsafe.Sizeof(isa.Inst{}) + unsafe.Sizeof(isa.Decoded(0)))

// PopulationTable keeps the populations a long-lived process sweeps
// resident, in one table under one byte budget (populationBudget),
// evicted least recently used: workload suites keyed by spec digest
// (generating the synthetic population is a visible fraction of sweep
// wall time) and trace populations keyed by population id. Each
// resident population keeps its slices' content digests and their
// pre-decoded μop streams (trace.PreDecoded), each compiled on first
// use.
//
// Digests and streams are found through an index of resident slices
// only. Evicting a population drops its slices from the index, so no
// memo outlives its population; a slice no resident population holds
// (a slice job's, a test's) is hashed or compiled afresh on each call.
//
// Pass one PopulationTable to experiments.Run via WithPopulationTable;
// a long-lived process (exyserve) reuses it across sweeps. Slices
// returned by a PopulationTable are shared read-only; every replay path
// only reads them. Keys fold a spec's digest or a population's content
// id, so a changed spec or population never hits a stale entry.
//
// All methods are safe for concurrent use.
type PopulationTable struct {
	mu    sync.Mutex
	pops  *lru[string, *population] // "suite <spec digest>", "trace <id>"
	index map[*trace.Slice]sliceRef // the slices of resident populations

	suiteHits, suiteMisses   atomic.Uint64
	traceHits, traceMisses   atomic.Uint64
	decodeHits, decodeMisses atomic.Uint64
}

// population is one entry of the table: a suite or a trace population,
// each slice's digest and, once compiled, its stream.
type population struct {
	stored  *tracestore.Population // nil for a synthetic suite
	slices  []*trace.Slice
	digests []uint64
	streams []*trace.PreDecoded
}

// sliceRef places an indexed slice in its population.
type sliceRef struct {
	pop *population
	i   int
}

// NewPopulationTable builds an empty table.
func NewPopulationTable() *PopulationTable {
	t := &PopulationTable{index: make(map[*trace.Slice]sliceRef)}
	t.pops = newLRU(populationBudget, t.unindex)
	return t
}

// Suite returns the materialized population for spec, generating it on
// first use. The returned slices are shared: treat them as read-only.
func (t *PopulationTable) Suite(spec workload.SuiteSpec) []*trace.Slice {
	key := suiteKey(spec)
	if p := t.resident(key); p != nil {
		t.suiteHits.Add(1)
		return p.slices
	}
	// Generate and hash outside the lock: suite construction fans out
	// across cores and can take a while at standard scale.
	s := workload.Suite(spec)
	t.suiteMisses.Add(1)
	digests := make([]uint64, len(s))
	for i, sl := range s {
		digests[i] = sl.Digest()
	}
	return t.admit(key, nil, s, digests).slices
}

// CachedSuite is Suite for a spec the table already holds, and nil for
// any other: it never generates, and counts neither a hit nor a miss.
func (t *PopulationTable) CachedSuite(spec workload.SuiteSpec) []*trace.Slice {
	if p := t.resident(suiteKey(spec)); p != nil {
		return p.slices
	}
	return nil
}

func suiteKey(spec workload.SuiteSpec) string {
	return "suite " + obs.ConfigDigest(spec.Normalize())
}

// Trace returns trace population id from the table, or resolves it
// with load (from disk, or from a peer) and admits it. It counts a
// trace hit or miss, never a suite one.
func (t *PopulationTable) Trace(id string, load func() (*tracestore.Population, error)) (*tracestore.Population, error) {
	if p := t.resident("trace " + id); p != nil {
		t.traceHits.Add(1)
		return p.stored, nil
	}
	t.traceMisses.Add(1)
	pop, err := load()
	if err != nil {
		return nil, err
	}
	return t.AdmitTrace(pop)
}

// AdmitTrace makes pop resident without counting a resolution, taking
// its slices' digests from its verified metadata, and returns the
// population the table holds under pop's id: pop, or the copy already
// resident.
func (t *PopulationTable) AdmitTrace(pop *tracestore.Population) (*tracestore.Population, error) {
	if len(pop.Meta.Slices) != len(pop.Slices) {
		return nil, fmt.Errorf("experiments: trace population %s has %d slices but %d slice metas",
			pop.Meta.ID, len(pop.Slices), len(pop.Meta.Slices))
	}
	digests := make([]uint64, len(pop.Slices))
	for i, sm := range pop.Meta.Slices {
		d, err := strconv.ParseUint(sm.Digest, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("experiments: trace population %s slice %d: %w", pop.Meta.ID, i, err)
		}
		digests[i] = d
	}
	return t.admit("trace "+pop.Meta.ID, pop, pop.Slices, digests).stored, nil
}

// resident returns the population under key, marking it most recently
// used, or nil.
func (t *PopulationTable) resident(key string) *population {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, _ := t.pops.get(key)
	return p
}

// admit makes a population resident under key and indexes its slices,
// unless one already is: every caller then shares the resident copy.
// Admitting may evict the least recently used populations; one larger
// than the whole budget is returned unadmitted.
func (t *PopulationTable) admit(key string, stored *tracestore.Population, slices []*trace.Slice, digests []uint64) *population {
	p := &population{stored: stored, slices: slices, digests: digests, streams: make([]*trace.PreDecoded, len(slices))}
	var insts int64
	for _, sl := range slices {
		insts += int64(len(sl.Insts))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev, ok := t.pops.get(key); ok {
		return prev // raced with another admission: keep the first
	}
	if t.pops.put(key, p, insts*instBytes) {
		for i, sl := range slices {
			t.index[sl] = sliceRef{p, i}
		}
	}
	return p
}

// unindex drops an evicted population's slices from the index.
func (t *PopulationTable) unindex(_ string, p *population) {
	for _, sl := range p.slices {
		if t.index[sl].pop == p {
			delete(t.index, sl)
		}
	}
}

// digest returns sl's content digest: the index's when a resident
// population holds sl, hashed afresh otherwise (and by a nil table).
func (t *PopulationTable) digest(sl *trace.Slice) uint64 {
	if t != nil {
		t.mu.Lock()
		ref, ok := t.index[sl]
		t.mu.Unlock()
		if ok {
			return ref.pop.digests[ref.i]
		}
	}
	return sl.Digest()
}

// PreDecoded returns sl's compiled decode stream. A resident
// population's stream is compiled on first use and kept while the
// population is; a slice no resident population holds is compiled
// afresh, and nothing keeps it.
func (t *PopulationTable) PreDecoded(sl *trace.Slice) *trace.PreDecoded {
	t.mu.Lock()
	defer t.mu.Unlock()
	ref, ok := t.index[sl]
	if ok && ref.pop.streams[ref.i] != nil {
		t.decodeHits.Add(1)
		return ref.pop.streams[ref.i]
	}
	t.decodeMisses.Add(1)
	pd := sl.PreDecode()
	if ok {
		ref.pop.streams[ref.i] = pd
	}
	return pd
}

// PopulationStats is a point-in-time view of the table's reuse
// efficiency. TraceHits and TraceMisses count trace population
// resolutions (a miss loaded or fetched the population); Populations,
// PopulationBytes and PopulationEvictions describe the table.
type PopulationStats struct {
	SuiteHits, SuiteMisses   uint64
	TraceHits, TraceMisses   uint64
	DecodeHits, DecodeMisses uint64
	Populations, PopulationBytes,
	PopulationEvictions uint64
}

// Stats snapshots the table counters.
func (t *PopulationTable) Stats() PopulationStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return PopulationStats{
		SuiteHits: t.suiteHits.Load(), SuiteMisses: t.suiteMisses.Load(),
		TraceHits: t.traceHits.Load(), TraceMisses: t.traceMisses.Load(),
		DecodeHits: t.decodeHits.Load(), DecodeMisses: t.decodeMisses.Load(),
		Populations: uint64(t.pops.len()), PopulationBytes: uint64(t.pops.bytes), PopulationEvictions: t.pops.evictions,
	}
}
