package experiments

import (
	"sync"
	"unsafe"

	"exysim/internal/core"
	"exysim/internal/obs"
	"exysim/internal/trace"
)

// DefaultResultBudget is a ResultStore's default byte budget: 16 MiB,
// about 15K cells.
const DefaultResultBudget = 16 << 20

// CellKey addresses a (generation, slice) cell by what determines its
// result, so every sweep, shard width and spec simulating it shares it.
// A key of another form (a server keys a slice job by its request)
// shares only the store's budget.
type CellKey struct {
	Gen   string // obs.ConfigDigest of the generation config
	Slice uint64 // trace.Slice.Digest: name, weight, warmup and stream
}

// ResultStore is a byte-budgeted LRU of clean simulated cells: results
// are deterministic, so a stored cell is what simulating the pair again
// would produce. All methods are safe for concurrent use.
type ResultStore struct {
	table *PopulationTable // resident slices' digests; nil hashes every slice
	mu    sync.Mutex
	cells *lru[CellKey, core.Result]
}

// NewResultStore builds a store of up to budget bytes (0 is the default,
// negative disables it). Cover takes the digests of the slices table
// holds resident — pass the PopulationTable whose populations are
// swept, so no stream is hashed twice — and hashes any other slice;
// table may be nil.
func NewResultStore(budget int64, table *PopulationTable) *ResultStore {
	if budget == 0 {
		budget = DefaultResultBudget
	}
	return &ResultStore{table: table, cells: newLRU[CellKey, core.Result](budget, nil)}
}

// CellBytes is a cell's charge: a core.Result plus 480 bytes of names,
// power map, list element and index entry, the heap a cell was
// measured to hold. A budget holds budget/CellBytes cells.
const CellBytes = int64(unsafe.Sizeof(core.Result{})) + 480

// Get returns cell k's stored result, marking it most recently used.
func (st *ResultStore) Get(k CellKey) (core.Result, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.cells.get(k)
}

// Put stores cell k's clean result, evicting least recently used cells
// past the budget.
func (st *ResultStore) Put(k CellKey, r core.Result) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.cells.put(k, r, CellBytes)
}

// Stats reports the stored and the evicted cells.
func (st *ResultStore) Stats() (cells int, evictions uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.cells.len(), st.cells.evictions
}

// Cover is a population's cells, each looked up once. Units cuts each
// generation, generation-major, into runs of at most maxSlices slices
// that the store holds whole (Docs[i] is then the run's document) or
// misses whole (Docs[i] is nil), so a generation missed entirely is cut
// exactly as PlanShards cuts it.
type Cover struct {
	Units        []Shard
	Docs         []*ShardDoc
	Hits, Misses int // cells

	store  *ResultStore
	gens   []string // generation config digests
	slices []uint64 // slice content digests
}

// Cover looks gens × slices up; maxSlices <= 0 leaves runs uncut.
func (st *ResultStore) Cover(gens []core.GenConfig, slices []*trace.Slice, maxSlices int) *Cover {
	if maxSlices <= 0 {
		maxSlices = len(slices)
	}
	c := &Cover{store: st, gens: make([]string, len(gens)), slices: make([]uint64, len(slices))}
	for s, sl := range slices {
		c.slices[s] = st.table.digest(sl)
	}
	for g := range gens {
		c.gens[g] = obs.ConfigDigest(gens[g])
		for s := range slices {
			r, hit := st.Get(CellKey{c.gens[g], c.slices[s]})
			i := len(c.Units) - 1
			if s == 0 || c.Units[i].Hi-c.Units[i].Lo == maxSlices || (c.Docs[i] != nil) != hit {
				var doc *ShardDoc
				if hit {
					doc = &ShardDoc{SchemaVersion: ResultsSchemaVersion, Gen: g, GenName: gens[g].Name, SliceLo: s, SliceHi: s}
				}
				c.Units = append(c.Units, Shard{Gen: g, Lo: s, Hi: s})
				c.Docs = append(c.Docs, doc)
				i++
			}
			c.Units[i].Hi++
			if hit {
				c.Docs[i].SliceHi++
				c.Docs[i].Results = append(c.Docs[i].Results, r)
				c.Hits++
			} else {
				c.Misses++
			}
		}
	}
	return c
}

// Keep stores the cells of a computed document, placed where one of
// the cover's units is, if it is clean: a quarantine or a retry may be
// transient, and a stored cell would replay it into every later job.
// Resumed stays with the job that computed it.
func (c *Cover) Keep(doc *ShardDoc) {
	if doc.Failed != nil || len(doc.Failures) > 0 || doc.Retries > 0 {
		return
	}
	c.store.mu.Lock()
	defer c.store.mu.Unlock()
	for i, r := range doc.Results {
		c.store.cells.put(CellKey{c.gens[doc.Gen], c.slices[doc.SliceLo+i]}, r, CellBytes)
	}
}
