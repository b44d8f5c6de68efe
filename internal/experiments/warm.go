package experiments

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"

	"exysim/internal/isa"
	"exysim/internal/obs"
	"exysim/internal/snapshot"
	"exysim/internal/trace"
	"exysim/internal/tracestore"
	"exysim/internal/workload"
)

// DefaultSnapshotBudget bounds a WarmCache's resident snapshot bytes
// (LRU-evicted beyond it). Zero-run-length encoded warm images run
// 0.06–0.3 MB per (generation, slice); 2 GiB holds several thousand
// pairs — many bench-scale populations — while keeping a long-lived
// server's ceiling predictable.
const DefaultSnapshotBudget = 2 << 30

// populationBudget bounds the bytes of the populations a WarmCache
// keeps resident, suites and trace populations together. It fits one
// population at the request bound (2^26 trace entries, ~2.1 GiB).
const populationBudget = 4 << 30

// instBytes is a resident population's charge per instruction: its
// isa.Inst plus the decoded byte of its stream.
const instBytes = int64(unsafe.Sizeof(isa.Inst{}) + unsafe.Sizeof(isa.Decoded(0)))

// maxSeenPairs bounds the second-touch "seen once" set; a sighting past
// it displaces the least recent one.
const maxSeenPairs = 16384

// WarmCache shares the work a population sweep would otherwise repay per
// (generation × slice × rep) even though it is invariant across most of
// that product:
//
//   - populations, in one table under one byte budget
//     (populationBudget), evicted least recently used: workload suites
//     keyed by spec digest (generating the synthetic population is a
//     visible fraction of sweep wall time) and trace populations keyed
//     by population id. Each resident population keeps its slices'
//     content digests and their pre-decoded μop streams
//     (trace.PreDecoded), each compiled on first use;
//   - warm-state snapshots (deep simulator images captured right after
//     the warmup boundary), keyed by (generation config digest, slice
//     content digest) — rep- and sweep-invariant for a fixed pair.
//
// Digests and streams are found through an index of resident slices
// only. Evicting a population drops its slices from the index, so no
// memo outlives its population; a slice no resident population holds
// (a slice job's, a test's) is hashed or compiled afresh on each call.
//
// A pair's image is captured on its second warmup, not its first
// (second-touch admission): the first warmup only records the pair in a
// bounded "seen once" set. A configuration swept once — a predictor-lab
// what-if — then never pays for a capture nor holds an image, while a
// recurring pair runs cold one extra time before it starts forking.
//
// Pass one WarmCache to experiments.Run via WithWarmSnapshots; a
// long-lived process (exyserve) reuses it across sweeps.
// Slices returned by a WarmCache are shared read-only; every replay path
// only reads them.
//
// Invalidation is by key construction: changing a workload spec, slice
// content, or generation config produces different digests, so stale
// entries are never hit — they age out via the byte budgets. The sweep
// harness additionally drops a snapshot explicitly before a cold retry,
// so an image that keeps failing a slice cannot quarantine the pair
// forever.
//
// All methods are safe for concurrent use.
type WarmCache struct {
	mu     sync.Mutex
	pops   *lru[string, *population] // "suite <spec digest>", "trace <id>"
	index  map[*trace.Slice]sliceRef // the slices of resident populations
	images *lru[snapKey, *snapshot.Image]
	seen   *lru[snapKey, struct{}] // pairs warmed once, not yet captured

	suiteHits, suiteMisses   atomic.Uint64
	traceHits, traceMisses   atomic.Uint64
	decodeHits, decodeMisses atomic.Uint64
	snapHits, snapMisses     atomic.Uint64
	captures, forks          atomic.Uint64
	invalidations            atomic.Uint64
	captureErrors            atomic.Uint64
	captureSkips             atomic.Uint64
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

type snapKey struct {
	gen   string // generation config digest
	slice uint64 // slice content digest
}

// NewWarmCache builds an empty cache with the default snapshot budget.
func NewWarmCache() *WarmCache {
	w := &WarmCache{
		index:  make(map[*trace.Slice]sliceRef),
		images: newLRU[snapKey, *snapshot.Image](DefaultSnapshotBudget, nil),
		seen:   newLRU[snapKey, struct{}](maxSeenPairs, nil), // one "byte" a pair
	}
	w.pops = newLRU(populationBudget, w.unindex)
	return w
}

// SetSnapshotBudget bounds resident snapshot bytes (≤0 disables
// snapshot caching entirely; existing entries are dropped).
func (w *WarmCache) SetSnapshotBudget(bytes int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.images.setBudget(bytes)
}

// Suite returns the materialized population for spec, generating it on
// first use. The returned slices are shared: treat them as read-only.
func (w *WarmCache) Suite(spec workload.SuiteSpec) []*trace.Slice {
	key := suiteKey(spec)
	if p := w.resident(key); p != nil {
		w.suiteHits.Add(1)
		return p.slices
	}
	// Generate and hash outside the lock: suite construction fans out
	// across cores and can take a while at standard scale.
	s := workload.Suite(spec)
	w.suiteMisses.Add(1)
	digests := make([]uint64, len(s))
	for i, sl := range s {
		digests[i] = sl.Digest()
	}
	return w.admit(key, nil, s, digests).slices
}

// CachedSuite is Suite for a spec the cache already holds, and nil for
// any other: it never generates, and counts neither a hit nor a miss.
func (w *WarmCache) CachedSuite(spec workload.SuiteSpec) []*trace.Slice {
	if p := w.resident(suiteKey(spec)); p != nil {
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
func (w *WarmCache) Trace(id string, load func() (*tracestore.Population, error)) (*tracestore.Population, error) {
	if p := w.resident("trace " + id); p != nil {
		w.traceHits.Add(1)
		return p.stored, nil
	}
	w.traceMisses.Add(1)
	pop, err := load()
	if err != nil {
		return nil, err
	}
	return w.AdmitTrace(pop)
}

// AdmitTrace makes pop resident without counting a resolution, taking
// its slices' digests from its verified metadata, and returns the
// population the table holds under pop's id: pop, or the copy already
// resident.
func (w *WarmCache) AdmitTrace(pop *tracestore.Population) (*tracestore.Population, error) {
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
	return w.admit("trace "+pop.Meta.ID, pop, pop.Slices, digests).stored, nil
}

// resident returns the population under key, marking it most recently
// used, or nil.
func (w *WarmCache) resident(key string) *population {
	w.mu.Lock()
	defer w.mu.Unlock()
	p, _ := w.pops.get(key)
	return p
}

// admit makes a population resident under key and indexes its slices,
// unless one already is: every caller then shares the resident copy.
// Admitting may evict the least recently used populations; one larger
// than the whole budget is returned unadmitted.
func (w *WarmCache) admit(key string, stored *tracestore.Population, slices []*trace.Slice, digests []uint64) *population {
	p := &population{stored: stored, slices: slices, digests: digests, streams: make([]*trace.PreDecoded, len(slices))}
	var insts int64
	for _, sl := range slices {
		insts += int64(len(sl.Insts))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if prev, ok := w.pops.get(key); ok {
		return prev // raced with another admission: keep the first
	}
	if w.pops.put(key, p, insts*instBytes) {
		for i, sl := range slices {
			w.index[sl] = sliceRef{p, i}
		}
	}
	return p
}

// unindex drops an evicted population's slices from the index.
func (w *WarmCache) unindex(_ string, p *population) {
	for _, sl := range p.slices {
		if w.index[sl].pop == p {
			delete(w.index, sl)
		}
	}
}

// digest returns sl's content digest: the index's when a resident
// population holds sl, hashed afresh otherwise (and by a nil cache).
func (w *WarmCache) digest(sl *trace.Slice) uint64 {
	if w != nil {
		w.mu.Lock()
		ref, ok := w.index[sl]
		w.mu.Unlock()
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
func (w *WarmCache) PreDecoded(sl *trace.Slice) *trace.PreDecoded {
	w.mu.Lock()
	defer w.mu.Unlock()
	ref, ok := w.index[sl]
	if ok && ref.pop.streams[ref.i] != nil {
		w.decodeHits.Add(1)
		return ref.pop.streams[ref.i]
	}
	w.decodeMisses.Add(1)
	pd := sl.PreDecode()
	if ok {
		ref.pop.streams[ref.i] = pd
	}
	return pd
}

// snapshotsEnabled reports whether the byte budget admits any snapshot;
// the sweep skips capture and restore entirely when it does not.
func (w *WarmCache) snapshotsEnabled() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.images.budget > 0
}

// Snapshot returns the cached warm-state image for (generation digest,
// slice), marking it most-recently-used, or (nil, false) on a miss.
func (w *WarmCache) Snapshot(genDigest string, sl *trace.Slice) (*snapshot.Image, bool) {
	key := snapKey{gen: genDigest, slice: w.digest(sl)}
	w.mu.Lock()
	img, ok := w.images.get(key)
	w.mu.Unlock()
	if ok {
		w.snapHits.Add(1)
	} else {
		w.snapMisses.Add(1)
	}
	return img, ok
}

// admitCapture applies the second-touch rule at a pair's warmup
// boundary: the pair's first warmup is only recorded (and counted as a
// capture skip) and false returned; a later warmup of a recorded pair
// returns true, and the caller captures and stores the image.
func (w *WarmCache) admitCapture(genDigest string, sl *trace.Slice) bool {
	key := snapKey{gen: genDigest, slice: w.digest(sl)}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.seen.remove(key) {
		return true
	}
	w.seen.put(key, struct{}{}, 1)
	w.captureSkips.Add(1)
	return false
}

// StoreSnapshot caches a freshly captured warm-state image, evicting
// least-recently-used images beyond the byte budget. Concurrent sweeps
// may warm the same pair twice; images for one key are bit-identical,
// and the newcomer is kept as most recent.
func (w *WarmCache) StoreSnapshot(genDigest string, sl *trace.Slice, img *snapshot.Image) {
	w.captures.Add(1)
	key := snapKey{gen: genDigest, slice: w.digest(sl)}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.images.put(key, img, int64(img.Bytes()))
}

// Invalidate drops the snapshot for (generation digest, slice) — called
// before a cold retry so a poisoned image cannot fail a pair repeatedly.
func (w *WarmCache) Invalidate(genDigest string, sl *trace.Slice) {
	key := snapKey{gen: genDigest, slice: w.digest(sl)}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.images.remove(key) {
		w.invalidations.Add(1)
	}
}

// noteFork counts one successful warm-state restore.
func (w *WarmCache) noteFork() { w.forks.Add(1) }

// noteCaptureError counts one failed state capture (the sweep falls
// back to cold replays; results are unaffected).
func (w *WarmCache) noteCaptureError() { w.captureErrors.Add(1) }

// WarmStats is a point-in-time view of the cache's reuse efficiency.
// TraceHits and TraceMisses count trace population resolutions (a miss
// loaded or fetched the population); Populations, PopulationBytes and
// PopulationEvictions describe the table. CaptureSkips counts first
// warmups the second-touch rule did not capture; Evictions counts
// snapshots.
type WarmStats struct {
	SuiteHits, SuiteMisses   uint64
	TraceHits, TraceMisses   uint64
	DecodeHits, DecodeMisses uint64
	Populations, PopulationBytes,
	PopulationEvictions uint64
	SnapshotHits, SnapshotMisses,
	Captures, Forks,
	Evictions, Invalidations, CaptureErrors, CaptureSkips uint64
	SnapshotBytes   uint64
	SnapshotEntries uint64
}

// Stats snapshots the cache counters.
func (w *WarmCache) Stats() WarmStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return WarmStats{
		SuiteHits: w.suiteHits.Load(), SuiteMisses: w.suiteMisses.Load(),
		TraceHits: w.traceHits.Load(), TraceMisses: w.traceMisses.Load(),
		DecodeHits: w.decodeHits.Load(), DecodeMisses: w.decodeMisses.Load(),
		Populations: uint64(w.pops.len()), PopulationBytes: uint64(w.pops.bytes), PopulationEvictions: w.pops.evictions,
		SnapshotHits: w.snapHits.Load(), SnapshotMisses: w.snapMisses.Load(),
		Captures: w.captures.Load(), Forks: w.forks.Load(),
		Evictions: w.images.evictions, Invalidations: w.invalidations.Load(),
		CaptureErrors: w.captureErrors.Load(), CaptureSkips: w.captureSkips.Load(),
		SnapshotBytes: uint64(w.images.bytes), SnapshotEntries: uint64(w.images.len()),
	}
}
