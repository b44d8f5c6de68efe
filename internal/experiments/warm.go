package experiments

import (
	"container/list"
	"sync"
	"sync/atomic"

	"exysim/internal/obs"
	"exysim/internal/snapshot"
	"exysim/internal/trace"
	"exysim/internal/workload"
)

// DefaultSnapshotBudget bounds a WarmCache's resident snapshot bytes
// (LRU-evicted beyond it). Zero-run-length encoded warm images run
// 0.06–0.3 MB per (generation, slice); 2 GiB holds several thousand
// pairs — many bench-scale populations — while keeping a long-lived
// server's ceiling predictable.
const DefaultSnapshotBudget = 2 << 30

// warmCacheBounds keep the side indexes (suites, decode streams, digest
// memos, first-warmup sightings) from growing without limit in a
// long-lived process. Eviction beyond a bound is arbitrary-entry, not
// LRU: these entries are cheap to rebuild and the bounds are far above
// any steady working set.
const (
	maxCachedSuites  = 8
	maxCachedStreams = 4096
	maxCachedDigests = 16384
)

// WarmCache shares the work a population sweep would otherwise repay per
// (generation × slice × rep) even though it is invariant across most of
// that product:
//
//   - workload suites, keyed by spec digest (generation of the synthetic
//     population is a visible fraction of sweep wall time — and stable
//     slice pointers make the downstream memos cheap);
//   - pre-decoded μop streams (trace.PreDecoded), keyed by slice content
//     digest — generation-invariant by construction;
//   - warm-state snapshots (deep simulator images captured right after
//     the warmup boundary), keyed by (generation config digest, slice
//     content digest) — rep- and sweep-invariant for a fixed pair.
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
// entries are never hit — they age out via the byte budget (snapshots)
// or the entry bounds (indexes). The sweep harness additionally drops a
// snapshot explicitly before a cold retry, so an image that keeps
// failing a slice cannot quarantine the pair forever.
//
// All methods are safe for concurrent use.
type WarmCache struct {
	mu      sync.Mutex
	suites  map[string][]*trace.Slice
	digests map[*trace.Slice]uint64
	decoded map[uint64]*trace.PreDecoded
	snaps   map[snapKey]*list.Element
	lru     *list.List // front = most recent; values are *snapEntry
	bytes   int64
	budget  int64
	seen    map[snapKey]struct{} // pairs warmed once, not yet captured

	suiteHits, suiteMisses   atomic.Uint64
	decodeHits, decodeMisses atomic.Uint64
	snapHits, snapMisses     atomic.Uint64
	captures, forks          atomic.Uint64
	evictions, invalidations atomic.Uint64
	captureErrors            atomic.Uint64
	captureSkips             atomic.Uint64
}

type snapKey struct {
	gen   string // generation config digest
	slice uint64 // slice content digest
}

type snapEntry struct {
	key   snapKey
	img   *snapshot.Image
	bytes int64
}

// NewWarmCache builds an empty cache with the default snapshot budget.
func NewWarmCache() *WarmCache {
	return &WarmCache{
		suites:  make(map[string][]*trace.Slice),
		digests: make(map[*trace.Slice]uint64),
		decoded: make(map[uint64]*trace.PreDecoded),
		snaps:   make(map[snapKey]*list.Element),
		lru:     list.New(),
		budget:  DefaultSnapshotBudget,
		seen:    make(map[snapKey]struct{}),
	}
}

// SetSnapshotBudget bounds resident snapshot bytes (≤0 disables
// snapshot caching entirely; existing entries are dropped).
func (w *WarmCache) SetSnapshotBudget(bytes int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.budget = bytes
	w.evictLocked()
}

// Suite returns the materialized population for spec, generating it on
// first use. The returned slices are shared: treat them as read-only.
func (w *WarmCache) Suite(spec workload.SuiteSpec) []*trace.Slice {
	key := obs.ConfigDigest(spec.Normalize())
	if s := w.cachedSuite(key); s != nil {
		w.suiteHits.Add(1)
		return s
	}
	// Generate outside the lock: suite construction fans out across
	// cores and can take a while at standard scale.
	s := workload.Suite(spec)
	w.suiteMisses.Add(1)
	w.mu.Lock()
	defer w.mu.Unlock()
	if prev, ok := w.suites[key]; ok {
		return prev // raced with another generator: keep the first
	}
	if len(w.suites) >= maxCachedSuites {
		for k := range w.suites {
			delete(w.suites, k)
			break
		}
	}
	w.suites[key] = s
	return s
}

// CachedSuite is Suite for a spec the cache already holds, and nil for
// any other: it never generates, and counts neither a hit nor a miss.
func (w *WarmCache) CachedSuite(spec workload.SuiteSpec) []*trace.Slice {
	return w.cachedSuite(obs.ConfigDigest(spec.Normalize()))
}

func (w *WarmCache) cachedSuite(key string) []*trace.Slice {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.suites[key]
}

// snapshotsEnabled reports whether the byte budget admits any snapshot;
// the sweep skips capture and restore entirely when it does not.
func (w *WarmCache) snapshotsEnabled() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.budget > 0
}

// digestLocked memoizes sl's content digest by pointer.
func (w *WarmCache) digestLocked(sl *trace.Slice) uint64 {
	if d, ok := w.digests[sl]; ok {
		return d
	}
	w.mu.Unlock()
	d := sl.Digest() // hash outside the lock: full stream scan
	w.mu.Lock()
	if len(w.digests) >= maxCachedDigests {
		clear(w.digests)
	}
	w.digests[sl] = d
	return d
}

// PreDecoded returns the compiled decode stream for sl, compiling and
// memoizing on first use (keyed by content digest, so every generation
// and rep of the same slice shares one stream).
func (w *WarmCache) PreDecoded(sl *trace.Slice) *trace.PreDecoded {
	w.mu.Lock()
	defer w.mu.Unlock()
	d := w.digestLocked(sl)
	if pd, ok := w.decoded[d]; ok {
		w.decodeHits.Add(1)
		return pd
	}
	w.decodeMisses.Add(1)
	pd := sl.PreDecode()
	if len(w.decoded) >= maxCachedStreams {
		for k := range w.decoded {
			delete(w.decoded, k)
			break
		}
	}
	w.decoded[d] = pd
	return pd
}

// Snapshot returns the cached warm-state image for (generation digest,
// slice), marking it most-recently-used, or (nil, false) on a miss.
func (w *WarmCache) Snapshot(genDigest string, sl *trace.Slice) (*snapshot.Image, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	key := snapKey{gen: genDigest, slice: w.digestLocked(sl)}
	if el, ok := w.snaps[key]; ok {
		w.lru.MoveToFront(el)
		w.snapHits.Add(1)
		return el.Value.(*snapEntry).img, true
	}
	w.snapMisses.Add(1)
	return nil, false
}

// admitCapture applies the second-touch rule at a pair's warmup
// boundary: the pair's first warmup is only recorded (and counted as a
// capture skip) and false returned; a later warmup of a recorded pair
// returns true, and the caller captures and stores the image.
func (w *WarmCache) admitCapture(genDigest string, sl *trace.Slice) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	key := snapKey{gen: genDigest, slice: w.digestLocked(sl)}
	if _, ok := w.seen[key]; ok {
		delete(w.seen, key)
		return true
	}
	if len(w.seen) >= maxCachedDigests {
		for k := range w.seen {
			delete(w.seen, k)
			break
		}
	}
	w.seen[key] = struct{}{}
	w.captureSkips.Add(1)
	return false
}

// StoreSnapshot caches a freshly captured warm-state image, evicting
// least-recently-used images beyond the byte budget.
func (w *WarmCache) StoreSnapshot(genDigest string, sl *trace.Slice, img *snapshot.Image) {
	w.captures.Add(1)
	w.mu.Lock()
	defer w.mu.Unlock()
	key := snapKey{gen: genDigest, slice: w.digestLocked(sl)}
	if el, ok := w.snaps[key]; ok {
		// Concurrent sweeps may warm the same pair twice; images for one
		// key are bit-identical, keep the newcomer as most recent.
		ent := el.Value.(*snapEntry)
		w.bytes += int64(img.Bytes()) - ent.bytes
		ent.img, ent.bytes = img, int64(img.Bytes())
		w.lru.MoveToFront(el)
	} else {
		ent := &snapEntry{key: key, img: img, bytes: int64(img.Bytes())}
		w.snaps[key] = w.lru.PushFront(ent)
		w.bytes += ent.bytes
	}
	w.evictLocked()
}

func (w *WarmCache) evictLocked() {
	for w.bytes > w.budget && w.lru.Len() > 0 {
		el := w.lru.Back()
		ent := el.Value.(*snapEntry)
		w.lru.Remove(el)
		delete(w.snaps, ent.key)
		w.bytes -= ent.bytes
		w.evictions.Add(1)
	}
}

// Invalidate drops the snapshot for (generation digest, slice) — called
// before a cold retry so a poisoned image cannot fail a pair repeatedly.
func (w *WarmCache) Invalidate(genDigest string, sl *trace.Slice) {
	w.mu.Lock()
	defer w.mu.Unlock()
	key := snapKey{gen: genDigest, slice: w.digestLocked(sl)}
	if el, ok := w.snaps[key]; ok {
		ent := el.Value.(*snapEntry)
		w.lru.Remove(el)
		delete(w.snaps, key)
		w.bytes -= ent.bytes
		w.invalidations.Add(1)
	}
}

// noteFork counts one successful warm-state restore.
func (w *WarmCache) noteFork() { w.forks.Add(1) }

// noteCaptureError counts one failed state capture (the sweep falls
// back to cold replays; results are unaffected).
func (w *WarmCache) noteCaptureError() { w.captureErrors.Add(1) }

// WarmStats is a point-in-time view of the cache's reuse efficiency.
// CaptureSkips counts first warmups the second-touch rule did not
// capture.
type WarmStats struct {
	SuiteHits, SuiteMisses   uint64
	DecodeHits, DecodeMisses uint64
	SnapshotHits, SnapshotMisses,
	Captures, Forks,
	Evictions, Invalidations, CaptureErrors, CaptureSkips uint64
	SnapshotBytes   uint64
	SnapshotEntries uint64
}

// Stats snapshots the cache counters.
func (w *WarmCache) Stats() WarmStats {
	w.mu.Lock()
	bytes, entries := w.bytes, w.lru.Len()
	w.mu.Unlock()
	return WarmStats{
		SuiteHits: w.suiteHits.Load(), SuiteMisses: w.suiteMisses.Load(),
		DecodeHits: w.decodeHits.Load(), DecodeMisses: w.decodeMisses.Load(),
		SnapshotHits: w.snapHits.Load(), SnapshotMisses: w.snapMisses.Load(),
		Captures: w.captures.Load(), Forks: w.forks.Load(),
		Evictions: w.evictions.Load(), Invalidations: w.invalidations.Load(),
		CaptureErrors: w.captureErrors.Load(), CaptureSkips: w.captureSkips.Load(),
		SnapshotBytes: uint64(bytes), SnapshotEntries: uint64(entries),
	}
}
