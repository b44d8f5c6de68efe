// Package satable provides a fixed-geometry set-associative table used
// by the microarchitectural models that were previously map-backed
// (μBTB nodes, VPC chains, UOC blocks, prefetcher stream tables, the
// frontend empty-line tracker). Real hardware versions of these
// structures are set-indexed, way-limited SRAM arrays; a Go map models
// neither the capacity conflicts nor the replacement behaviour, and it
// dominates the simulator's per-instruction cost with hashing and
// pointer chasing. The table here is a single preallocated flat array
// with explicit sets×ways geometry, per-set true-LRU replacement, and
// zero steady-state allocation. One-set (fully-associative) tables check
// a way hint before scanning, so a hit usually costs one compare.
package satable

import "exysim/internal/rng"

// Table is a set-associative array of V keyed by uint64. Sets are
// indexed by a mixed hash of the key; within a set the full key serves
// as the tag. All storage is allocated in New; no operation allocates.
type Table[V any] struct {
	sets, ways int
	mask       uint64

	// Flat backing arrays, slot index = set*ways + way.
	keys  []uint64
	valid []bool
	lru   []uint64
	vals  []V

	tick uint64
	n    int

	// hint guesses the way of a one-set table's key (disabled for
	// set-indexed tables, whose scans are a few ways long).
	hint WayHint
}

// Evicted describes a victim displaced by Insert. Val is a copy of the
// victim's value taken before the slot was reused.
type Evicted[V any] struct {
	Key uint64
	Val V
	OK  bool
}

// New builds a sets×ways table. Sets must be a power of two.
func New[V any](sets, ways int) *Table[V] {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("satable: sets must be a power of two")
	}
	if ways <= 0 {
		panic("satable: ways must be positive")
	}
	cap := sets * ways
	t := &Table[V]{
		sets: sets, ways: ways, mask: uint64(sets - 1),
		keys:  make([]uint64, cap),
		valid: make([]bool, cap),
		lru:   make([]uint64, cap),
		vals:  make([]V, cap),
	}
	if sets == 1 {
		t.hint = NewWayHint(ways)
	}
	return t
}

// WayHint remembers, per key hash, the way of a one-set table that last
// held the key: a small table written on every hit and fill. It is only
// a guess — a colliding key may have overwritten it, or the way may
// have been refilled since — so a caller uses a hinted way only after
// checking that the way holds the key, and otherwise runs its scan.
// The table's own key array stays the only source of truth, and hits,
// misses, recency and victims are exactly the plain scan's.
type WayHint struct {
	way   []uint8 // nil: no hint
	shift uint
}

// NewWayHint sizes a hint for a one-set table of the given ways: eight
// slots per way, rounded up to a power of two, so live keys seldom
// share a slot. Tables wider than a uint8 can name get no hint.
func NewWayHint(ways int) WayHint {
	if ways > 256 {
		return WayHint{}
	}
	bits := uint(3)
	for 1<<bits < 8*ways {
		bits++
	}
	return WayHint{way: make([]uint8, 1<<bits), shift: 64 - bits}
}

// Slot returns key's hint slot, which holds a way below the table's
// width, or nil when there is no hint.
func (h *WayHint) Slot(key uint64) *uint8 {
	if h.way == nil {
		return nil
	}
	return &h.way[key*0x9E3779B97F4A7C15>>h.shift]
}

// Reset forgets every guess.
func (h *WayHint) Reset() { clear(h.way) }

// Geometry derives a sets×ways shape for a structure specified only by
// total capacity: sets is the largest power of two with sets*targetWays
// <= capacity, and ways divides the remaining capacity across each set
// (so capacity 64 at target 4 ways gives 16×4, capacity 48 gives 8×6).
// The effective capacity is sets*ways, which may round capacity down
// when it is not divisible.
func Geometry(capacity, targetWays int) (sets, ways int) {
	if capacity <= 0 {
		return 0, 0
	}
	if targetWays <= 0 {
		targetWays = 1
	}
	sets = 1
	for sets*2*targetWays <= capacity {
		sets *= 2
	}
	ways = capacity / sets
	return sets, ways
}

func (t *Table[V]) setOf(key uint64) int {
	if t.mask == 0 {
		return 0
	}
	return int(rng.Mix64(key)&t.mask) * t.ways
}

// hinted checks key's way hint, which only one-set tables keep (so the
// hinted way is the slot): it returns key's slot if that way holds it
// (else -1), and the hint slot to update after a scan (nil for a table
// without a hint). Keys are unique among a set's valid ways, so a
// verified guess is the slot the scan would find.
func (t *Table[V]) hinted(key uint64) (int, *uint8) {
	hs := t.hint.Slot(key)
	if hs != nil {
		if i := int(*hs); t.keys[i] == key && t.valid[i] {
			return i, hs
		}
	}
	return -1, hs
}

// find returns the slot holding key, or -1.
func (t *Table[V]) find(key uint64) int {
	i, hs := t.hinted(key)
	if i >= 0 {
		return i
	}
	base := t.setOf(key)
	// Key first: a mismatched way is rejected on the keys array alone,
	// without touching the valid bytes (keys are only trusted when valid).
	for w := 0; w < t.ways; w++ {
		i := base + w
		if t.keys[i] == key && t.valid[i] {
			if hs != nil {
				*hs = uint8(w)
			}
			return i
		}
	}
	return -1
}

// Lookup returns the value for key and refreshes its recency, or nil.
func (t *Table[V]) Lookup(key uint64) *V {
	i := t.find(key)
	if i < 0 {
		return nil
	}
	t.tick++
	t.lru[i] = t.tick
	return &t.vals[i]
}

// Peek returns the value for key without touching recency, or nil.
func (t *Table[V]) Peek(key uint64) *V {
	if i := t.find(key); i >= 0 {
		return &t.vals[i]
	}
	return nil
}

// Insert returns the slot for key, allocating it if absent. When key was
// already present, existed is true and the stored value is returned
// untouched; otherwise the set's LRU way (or an invalid way) is claimed,
// the displaced victim — if any — is reported in ev, and the returned
// slot is zeroed for the caller to fill. Recency is refreshed either way.
func (t *Table[V]) Insert(key uint64) (slot *V, existed bool, ev Evicted[V]) {
	i, hs := t.hinted(key)
	if i >= 0 {
		t.tick++
		t.lru[i] = t.tick
		return &t.vals[i], true, ev
	}
	base := t.setOf(key)
	victim := -1
	var victimLRU uint64
	for w := 0; w < t.ways; w++ {
		i := base + w
		if t.keys[i] == key && t.valid[i] {
			if hs != nil {
				*hs = uint8(w)
			}
			t.tick++
			t.lru[i] = t.tick
			return &t.vals[i], true, ev
		}
		if !t.valid[i] {
			if victim < 0 || t.valid[victim] {
				victim = i
			}
		} else if victim < 0 || (t.valid[victim] && t.lru[i] < victimLRU) {
			victim, victimLRU = i, t.lru[i]
		}
	}
	if t.valid[victim] {
		ev = Evicted[V]{Key: t.keys[victim], Val: t.vals[victim], OK: true}
	} else {
		t.n++
	}
	var zero V
	t.keys[victim] = key
	t.valid[victim] = true
	t.vals[victim] = zero
	t.tick++
	t.lru[victim] = t.tick
	if hs != nil {
		*hs = uint8(victim - base)
	}
	return &t.vals[victim], false, ev
}

// Remove invalidates key's slot, returning a copy of its value.
func (t *Table[V]) Remove(key uint64) (V, bool) {
	var zero V
	i := t.find(key)
	if i < 0 {
		return zero, false
	}
	v := t.vals[i]
	t.vals[i] = zero
	t.valid[i] = false
	t.n--
	return v, true
}

// At exposes slot i (0 <= i < Cap) for round-robin/clock scans.
func (t *Table[V]) At(i int) (key uint64, val *V, ok bool) {
	if !t.valid[i] {
		return 0, nil, false
	}
	return t.keys[i], &t.vals[i], true
}

// EvictAt invalidates slot i regardless of key.
func (t *Table[V]) EvictAt(i int) {
	if t.valid[i] {
		var zero V
		t.vals[i] = zero
		t.valid[i] = false
		t.n--
	}
}

// Len returns the number of valid entries.
func (t *Table[V]) Len() int { return t.n }

// Cap returns sets*ways.
func (t *Table[V]) Cap() int { return t.sets * t.ways }

// Sets returns the set count.
func (t *Table[V]) Sets() int { return t.sets }

// Ways returns the associativity.
func (t *Table[V]) Ways() int { return t.ways }

// Reset invalidates every entry, keeping the allocated storage. The
// resulting state is indistinguishable from a freshly built table, so
// simulators pooled across runs stay bit-identical to cold ones.
func (t *Table[V]) Reset() {
	clear(t.keys)
	clear(t.valid)
	clear(t.lru)
	clear(t.vals)
	t.hint.Reset()
	t.tick = 0
	t.n = 0
}
