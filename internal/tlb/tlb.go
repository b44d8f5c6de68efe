// Package tlb models the translation hierarchy of Table I: sectored
// set-associative L1 instruction and data TLBs, the fast "level 1.5
// data TLB" added in M3 to provide capacity at much lower latency than
// the large L2 TLB (§III), the shared L2 TLB, and a fixed-cost page-table
// walker. Geometry is expressed as the table's (entries/ways/sectors)
// triples, where a sector groups consecutive pages under one tag.
package tlb

import (
	"exysim/internal/obs"
	"exysim/internal/satable"
)

// PageBits is the translation granule (4KB pages).
const PageBits = 12

// Config sizes one TLB level as Table I does: total pages mapped,
// organized as Entries tags of Ways associativity with Sectors
// consecutive pages per tag.
type Config struct {
	Name    string
	Entries int // tags
	Ways    int
	Sectors int // pages per tag (power of two)
	// Latency is the added cycles when the lookup is satisfied at this
	// level (0 for the L1s, which are probed in parallel with the
	// cache).
	Latency int
}

// Pages returns total pages mapped (the Table I headline number).
func (c Config) Pages() int { return c.Entries * c.Sectors }

// TLB is one translation level.
type TLB struct {
	cfg    Config
	sets   int
	ways   int
	secLog uint
	// tags is a flat sets*ways array; set s occupies [s*ways, (s+1)*ways).
	tags []entry
	// tagw shadows tags' (tag, valid) as tag<<1|valid so the hit scan
	// walks one packed word per way.
	tagw []uint64
	// lrus holds per-way recency ticks parallel to tags, so victim
	// selection scans one word per way instead of a whole entry.
	lrus []uint64
	// hint guesses the way holding a tag in a fully-associative level
	// (one set, tens of ways); set-associative levels scan without one.
	hint   satable.WayHint
	tick   uint64
	hits   uint64
	misses uint64
}

type entry struct {
	tag     uint64
	present uint64 // per-sector-page valid bitmap
	valid   bool
}

// New builds a TLB level.
func New(cfg Config) *TLB {
	if cfg.Entries <= 0 || cfg.Ways <= 0 || cfg.Sectors <= 0 {
		panic("tlb: invalid geometry")
	}
	secLog := uint(0)
	for 1<<secLog < cfg.Sectors {
		secLog++
	}
	if 1<<secLog != cfg.Sectors || cfg.Sectors > 64 {
		panic("tlb: sectors must be a power of two <= 64")
	}
	sets := cfg.Entries / cfg.Ways
	if sets == 0 {
		sets = 1
	}
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	t := &TLB{
		cfg: cfg, sets: p, ways: cfg.Ways, secLog: secLog,
		tags: make([]entry, p*cfg.Ways),
		tagw: make([]uint64, p*cfg.Ways),
		lrus: make([]uint64, p*cfg.Ways),
	}
	if p == 1 {
		t.hint = satable.NewWayHint(cfg.Ways)
	}
	return t
}

// Config returns the level's configuration.
func (t *TLB) Config() Config { return t.cfg }

// Hits returns the level's lookup hits so far.
func (t *TLB) Hits() uint64 { return t.hits }

// Misses returns the level's lookup misses so far.
func (t *TLB) Misses() uint64 { return t.misses }

// HitRate returns the level's hit rate so far.
func (t *TLB) HitRate() float64 {
	if t.hits+t.misses == 0 {
		return 0
	}
	return float64(t.hits) / float64(t.hits+t.misses)
}

// Reset restores the level to its post-New cold state in place,
// keeping the backing arrays.
func (t *TLB) Reset() {
	clear(t.tags)
	clear(t.tagw)
	clear(t.lrus)
	t.hint.Reset()
	t.tick = 0
	t.hits = 0
	t.misses = 0
}

func (t *TLB) index(addr uint64) (set int, tag uint64, sub uint) {
	page := addr >> PageBits
	granule := page >> t.secLog
	return int(granule) & (t.sets - 1), granule, uint(page & ((1 << t.secLog) - 1))
}

// find returns the way of the set at base whose packed tag word is
// want, or -1, plus the tag's hint slot (nil without a hint). A hinted
// way is taken only after its tag word is checked; tags are unique
// within a set, so it is the way the scan would find.
func (t *TLB) find(base int, want uint64) (int, *uint8) {
	hs := t.hint.Slot(want)
	if hs != nil && t.tagw[base+int(*hs)] == want {
		return int(*hs), hs
	}
	for w, tw := range t.tagw[base : base+t.ways] {
		if tw == want {
			if hs != nil {
				*hs = uint8(w)
			}
			return w, hs
		}
	}
	return -1, hs
}

// Lookup probes the level.
func (t *TLB) Lookup(addr uint64) bool {
	set, tag, sub := t.index(addr)
	base := set * t.ways
	if w, _ := t.find(base, tag<<1|1); w >= 0 && t.tags[base+w].present&(1<<sub) != 0 {
		t.tick++
		t.lrus[base+w] = t.tick
		t.hits++
		return true
	}
	t.misses++
	return false
}

// Insert installs addr's translation, evicting LRU.
func (t *TLB) Insert(addr uint64) {
	set, tag, sub := t.index(addr)
	base := set * t.ways
	t.tick++
	want := tag<<1 | 1
	w, hs := t.find(base, want)
	if w >= 0 {
		t.tags[base+w].present |= 1 << sub
		t.lrus[base+w] = t.tick
		return
	}
	// Victim way: invalid first, else LRU — both over the packed arrays.
	vw := 0
	bestLRU := t.lrus[base]
	for w := 0; w < t.ways; w++ {
		if t.tagw[base+w]&1 == 0 {
			vw = w
			break
		}
		if l := t.lrus[base+w]; l < bestLRU {
			vw, bestLRU = w, l
		}
	}
	t.tags[base+vw] = entry{tag: tag, present: 1 << sub, valid: true}
	t.tagw[base+vw] = want
	t.lrus[base+vw] = t.tick
	if hs != nil {
		*hs = uint8(vw)
	}
}

// Hierarchy is a core's translation stack: an L1 (I or D side), the
// optional L1.5 (data side, M3+), the shared L2 TLB, and the walker.
type Hierarchy struct {
	L1  *TLB
	L15 *TLB // nil before M3 / on the instruction side
	L2  *TLB
	// WalkLatency is the page-table walk cost on a full miss.
	WalkLatency int

	walks uint64
}

// Walks returns the number of page-table walks performed.
func (h *Hierarchy) Walks() uint64 { return h.walks }

// Reset restores every level to cold state and clears the walk count.
func (h *Hierarchy) Reset() {
	h.L1.Reset()
	if h.L15 != nil {
		h.L15.Reset()
	}
	h.L2.Reset()
	h.walks = 0
}

// Translate returns the added latency for translating addr: 0 on an L1
// hit, the inner levels' latencies on refills, or the walk cost. All
// levels on the path learn the translation (the L1 prefetching effect of
// the virtual-address prefetcher in §VII-A comes from calling this for
// prefetch addresses too).
func (h *Hierarchy) Translate(addr uint64) int {
	if h.L1.Lookup(addr) {
		return 0
	}
	if h.L15 != nil && h.L15.Lookup(addr) {
		h.L1.Insert(addr)
		return h.L15.cfg.Latency
	}
	if h.L2.Lookup(addr) {
		if h.L15 != nil {
			h.L15.Insert(addr)
		}
		h.L1.Insert(addr)
		return h.L2.cfg.Latency
	}
	h.walks++
	h.L2.Insert(addr)
	if h.L15 != nil {
		h.L15.Insert(addr)
	}
	h.L1.Insert(addr)
	return h.WalkLatency
}

// RegisterMetrics publishes the stack's per-level hit/miss counters and
// walk count into an observability scope (e.g. "mem.tlb.d").
func (h *Hierarchy) RegisterMetrics(sc *obs.Scope) {
	level := func(name string, t *TLB) {
		if t == nil {
			return
		}
		c := sc.Child(name)
		c.Counter("hits", func() uint64 { return t.hits })
		c.Counter("misses", func() uint64 { return t.misses })
	}
	level("l1", h.L1)
	level("l15", h.L15)
	level("l2", h.L2)
	sc.Counter("walks", func() uint64 { return h.walks })
}

// Prefill warms the translation for a prefetch address without charging
// latency, modelling §VII-A's observation that a virtual-address
// prefetcher "inherently acts as a simple TLB prefetcher".
func (h *Hierarchy) Prefill(addr uint64) {
	_ = h.Translate(addr)
}
