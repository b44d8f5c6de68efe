package tlb

import (
	"fmt"
	"testing"

	"exysim/internal/rng"
)

// refTLB is the plain linear-scan level the way hint must not be able
// to tell apart from: a tag match whose sector page is absent is a
// miss, and a fill takes the first invalid way, else the first least
// recently used.
type refTLB struct {
	sets, ways   int
	secLog       uint
	tag, present []uint64
	valid        []bool
	lru          []uint64
	tick         uint64
	hits, misses uint64
}

func newRefTLB(t *TLB) *refTLB {
	n := t.sets * t.ways
	return &refTLB{
		sets: t.sets, ways: t.ways, secLog: t.secLog,
		tag: make([]uint64, n), present: make([]uint64, n),
		valid: make([]bool, n), lru: make([]uint64, n),
	}
}

func (r *refTLB) find(addr uint64) (way int, sub uint) {
	page := addr >> PageBits
	granule := page >> r.secLog
	base := (int(granule) & (r.sets - 1)) * r.ways
	sub = uint(page & (1<<r.secLog - 1))
	for w := base; w < base+r.ways; w++ {
		if r.valid[w] && r.tag[w] == granule {
			return w, sub
		}
	}
	return -base - 1, sub // a miss encodes the set's base
}

func (r *refTLB) lookup(addr uint64) bool {
	if w, sub := r.find(addr); w >= 0 && r.present[w]&(1<<sub) != 0 {
		r.tick++
		r.lru[w] = r.tick
		r.hits++
		return true
	}
	r.misses++
	return false
}

func (r *refTLB) insert(addr uint64) {
	r.tick++
	w, sub := r.find(addr)
	if w >= 0 {
		r.present[w] |= 1 << sub
		r.lru[w] = r.tick
		return
	}
	base, victim := -w-1, -1
	for v := base; v < base+r.ways && victim < 0; v++ {
		if !r.valid[v] {
			victim = v
		}
	}
	if victim < 0 {
		victim = base
		for v := base + 1; v < base+r.ways; v++ {
			if r.lru[v] < r.lru[victim] {
				victim = v
			}
		}
	}
	r.tag[victim] = addr >> PageBits >> r.secLog
	r.present[victim], r.valid[victim], r.lru[victim] = 1<<sub, true, r.tick
}

// TestHintMatchesScanProperty drives random Lookup/Insert/Reset
// sequences through hinted fully-associative levels (sectored and not)
// and unhinted set-associative ones, next to the linear-scan
// reference. After every operation the lookup result, the hit and miss
// counts, and every way's tag, sector bitmap and recency tick must
// match. Some steps overwrite hint slots with arbitrary ways: a stale
// guess may cost a scan, never a different answer.
func TestHintMatchesScanProperty(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "dtlb", Entries: 32, Ways: 32, Sectors: 1},
		{Name: "dtlb-m6", Entries: 128, Ways: 128, Sectors: 1},
		{Name: "itlb", Entries: 64, Ways: 64, Sectors: 8},
		{Name: "d15", Entries: 128, Ways: 4, Sectors: 4},
		{Name: "l2", Entries: 1024, Ways: 4, Sectors: 1},
	} {
		t.Run(fmt.Sprintf("%s-%dx%d", cfg.Name, cfg.Entries/cfg.Ways, cfg.Ways), func(t *testing.T) {
			tl := New(cfg)
			ref := newRefTLB(tl)
			if hinted := tl.hint.Slot(0) != nil; hinted != (tl.sets == 1) {
				t.Fatalf("hint enabled = %v for %d sets", hinted, tl.sets)
			}
			r := rng.New(uint64(cfg.Entries*100 + cfg.Ways))
			// Tags from a pool three times the level's, each address one
			// of the tag's sector pages, so sectored levels see tag hits
			// whose page is absent as well as plain hits and misses.
			pool := make([]uint64, 3*cfg.Entries)
			for i := range pool {
				pool[i] = r.Uint64() >> 30
			}
			for step := 0; step < 30_000; step++ {
				page := pool[r.Intn(len(pool))]<<tl.secLog | uint64(r.Intn(cfg.Sectors))
				addr := page<<PageBits | uint64(r.Intn(1<<PageBits))
				var op string
				switch u := r.Intn(100); {
				case u < 55:
					op = "Lookup"
					if got, want := tl.Lookup(addr), ref.lookup(addr); got != want {
						t.Fatalf("step %d: Lookup(%#x) = %v, want %v", step, addr, got, want)
					}
				case u < 97:
					op = "Insert"
					tl.Insert(addr)
					ref.insert(addr)
				case u < 99:
					op = "scramble hint"
					for k := 0; k < 64; k++ {
						if hs := tl.hint.Slot(r.Uint64()); hs != nil {
							*hs = uint8(r.Intn(tl.ways))
						}
					}
				default:
					op = "Reset"
					tl.Reset()
					ref = newRefTLB(tl)
				}
				if tl.Hits() != ref.hits || tl.Misses() != ref.misses || tl.tick != ref.tick {
					t.Fatalf("step %d (%s): hits/misses/tick %d/%d/%d, want %d/%d/%d",
						step, op, tl.Hits(), tl.Misses(), tl.tick, ref.hits, ref.misses, ref.tick)
				}
				for w := range tl.tags {
					e := tl.tags[w]
					if e.valid != ref.valid[w] || e.valid && (e.tag != ref.tag[w] || e.present != ref.present[w] || tl.lrus[w] != ref.lru[w]) {
						t.Fatalf("step %d (%s): way %d = %+v lru %d, want tag %#x present %#x valid %v lru %d",
							step, op, w, e, tl.lrus[w], ref.tag[w], ref.present[w], ref.valid[w], ref.lru[w])
					}
				}
			}
		})
	}
}
