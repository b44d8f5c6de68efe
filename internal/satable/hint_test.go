package satable

import (
	"fmt"
	"testing"

	"exysim/internal/rng"
)

// refTable is the plain linear-scan table the way hint must not be
// able to tell apart from: same set index, same key-first scan, same
// victim rule (first invalid way, else the first least recently used).
type refTable struct {
	sets, ways int
	keys       []uint64
	valid      []bool
	lru        []uint64
	vals       []int
	tick       uint64
	n          int
}

func newRefTable(sets, ways int) *refTable {
	return &refTable{
		sets: sets, ways: ways,
		keys: make([]uint64, sets*ways), valid: make([]bool, sets*ways),
		lru: make([]uint64, sets*ways), vals: make([]int, sets*ways),
	}
}

func (r *refTable) base(key uint64) int {
	return int(rng.Mix64(key)&uint64(r.sets-1)) * r.ways
}

func (r *refTable) find(key uint64) int {
	b := r.base(key)
	for w := 0; w < r.ways; w++ {
		if r.valid[b+w] && r.keys[b+w] == key {
			return b + w
		}
	}
	return -1
}

func (r *refTable) lookup(key uint64) *int {
	i := r.find(key)
	if i < 0 {
		return nil
	}
	r.tick++
	r.lru[i] = r.tick
	return &r.vals[i]
}

func (r *refTable) insert(key uint64) (slot *int, existed bool, ev Evicted[int]) {
	if i := r.find(key); i >= 0 {
		r.tick++
		r.lru[i] = r.tick
		return &r.vals[i], true, ev
	}
	b, victim := r.base(key), -1
	for w := 0; w < r.ways && victim < 0; w++ {
		if !r.valid[b+w] {
			victim = b + w
		}
	}
	if victim < 0 {
		victim = b
		for w := 1; w < r.ways; w++ {
			if r.lru[b+w] < r.lru[victim] {
				victim = b + w
			}
		}
		ev = Evicted[int]{Key: r.keys[victim], Val: r.vals[victim], OK: true}
	} else {
		r.n++
	}
	r.keys[victim], r.valid[victim], r.vals[victim] = key, true, 0
	r.tick++
	r.lru[victim] = r.tick
	return &r.vals[victim], false, ev
}

func (r *refTable) remove(i int) (int, bool) {
	if i < 0 || !r.valid[i] {
		return 0, false
	}
	v := r.vals[i]
	r.valid[i], r.vals[i] = false, 0
	r.n--
	return v, true
}

// TestHintMatchesScanProperty drives random Lookup/Insert/Peek/Remove/
// EvictAt/Reset sequences through hinted one-set tables and an unhinted
// set-indexed one, next to the linear-scan reference. After every
// operation the results, the evicted keys and values, and every valid
// slot's key, value and recency tick must match. Some steps overwrite
// hint slots with arbitrary ways: a stale guess may cost a scan, never
// a different answer.
func TestHintMatchesScanProperty(t *testing.T) {
	for _, g := range []struct{ sets, ways int }{{1, 16}, {1, 32}, {64, 4}} {
		t.Run(fmt.Sprintf("%dx%d", g.sets, g.ways), func(t *testing.T) {
			tb, ref := New[int](g.sets, g.ways), newRefTable(g.sets, g.ways)
			if hinted := tb.hint.way != nil; hinted != (g.sets == 1) {
				t.Fatalf("hint enabled = %v for %d sets", hinted, g.sets)
			}
			r := rng.New(uint64(g.sets*1000 + g.ways))
			// Keys from a pool three times the capacity, so both hits and
			// evictions are common and live keys share hint slots.
			pool := make([]uint64, 3*g.sets*g.ways)
			for i := range pool {
				pool[i] = r.Uint64()
			}
			for step := 0; step < 30_000; step++ {
				key := pool[r.Intn(len(pool))]
				var op string
				switch u := r.Intn(100); {
				case u < 40:
					op = "Lookup"
					got, want := tb.Lookup(key), ref.lookup(key)
					if (got == nil) != (want == nil) || got != nil && *got != *want {
						t.Fatalf("step %d: Lookup(%#x) = %v, want %v", step, key, got, want)
					}
				case u < 75:
					op = "Insert"
					slot, existed, ev := tb.Insert(key)
					rslot, rexisted, rev := ref.insert(key)
					if existed != rexisted || ev != rev || *slot != *rslot {
						t.Fatalf("step %d: Insert(%#x) = (%d, %v, %+v), want (%d, %v, %+v)",
							step, key, *slot, existed, ev, *rslot, rexisted, rev)
					}
					v := r.Intn(1 << 20)
					*slot, *rslot = v, v
				case u < 85:
					op = "Peek"
					got, want := tb.Peek(key), ref.find(key)
					if (got == nil) != (want < 0) || got != nil && *got != ref.vals[want] {
						t.Fatalf("step %d: Peek(%#x) = %v, want slot %d", step, key, got, want)
					}
				case u < 92:
					op = "Remove"
					v, ok := tb.Remove(key)
					rv, rok := ref.remove(ref.find(key))
					if v != rv || ok != rok {
						t.Fatalf("step %d: Remove(%#x) = (%d, %v), want (%d, %v)", step, key, v, ok, rv, rok)
					}
				case u < 97:
					op = "EvictAt"
					i := r.Intn(tb.Cap())
					tb.EvictAt(i)
					ref.remove(i)
				case u < 99:
					op = "scramble hint"
					for i := range tb.hint.way {
						if r.Bool(0.5) {
							tb.hint.way[i] = uint8(r.Intn(g.ways))
						}
					}
				default:
					op = "Reset"
					tb.Reset()
					*ref = *newRefTable(g.sets, g.ways)
				}
				if tb.tick != ref.tick || tb.Len() != ref.n {
					t.Fatalf("step %d (%s): tick/len %d/%d, want %d/%d", step, op, tb.tick, tb.Len(), ref.tick, ref.n)
				}
				for i := 0; i < tb.Cap(); i++ {
					k, v, ok := tb.At(i)
					if ok != ref.valid[i] || ok && (k != ref.keys[i] || *v != ref.vals[i] || tb.lru[i] != ref.lru[i]) {
						t.Fatalf("step %d (%s): slot %d = (%#x, %v, lru %d), want (%#x, %v, lru %d)",
							step, op, i, k, ok, tb.lru[i], ref.keys[i], ref.valid[i], ref.lru[i])
					}
				}
			}
		})
	}
}
