package experiments

import "container/list"

// lru is a least-recently-used map whose entries are charged bytes
// against one budget: the one eviction rule behind the population
// table, the warm images and the result store. It does no locking;
// each user holds its own lock around every call.
type lru[K comparable, V any] struct {
	budget, bytes int64
	evictions     uint64
	onEvict       func(K, V) // nil, or told of each entry the budget evicts
	order         *list.List // front = most recent; values are *lruEntry[K, V]
	entries       map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key   K
	val   V
	bytes int64
}

func newLRU[K comparable, V any](budget int64, onEvict func(K, V)) *lru[K, V] {
	return &lru[K, V]{budget: budget, onEvict: onEvict, order: list.New(), entries: make(map[K]*list.Element)}
}

// get returns k's value, marking it most recently used.
func (c *lru[K, V]) get(k K) (V, bool) {
	el, ok := c.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// put stores v under k, charged n bytes, as the most recent entry in
// place of what k held, then evicts the least recently used entries
// past the budget. An entry larger than the whole budget is not
// stored; put reports whether v was.
func (c *lru[K, V]) put(k K, v V, n int64) bool {
	if n > c.budget {
		return false
	}
	if el, ok := c.entries[k]; ok {
		ent := el.Value.(*lruEntry[K, V])
		c.bytes += n - ent.bytes
		ent.val, ent.bytes = v, n
		c.order.MoveToFront(el)
	} else {
		c.entries[k] = c.order.PushFront(&lruEntry[K, V]{k, v, n})
		c.bytes += n
	}
	c.evict()
	return true
}

// remove drops k, reporting whether it was stored. A removal is not
// an eviction: onEvict is not called.
func (c *lru[K, V]) remove(k K) bool {
	el, ok := c.entries[k]
	if ok {
		c.drop(el)
	}
	return ok
}

// setBudget bounds the entries to budget bytes, evicting past it.
func (c *lru[K, V]) setBudget(budget int64) {
	c.budget = budget
	c.evict()
}

func (c *lru[K, V]) len() int { return c.order.Len() }

func (c *lru[K, V]) evict() {
	for c.bytes > c.budget && c.order.Len() > 0 {
		ent := c.drop(c.order.Back())
		c.evictions++
		if c.onEvict != nil {
			c.onEvict(ent.key, ent.val)
		}
	}
}

func (c *lru[K, V]) drop(el *list.Element) *lruEntry[K, V] {
	ent := c.order.Remove(el).(*lruEntry[K, V])
	delete(c.entries, ent.key)
	c.bytes -= ent.bytes
	return ent
}
