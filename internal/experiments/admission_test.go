package experiments

import (
	"fmt"
	"testing"

	"exysim/internal/core"
)

// TestSimPoolBoundKeepsSevenConfigs: simulators of more than
// maxPooledConfigs configurations leave at most maxPooledConfigs of them
// idle. The configuration used least recently loses its idle simulators
// first, and Evictions counts each one dropped.
func TestSimPoolBoundKeepsSevenConfigs(t *testing.T) {
	if maxPooledConfigs != len(core.Generations())+1 {
		t.Fatalf("bound = %d, want the shipped generations plus one", maxPooledConfigs)
	}
	// Distinct names make distinct configurations of one cheap core.
	cfgs := make([]core.GenConfig, maxPooledConfigs+2)
	for i := range cfgs {
		cfgs[i] = core.Generations()[0]
		cfgs[i].Name = fmt.Sprintf("P%d", i)
	}
	pool := NewSimPool()
	for i, c := range cfgs[:maxPooledConfigs] {
		if i == 1 {
			// Config 1 holds two idle simulators.
			a := pool.Get(c)
			pool.Put(pool.Get(c))
			pool.Put(a)
			continue
		}
		pool.Put(pool.Get(c))
	}
	// Using config 0 again leaves config 1 the least recently used.
	pool.Put(pool.Get(cfgs[0]))
	if pool.Evictions() != 0 || pool.Idle() != maxPooledConfigs+1 {
		t.Fatalf("within the bound: %d evictions, %d idle", pool.Evictions(), pool.Idle())
	}

	pool.Put(pool.Get(cfgs[maxPooledConfigs]))
	if _, ok := pool.idle[poolKey(cfgs[1])]; ok {
		t.Fatal("the least recently used configuration kept its idle simulators")
	}
	if _, ok := pool.idle[poolKey(cfgs[0])]; !ok {
		t.Fatal("a recently used configuration was evicted")
	}
	if pool.Evictions() != 2 {
		t.Fatalf("evictions = %d, want config 1's two simulators", pool.Evictions())
	}

	pool.Put(pool.Get(cfgs[maxPooledConfigs+1]))
	if got := len(pool.idle); got != maxPooledConfigs {
		t.Fatalf("%d configurations idle, bound is %d", got, maxPooledConfigs)
	}
	if pool.Evictions() != 3 || pool.Idle() != maxPooledConfigs {
		t.Fatalf("after a ninth configuration: %d evictions, %d idle", pool.Evictions(), pool.Idle())
	}
	if _, ok := pool.idle[poolKey(cfgs[2])]; ok {
		t.Fatal("config 2, now least recently used, kept its idle simulator")
	}
}

// TestSimPoolBoundSparesShippedGenerations: what-ifs passing through a
// pool that holds the shipped generations evict each other, never a
// shipped generation, however long ago it was last used.
func TestSimPoolBoundSparesShippedGenerations(t *testing.T) {
	pool := NewSimPool()
	shipped := core.Generations()
	for _, g := range shipped {
		pool.Put(pool.Get(g))
	}
	for i := 0; i < 3; i++ {
		c := shipped[0]
		c.Name = fmt.Sprintf("W%d", i)
		pool.Put(pool.Get(c))
	}
	for _, g := range shipped {
		if _, ok := pool.idle[poolKey(g)]; !ok {
			t.Fatalf("shipped generation %s was evicted for a what-if", g.Name)
		}
	}
	if pool.Evictions() != 2 || len(pool.idle) != maxPooledConfigs {
		t.Fatalf("%d evictions, %d configurations idle: want the two older what-ifs gone", pool.Evictions(), len(pool.idle))
	}
}
