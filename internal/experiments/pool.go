package experiments

import (
	"slices"
	"sync"
	"sync/atomic"

	"exysim/internal/core"
	"exysim/internal/obs"
)

// SimPool shares constructed simulators across Run invocations, keyed by
// configuration digest — not name, so two hypothetical generations that
// both call themselves "M7" but size their predictors differently can
// never hand each other's instances out. A long-lived process serving many sweeps (the
// exyserve daemon) hands the same pool to every Run: workers check
// instances out on first use of a generation and return the healthy
// survivors when the sweep ends, so steady-state serving constructs no
// simulators at all — each request only pays Reset(), which restores
// cold state without reallocating (reuse_test.go pins bit-identity).
//
// Instances suspected of corruption (panic, timeout, cancellation
// mid-slice) are discarded by the sweep and never returned, so the pool
// only ever holds simulators that finished their last slice cleanly.
//
// The pool keeps idle simulators for at most maxPooledConfigs
// configurations. When a simulator of one more configuration comes
// back, the idle simulators of the what-if configuration used (checked
// out or returned) least recently are dropped, so a stream of one-shot
// what-if configurations cannot grow a long-lived server's heap without
// bound. The shipped generations are never the ones dropped: a server
// whose population jobs take M1–M6 from the result store may go
// many one-shot M7 sweeps without touching them, while its slice jobs
// still want them warm.
//
// All methods are safe for concurrent use.
type SimPool struct {
	mu   sync.Mutex
	idle map[string][]*core.Simulator
	// recent lists the keys of idle, least recently used first.
	recent  []string
	built   atomic.Uint64
	evicted atomic.Uint64
}

// maxPooledConfigs is the number of configurations SimPool keeps idle
// simulators for: the shipped generations plus one what-if, the working
// set of a server sweeping one predictor-lab configuration at a time.
var maxPooledConfigs = len(core.Generations()) + 1

// shippedKeys are the pool keys of the shipped generations.
var shippedKeys = func() map[string]bool {
	keys := make(map[string]bool)
	for _, g := range core.Generations() {
		keys[poolKey(g)] = true
	}
	return keys
}()

// NewSimPool builds an empty pool.
func NewSimPool() *SimPool {
	return &SimPool{idle: make(map[string][]*core.Simulator)}
}

// poolKey is the pool's bucket key for a configuration. The digest
// covers the whole GenConfig, predictor spec included.
func poolKey(cfg core.GenConfig) string { return obs.ConfigDigest(cfg) }

// take removes and returns an idle simulator under key, or nil if none
// is pooled. The caller must Reset() it before use.
func (p *SimPool) take(key string) *core.Simulator {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := p.idle[key]
	if len(l) == 0 {
		return nil
	}
	sim := l[len(l)-1]
	l[len(l)-1] = nil
	p.unlistLocked(key)
	if len(l) == 1 {
		delete(p.idle, key)
	} else {
		p.idle[key] = l[:len(l)-1]
		p.recent = append(p.recent, key)
	}
	return sim
}

// give returns a healthy simulator to the pool. When key makes one
// configuration too many, the least recently used what-if
// configuration's idle simulators are dropped.
func (p *SimPool) give(key string, sim *core.Simulator) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.unlistLocked(key)
	p.idle[key] = append(p.idle[key], sim)
	p.recent = append(p.recent, key)
	if len(p.recent) > maxPooledConfigs {
		// recent holds two distinct keys more than there are shipped
		// generations, so at least two are what-ifs.
		i := slices.IndexFunc(p.recent, func(k string) bool { return !shippedKeys[k] })
		lru := p.recent[i]
		p.recent = slices.Delete(p.recent, i, i+1)
		p.evicted.Add(uint64(len(p.idle[lru])))
		delete(p.idle, lru)
	}
}

// unlistLocked removes key from the recency list.
func (p *SimPool) unlistLocked(key string) {
	if i := slices.Index(p.recent, key); i >= 0 {
		p.recent = slices.Delete(p.recent, i, i+1)
	}
}

// Get returns a simulator for cfg: a recycled instance already Reset()
// to cold state when one is idle, a newly constructed one otherwise.
// Single-slice jobs use this directly; population sweeps go through
// WithSimPool, which batches checkout per worker instead.
func (p *SimPool) Get(cfg core.GenConfig) *core.Simulator {
	if sim := p.take(poolKey(cfg)); sim != nil {
		sim.Reset()
		return sim
	}
	p.built.Add(1)
	return core.NewSimulator(cfg)
}

// Put returns a healthy simulator to the pool. Never return an instance
// whose last run failed — discard it instead.
func (p *SimPool) Put(sim *core.Simulator) {
	p.give(poolKey(sim.Config()), sim)
}

// Built counts simulator constructions performed on behalf of this pool
// (cache misses, in effect). A steady-state server sees this stop
// growing once every (worker, generation) pair is warm — the serve
// tests assert exactly that — as long as it reuses no more than
// maxPooledConfigs configurations.
func (p *SimPool) Built() uint64 {
	return p.built.Load()
}

// Evictions counts idle simulators dropped to keep the pool within
// maxPooledConfigs configurations.
func (p *SimPool) Evictions() uint64 {
	return p.evicted.Load()
}

// Idle returns the number of simulators currently checked in.
func (p *SimPool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, l := range p.idle {
		n += len(l)
	}
	return n
}
