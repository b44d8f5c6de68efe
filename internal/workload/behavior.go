package workload

import (
	"exysim/internal/rng"
)

// condGen produces per-execution outcomes for one static conditional
// branch. The mix of generators in a program determines where its slice
// falls on the paper's MPKI spectrum (Fig. 9): biased and pattern branches
// are learnable, history-correlated branches need sufficient GHIST reach,
// and Bernoulli branches are irreducibly hard.
type condGen interface {
	next(ctx *emitCtx) bool
}

// tripGen produces loop trip counts.
type tripGen interface {
	next(ctx *emitCtx) int
}

// targetSel selects which arm of an indirect branch executes.
type targetSel interface {
	next(ctx *emitCtx) int
}

// memGen produces effective addresses for one static load/store.
type memGen interface {
	next(ctx *emitCtx) uint64
}

// ---- conditional branch behaviours ----

// biasedCond is taken with fixed probability p drawn independently each
// execution. p near 0 or 1 yields easy branches; p near 0.5 is the
// hardest possible branch for any predictor.
type biasedCond struct {
	p float64
}

func (b *biasedCond) next(ctx *emitCtx) bool { return ctx.r.Bool(b.p) }

// alwaysCond has a constant outcome; models always-taken (1AT/ZAT
// candidates) and never-taken branches.
type alwaysCond struct {
	taken bool
}

func (a *alwaysCond) next(ctx *emitCtx) bool { return a.taken }

// patternCond cycles through a fixed outcome pattern; learnable by local
// or global history once the history window covers the period.
type patternCond struct {
	bits []bool
	i    int
}

func (p *patternCond) next(ctx *emitCtx) bool {
	v := p.bits[p.i%len(p.bits)]
	p.i++
	return v
}

// newPatternCond builds a random pattern of the given period with
// roughly balanced outcomes.
func newPatternCond(r *rng.RNG, period int) *patternCond {
	return newPatternCondBiased(r, period, 0.5)
}

// newPatternCondBiased builds a pattern of the given period whose bits
// are taken with probability pTaken (fixed at construction, so the
// branch itself is fully deterministic at run time).
func newPatternCondBiased(r *rng.RNG, period int, pTaken float64) *patternCond {
	bits := make([]bool, period)
	for i := range bits {
		bits[i] = r.Bool(pTaken)
	}
	return &patternCond{bits: bits}
}

// corrCond computes the outcome from the global conditional-branch
// history at distances taps (XOR of those outcomes, optionally inverted,
// with a small noise probability). Predictable only when the predictor's
// history reach covers max(taps); this family drives Fig. 1's
// MPKI-vs-GHIST-length sweep.
type corrCond struct {
	taps   []int
	invert bool
	noise  float64
}

func (c *corrCond) next(ctx *emitCtx) bool {
	v := c.invert
	for _, d := range c.taps {
		if ctx.histAt(d) {
			v = !v
		}
	}
	if c.noise > 0 && ctx.r.Bool(c.noise) {
		v = !v
	}
	return v
}

// ---- trip-count behaviours ----

// fixedTrip always iterates n times, making the loop's bottom branch a
// period-n pattern.
type fixedTrip struct {
	n int
}

func (f *fixedTrip) next(ctx *emitCtx) int { return f.n }

// patternTrip cycles through a fixed list of trip counts, making the
// loop's bottom branch a long but fully learnable pattern — the common
// case in real code where trip counts are data-shaped but repetitive.
type patternTrip struct {
	trips []int
	i     int
}

func newPatternTrip(r *rng.RNG, n, lo, hi int) *patternTrip {
	t := &patternTrip{trips: make([]int, n)}
	for i := range t.trips {
		t.trips[i] = lo + r.Intn(hi-lo+1)
	}
	return t
}

func (p *patternTrip) next(ctx *emitCtx) int {
	v := p.trips[p.i%len(p.trips)]
	p.i++
	return v
}

// geomTrip draws trips from a geometric distribution around mean, giving
// loops whose exit is data-dependent and mispredicts once per traversal.
type geomTrip struct {
	mean int
	max  int
}

func (g *geomTrip) next(ctx *emitCtx) int {
	if g.mean <= 1 {
		return 1
	}
	p := 1.0 / float64(g.mean)
	return 1 + ctx.r.Geometric(p, g.max)
}

// ---- indirect-target behaviours ----

// zipfSel draws arms with Zipf skew; skew >= 1.2 models monomorphic-ish
// call sites, skew 0 models uniformly polymorphic ones (the hard
// JavaScript-era case of §IV-F).
type zipfSel struct {
	n    int
	skew float64
}

func (z *zipfSel) next(ctx *emitCtx) int { return ctx.r.Zipf(z.n, z.skew) }

// seqSel walks targets cyclically, a fully history-predictable sequence
// (VPC + SHP learns it; plain per-PC target caches mispredict often).
type seqSel struct {
	n, i, stride int
}

func (s *seqSel) next(ctx *emitCtx) int {
	v := s.i % s.n
	s.i += s.stride
	return v
}

// markovSel follows a mostly deterministic first-order chain over
// targets: each target has a primary successor taken with probability
// fidelity, else one of a few alternates. This is the JavaScript-era
// dispatch shape of §IV-F — long repeating tours through many targets —
// which target-history hashing learns but a capacity-limited VPC walk
// cannot once the tour exceeds the chain.
type markovSel struct {
	primary []int
	// alts holds every target's alternates back to back: target i's are
	// alts[altAt[i]:altAt[i+1]].
	alts     []int
	altAt    []int32
	fidelity float64
	cur      int
}

func newMarkovSel(r *rng.RNG, n, outDegree int) *markovSel {
	m := &markovSel{
		primary: make([]int, n),
		// Sized for the widest out-degree, so no append moves it.
		alts:     make([]int, 0, n*outDegree),
		altAt:    make([]int32, n+1),
		fidelity: 0.9,
	}
	// Primary successors form one big cycle (a tour over all targets) so
	// the steady state visits every target.
	perm := r.Perm(n)
	for i := 0; i < n; i++ {
		m.primary[perm[i]] = perm[(i+1)%n]
	}
	for i := 0; i < n; i++ {
		deg := 1 + r.Intn(outDegree)
		for j := 0; j < deg; j++ {
			m.alts = append(m.alts, r.Intn(n))
		}
		m.altAt[i+1] = int32(len(m.alts))
	}
	return m
}

func (m *markovSel) next(ctx *emitCtx) int {
	if ctx.r.Bool(m.fidelity) {
		m.cur = m.primary[m.cur]
	} else {
		s := m.alts[m.altAt[m.cur]:m.altAt[m.cur+1]]
		m.cur = s[ctx.r.Intn(len(s))]
	}
	return m.cur
}

// ---- memory behaviours ----

// perSite is implemented by memory behaviours that should be cloned per
// static instruction site: each load instruction in real code walks its
// own array, so sharing one stream across many PCs would present every
// PC with an irregular subsequence no stride engine could lock onto.
type perSite interface {
	clone(r *rng.RNG) memGen
}

// strideMem replays a multi-component stride pattern, e.g. +2x2,+5x1 in
// units of element size, exactly the access shape §VII-A's multi-stride
// engine locks onto. The stream wraps inside a working set.
type strideMem struct {
	base    uint64
	elem    uint64
	pattern []strideStep
	wsBytes uint64
	cur     uint64
	pi      int // index into pattern
	rep     int // repetitions done of current step
}

type strideStep struct {
	stride int64
	count  int
}

// clone gives a static load site its own stream, offset within the
// family's working-set budget so total footprint stays bounded; each
// site walks a hot sub-array (real loop arrays recycle far faster than
// a whole heap).
func (s *strideMem) clone(r *rng.RNG) memGen {
	c := *s
	span := int(s.wsBytes >> 12)
	if span < 1 {
		span = 1
	}
	c.base = s.base + uint64(r.Intn(span))<<12
	c.wsBytes = s.wsBytes / 8
	if c.wsBytes < 32<<10 {
		c.wsBytes = 32 << 10
	}
	if c.wsBytes > s.wsBytes {
		c.wsBytes = s.wsBytes
	}
	c.cur, c.pi, c.rep = 0, 0, 0
	return &c
}

func (s *strideMem) next(ctx *emitCtx) uint64 {
	addr := s.base + s.cur%s.wsBytes
	st := s.pattern[s.pi]
	s.cur = uint64(int64(s.cur) + st.stride*int64(s.elem))
	s.rep++
	if s.rep >= st.count {
		s.rep = 0
		s.pi = (s.pi + 1) % len(s.pattern)
	}
	return addr
}

// zipfMem touches cache lines of a working set with Zipf popularity;
// working-set size relative to each generation's cache sizes determines
// hit rates, and no prefetcher can help much. Models hash/table-walk
// style access.
type zipfMem struct {
	base    uint64
	lines   int
	skew    float64
	lineLog uint
}

func (z *zipfMem) next(ctx *emitCtx) uint64 {
	line := ctx.r.Zipf(z.lines, z.skew)
	off := uint64(ctx.r.Intn(64)) &^ 7
	return z.base + uint64(line)<<z.lineLog + off
}

// chaseMem walks a fixed random permutation cycle over the working set:
// a linked-list traversal. Serial (each address depends on the previous
// load's data) and unprefetchable by stride engines; SMS only helps if
// nodes have spatial siblings.
type chaseMem struct {
	base uint64
	perm []uint32 // next index for each node
	cur  uint32
	node uint64 // node size in bytes
}

func newChaseMem(r *rng.RNG, base uint64, nodes int, nodeBytes uint64) *chaseMem {
	p := r.Perm(nodes)
	next := make([]uint32, nodes)
	// Build one Hamiltonian cycle from the permutation order.
	for i := 0; i < nodes; i++ {
		next[p[i]] = uint32(p[(i+1)%nodes])
	}
	return &chaseMem{base: base, perm: next, node: nodeBytes}
}

func (c *chaseMem) next(ctx *emitCtx) uint64 {
	addr := c.base + uint64(c.cur)*c.node
	c.cur = c.perm[c.cur]
	return addr
}

// regionMem models SMS-friendly access: when its region generator fires,
// the program touches a fixed set of offsets within a (e.g. 2KB) region
// whose base moves irregularly. The first access per region is the
// primary miss; the offsets repeat across regions.
type regionMem struct {
	regions    []uint64
	offsets    []uint64
	ri, oi     int
	regionSize uint64
}

func newRegionMem(r *rng.RNG, base uint64, numRegions int, regionSize uint64, numOffsets int) *regionMem {
	m := &regionMem{regionSize: regionSize}
	m.regions = make([]uint64, numRegions)
	for i := range m.regions {
		m.regions[i] = base + uint64(r.Intn(numRegions*8))*regionSize
	}
	m.offsets = make([]uint64, numOffsets)
	seen := map[uint64]bool{}
	for i := range m.offsets {
		for {
			off := uint64(r.Intn(int(regionSize/64))) * 64
			if !seen[off] {
				seen[off] = true
				m.offsets[i] = off
				break
			}
		}
	}
	return m
}

func (m *regionMem) next(ctx *emitCtx) uint64 {
	addr := m.regions[m.ri] + m.offsets[m.oi]
	m.oi++
	if m.oi >= len(m.offsets) {
		m.oi = 0
		m.ri = (m.ri + 1) % len(m.regions)
	}
	return addr
}

// stackMem models frame-local accesses: a tiny hot region reused
// constantly, always hitting in the L1.
type stackMem struct {
	base uint64
	span uint64
}

func (s *stackMem) next(ctx *emitCtx) uint64 {
	return s.base + uint64(ctx.r.Intn(int(s.span)))&^7
}
