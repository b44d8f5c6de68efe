// Package pipeline models the out-of-order core at the fidelity the
// paper's cross-generation comparisons need: fetch driven by the branch
// front end's bubble/redirect costs and the instruction cache, a
// decode/rename width, ROB-bounded instruction windows, dataflow issue
// onto Table I's execution units (S/C/CD ALUs, BR, load/store/generic
// pipes, FMAC/FADD), per-class latencies, zero-cycle moves (M3+),
// load-load cascading (M4+), the micro-op cache supply path (M5+), and
// in-order retirement.
//
// The scheduler is a one-pass dataflow model: for every instruction it
// computes fetch, rename, issue, completion and retire cycles subject to
// width, window, unit and dependence constraints. This captures the
// ILP/MLP behaviour that separates a 4-wide/96-entry M1 from an
// 8-wide/256-entry M6 without simulating every pipeline register.
package pipeline

import (
	"exysim/internal/branch"
	"exysim/internal/isa"
	"exysim/internal/mem"
	"exysim/internal/obs"
	"exysim/internal/power"
	"exysim/internal/uoc"
)

// UnitKind classifies execution resources (Table I footnotes b/c).
type UnitKind uint8

// Unit kinds.
const (
	UnitS     UnitKind = iota // simple ALU: add/shift/logical
	UnitC                     // complex: simple + mul + indirect-branch
	UnitCD                    // complex + divide
	UnitBR                    // direct branch
	UnitLoad                  // load pipe
	UnitStore                 // store pipe
	UnitGen                   // generic load-or-store pipe
	UnitFMAC                  // FP multiply-accumulate pipe
	UnitFADD                  // FP add pipe
	numUnitKinds
)

// UnitCounts maps each UnitKind to how many such units the core has.
type UnitCounts [numUnitKinds]int

// Config sizes one generation's core (Table I).
type Config struct {
	Name string

	// Width is the decode/rename/retire width (4, 6 or 8).
	Width int
	// ROB bounds the in-flight window.
	ROB int
	// IntPRF/FPPRF are the physical register files; renaming stalls
	// when speculative results exceed the file beyond the architectural
	// base.
	IntPRF, FPPRF int

	// Units lists execution resources as (kind, count), indexed by
	// UnitKind. A plain array (not a map) keeps the config POD: every
	// simulator owns its counts by value, so snapshot restore never
	// touches shared backing storage and concurrent sweeps over the
	// same generation cannot race on it.
	Units UnitCounts

	// Latencies per class.
	LatALU, LatMul, LatDiv    int
	LatFMAC, LatFMUL, LatFADD int
	// DivOccupancy is how long a divide blocks its unit (iterative).
	DivOccupancy int

	// ZeroCycleMove enables M3+ zero-cycle integer moves via rename.
	ZeroCycleMove bool

	// FrontDepth is the fetch-to-issue depth used to convert the
	// front-end's fixed mispredict penalty into a resolution-relative
	// redirect cost.
	FrontDepth int

	// HasUOC enables the M5+ micro-op cache supply path.
	HasUOC bool
	UOC    uoc.Config
}

// Result summarizes one slice's run.
type Result struct {
	Insts  uint64
	Uops   uint64
	Cycles uint64

	IPC float64

	FetchStallCycles uint64
	UOCSupplied      uint64
}

// Core couples the pipeline with a front end and a memory system.
type Core struct {
	cfg    Config
	front  *branch.Frontend
	memsy  *mem.System
	ucache *uoc.UOC

	// Execution-unit next-free cycles: one flat pool over all kinds,
	// with per-class index lists precomputed from classUnits so the
	// scheduler scans exactly the units that can serve each class.
	unitPool  []uint64
	classIdxs [isa.NumClasses][]int32

	// Architectural register scoreboard: completion cycle and producer
	// class of the last writer.
	intReady        [isa.NumArchRegs]uint64
	fpReady         [isa.NumArchRegs]uint64
	intProducerLoad [isa.NumArchRegs]bool

	// Retirement history ring for the ROB constraint.
	retireRing []uint64
	ringPos    int

	// PRF rings: an instruction producing an integer (FP) result needs a
	// free physical register, i.e. the (IntPRF - arch)'th older integer
	// producer must have retired (Table I's PRF sizes; §III notes both
	// files use the physical-register-file approach).
	intPRFRing []uint64
	intPRFPos  int
	fpPRFRing  []uint64
	fpPRFPos   int

	// Retire bandwidth bookkeeping.
	lastRetireCycle uint64
	retiredInCycle  int

	// Fetch state.
	fetchCycle uint64
	fetchSlots int

	// Current basic block bookkeeping for the UOC.
	blockStart uint64
	blockUops  int
	inUOCFetch bool

	// statsBase is the cycle ResetStats was last called at, subtracted
	// from cycle counts at result time.
	statsBase uint64

	// meter, when set, charges the front-end power proxy.
	meter *power.Meter

	// tracer, when non-nil, records fetch bubbles, mispredict recovery
	// windows and UOC mode transitions.
	tracer *obs.Tracer

	res Result
}

// New builds a core from its three subsystem configurations.
func New(cfg Config, front *branch.Frontend, m *mem.System) *Core {
	c := &Core{cfg: cfg, front: front, memsy: m}
	var kindBase [numUnitKinds]int32
	total := 0
	for k := UnitKind(0); k < numUnitKinds; k++ {
		kindBase[k] = int32(total)
		total += cfg.Units[k]
	}
	c.unitPool = make([]uint64, total)
	for cls := range classUnits {
		for _, k := range classUnits[cls] {
			for i := 0; i < cfg.Units[k]; i++ {
				c.classIdxs[cls] = append(c.classIdxs[cls], kindBase[k]+int32(i))
			}
		}
	}
	c.retireRing = make([]uint64, cfg.ROB)
	if n := cfg.IntPRF - isa.NumArchRegs; n > 0 {
		c.intPRFRing = make([]uint64, n)
	}
	if n := cfg.FPPRF - isa.NumArchRegs; n > 0 {
		c.fpPRFRing = make([]uint64, n)
	}
	if cfg.HasUOC {
		c.ucache = uoc.New(cfg.UOC)
	}
	c.fetchCycle = 1
	return c
}

// Frontend exposes the branch front end (stats).
func (c *Core) Frontend() *branch.Frontend { return c.front }

// Mem exposes the memory system (stats).
func (c *Core) Mem() *mem.System { return c.memsy }

// UOC exposes the micro-op cache (nil before M5).
func (c *Core) UOC() *uoc.UOC { return c.ucache }

// SetMeter installs the front-end power proxy on the pipeline and its
// front end.
func (c *Core) SetMeter(m *power.Meter) {
	c.meter = m
	c.front.SetMeter(m)
}

// SetTracer installs a cycle-event tracer on the pipeline and its
// memory system (nil disables; disabled tracing costs one branch).
func (c *Core) SetTracer(t *obs.Tracer) {
	c.tracer = t
	c.memsy.SetTracer(t)
}

func (c *Core) charge(e power.Event, n uint64) {
	if c.meter != nil {
		c.meter.Charge(e, n)
	}
}

// Now returns the pipeline's current fetch cycle (cluster scheduling).
func (c *Core) Now() uint64 { return c.fetchCycle }

// RegisterMetrics publishes the pipeline's own counters into an
// observability scope (e.g. "pipe.cycles"). Subsystems (front end,
// memory, UOC) register under their own scopes via the owning core.
func (c *Core) RegisterMetrics(sc *obs.Scope) {
	sc.Counter("insts", func() uint64 { return c.res.Insts })
	sc.Counter("uops", func() uint64 { return c.res.Uops })
	sc.Counter("cycles", func() uint64 { return c.res.Cycles })
	sc.Counter("fetch_stall_cycles", func() uint64 { return c.res.FetchStallCycles })
	sc.Counter("uoc_supplied_uops", func() uint64 { return c.res.UOCSupplied })
	sc.Gauge("ipc", func() float64 { return c.Result().IPC })
}

// Result returns the accumulated run result.
func (c *Core) Result() Result {
	r := c.res
	if r.Cycles > 0 {
		r.IPC = float64(r.Insts) / float64(r.Cycles)
	}
	return r
}

// ResetStats zeroes counters (after trace warmup) while keeping all
// microarchitectural state warm. Cycle accounting restarts from the
// current fetch cycle.
func (c *Core) ResetStats() {
	c.res = Result{}
	c.front.ResetStats()
	c.memsy.ResetStats()
	if c.meter != nil {
		c.meter.Reset()
	}
	c.statsBase = c.fetchCycle
}

// Reset restores the core — and, through it, the front end, memory
// system, micro-op cache, and power meter — to the cold state a freshly
// built Core starts from, reusing every backing allocation. After Reset
// a run over the same trace produces bit-identical results to a run on a
// new Core.
func (c *Core) Reset() {
	clear(c.unitPool)
	c.intReady = [isa.NumArchRegs]uint64{}
	c.fpReady = [isa.NumArchRegs]uint64{}
	c.intProducerLoad = [isa.NumArchRegs]bool{}
	clear(c.retireRing)
	c.ringPos = 0
	clear(c.intPRFRing) // clear of a nil ring (PRF ≤ arch regs) is a no-op
	c.intPRFPos = 0
	clear(c.fpPRFRing)
	c.fpPRFPos = 0
	c.lastRetireCycle = 0
	c.retiredInCycle = 0
	c.fetchCycle = 1
	c.fetchSlots = 0
	c.blockStart = 0
	c.blockUops = 0
	c.inUOCFetch = false
	c.statsBase = 0
	c.res = Result{}
	c.front.Reset()
	c.memsy.Reset()
	if c.ucache != nil {
		c.ucache.Reset()
	}
	if c.meter != nil {
		c.meter.Reset()
	}
}

// earliestUnit schedules on the earliest-free unit among kinds, not
// before lb, and returns the issue cycle. occupy is how long the unit
// stays busy (1 for pipelined ops).
func (c *Core) earliestUnit(cls isa.Class, lb uint64, occupy uint64) uint64 {
	best := -1
	bestAt := ^uint64(0)
	for _, i := range c.classIdxs[cls] {
		at := c.unitPool[i]
		if at < lb {
			at = lb
		}
		if at < bestAt {
			bestAt = at
			best = int(i)
			if at == lb {
				// Nothing can issue before the lower bound, and under
				// the strict-< tie-break the first unit reaching it
				// wins either way.
				break
			}
		}
	}
	if best < 0 {
		// No unit of this kind on this generation (should not happen
		// with well-formed configs): issue unconstrained.
		return lb
	}
	c.unitPool[best] = bestAt + occupy
	return bestAt
}

// classUnits maps each instruction class to the unit kinds that can
// serve it, indexed directly by isa.Class (hot-path lookup, no map).
var classUnits = [isa.NumClasses][]UnitKind{
	isa.ALUSimple:  {UnitS, UnitC, UnitCD},
	isa.Move:       {UnitS, UnitC, UnitCD},
	isa.ALUComplex: {UnitC, UnitCD},
	isa.ALUDiv:     {UnitCD},
	isa.Branch:     {UnitBR, UnitC},
	isa.Load:       {UnitLoad, UnitGen},
	isa.Store:      {UnitStore, UnitGen},
	isa.FPMAC:      {UnitFMAC},
	isa.FPMUL:      {UnitFMAC},
	isa.FPADD:      {UnitFADD, UnitFMAC},
}

func (c *Core) latency(class isa.Class) int {
	switch class {
	case isa.ALUSimple:
		return c.cfg.LatALU
	case isa.ALUComplex:
		return c.cfg.LatMul
	case isa.ALUDiv:
		return c.cfg.LatDiv
	case isa.FPMAC:
		return c.cfg.LatFMAC
	case isa.FPMUL:
		return c.cfg.LatFMUL
	case isa.FPADD:
		return c.cfg.LatFADD
	case isa.Move:
		if c.cfg.ZeroCycleMove {
			return 0
		}
		return c.cfg.LatALU
	}
	return 1
}

func (c *Core) srcReady(in *isa.Inst) uint64 {
	ready := &c.intReady
	if in.Class.IsFP() {
		ready = &c.fpReady
	}
	var t uint64
	if reg := in.Src1; reg != isa.RegNone && int(reg) < isa.NumArchRegs {
		t = ready[reg]
	}
	if reg := in.Src2; reg != isa.RegNone && int(reg) < isa.NumArchRegs {
		if r := ready[reg]; r > t {
			t = r
		}
	}
	return t
}

func (c *Core) writeDst(in *isa.Inst, done uint64) {
	if in.Dst == isa.RegNone || int(in.Dst) >= isa.NumArchRegs {
		return
	}
	if in.Class.IsFP() {
		c.fpReady[in.Dst] = done
		return
	}
	c.intReady[in.Dst] = done
	c.intProducerLoad[in.Dst] = in.Class == isa.Load
}

// StepDecoded runs one dynamic instruction through the model, with its
// decode facts compiled ahead of time by trace.PreDecode. It is the only
// step entry point. The caller feeds instructions in stream order from
// the position the core is at: DecNewLine encodes the fetch-line
// relationship to the stream predecessor, so a replay starts at 0 on a
// cold (or Reset) core, or at the warmup boundary on a core restored
// from a warm-state image captured there (the snapshot codec's tests
// and the benchmark's layer rows).
func (c *Core) StepDecoded(in *isa.Inst, d isa.Decoded) {
	cfg := &c.cfg

	// ---- Fetch ----
	// Basic-block tracking for the UOC: blocks begin at targets of
	// taken branches (and at the start of time).
	if c.blockStart == 0 {
		c.blockStart = in.PC
	}
	if d&isa.DecNewLine != 0 {
		if !c.inUOCFetch {
			c.charge(power.EvICacheAccess, 1)
			if stall := c.memsy.FetchInst(in.PC, c.fetchCycle); stall > 0 {
				if c.tracer != nil {
					c.tracer.Span("fetch", "icache-miss", c.fetchCycle, uint64(stall), obs.LaneFetch)
				}
				c.fetchCycle += uint64(stall)
				c.fetchSlots = 0
				c.res.FetchStallCycles += uint64(stall)
			}
		}
	}
	uops := int(d&isa.DecUops2) + 1
	c.blockUops += uops
	for i := 0; i < uops; i++ {
		if c.fetchSlots >= cfg.Width {
			c.fetchCycle++
			c.fetchSlots = 0
		}
		c.fetchSlots++
	}
	fetchAt := c.fetchCycle

	// ---- Rename (ROB + PRF windows) ----
	renameAt := fetchAt + uint64(cfg.FrontDepth)/2
	windowEdge := c.retireRing[c.ringPos]
	// A result-producing instruction also needs a free physical
	// register in its file.
	producesResult := d&isa.DecHasDst != 0 && !(d&isa.DecMove != 0 && cfg.ZeroCycleMove)
	if producesResult {
		if in.Class.IsFP() {
			if c.fpPRFRing != nil && c.fpPRFRing[c.fpPRFPos] > windowEdge {
				windowEdge = c.fpPRFRing[c.fpPRFPos]
			}
		} else if c.intPRFRing != nil && c.intPRFRing[c.intPRFPos] > windowEdge {
			windowEdge = c.intPRFRing[c.intPRFPos]
		}
	}
	if windowEdge > renameAt {
		// The window is full until the bounding older instruction
		// retires; the fetch clock stalls with it (never rewinds).
		renameAt = windowEdge
		if stallTo := windowEdge - uint64(cfg.FrontDepth)/2; stallTo > c.fetchCycle {
			c.fetchCycle = stallTo
			c.fetchSlots = 0
		}
	}

	// ---- Issue / execute ----
	ready := c.srcReady(in)
	lb := renameAt + 1
	// Full bypass: a consumer may issue in the cycle its source
	// completes (srcReady already includes the producer's latency).
	if ready > lb {
		lb = ready
	}
	var done uint64
	switch {
	case d&isa.DecMove != 0 && cfg.ZeroCycleMove:
		// Zero-cycle move: handled at rename via remapping and
		// reference counting; no unit, no latency (§III).
		done = ready
		if done < renameAt {
			done = renameAt
		}
	case in.Class == isa.Load:
		issue := c.earliestUnit(isa.Load, lb, 1)
		cascade := in.Src1 != isa.RegNone && int(in.Src1) < isa.NumArchRegs && c.intProducerLoad[in.Src1]
		lat := c.memsy.Load(in.PC, in.Addr, issue, cascade)
		done = issue + uint64(lat)
	case in.Class == isa.Store:
		issue := c.earliestUnit(isa.Store, lb, 1)
		c.memsy.Store(in.PC, in.Addr, issue)
		done = issue + 1 // commits from the store buffer
	case in.Class == isa.ALUDiv:
		issue := c.earliestUnit(isa.ALUDiv, lb, uint64(cfg.DivOccupancy))
		done = issue + uint64(cfg.LatDiv)
	default:
		issue := c.earliestUnit(in.Class, lb, 1)
		done = issue + uint64(c.latency(in.Class))
	}
	c.writeDst(in, done)

	// ---- Branch resolution and front-end redirects ----
	if d&isa.DecBranch != 0 {
		r := c.front.Step(in)
		if r.Mispredict {
			// The redirect leaves when the branch resolves; the
			// front-end refill portion of the penalty follows.
			refill := cfg.FrontDepth / 2
			redirect := done + uint64(refill)
			if c.tracer != nil && redirect > fetchAt {
				// Recovery window: wrong-path fetch from this branch's
				// fetch until the corrected redirect arrives.
				c.tracer.Span("branch", "mispredict-recovery", fetchAt, redirect-fetchAt, obs.LaneBranch)
			}
			if redirect > c.fetchCycle {
				c.fetchCycle = redirect
				c.fetchSlots = 0
			}
			c.inUOCFetch = false
		} else if r.Bubbles > 0 {
			if c.tracer != nil {
				// Taken-redirect bubble, named by the predicting source.
				c.tracer.Span("fetch-bubble", r.Source.String(), c.fetchCycle, uint64(r.Bubbles), obs.LaneFetch)
			}
			c.fetchCycle += uint64(r.Bubbles)
			c.fetchSlots = 0
		}
		if in.Taken {
			c.endBlock(in.Target)
		}
	} else {
		c.front.Step(in)
	}

	// ---- Retire (in-order, width-bound) ----
	retireAt := done + 1
	if retireAt <= c.lastRetireCycle {
		retireAt = c.lastRetireCycle
		c.retiredInCycle++
		if c.retiredInCycle >= cfg.Width {
			retireAt++
			c.retiredInCycle = 0
		}
	} else {
		c.retiredInCycle = 1
	}
	c.lastRetireCycle = retireAt
	c.retireRing[c.ringPos] = retireAt
	if c.ringPos++; c.ringPos == len(c.retireRing) {
		c.ringPos = 0
	}
	if producesResult {
		if in.Class.IsFP() {
			if c.fpPRFRing != nil {
				c.fpPRFRing[c.fpPRFPos] = retireAt
				if c.fpPRFPos++; c.fpPRFPos == len(c.fpPRFRing) {
					c.fpPRFPos = 0
				}
			}
		} else if c.intPRFRing != nil {
			c.intPRFRing[c.intPRFPos] = retireAt
			if c.intPRFPos++; c.intPRFPos == len(c.intPRFRing) {
				c.intPRFPos = 0
			}
		}
	}

	c.res.Insts++
	c.res.Uops += uint64(uops)
	if c.meter != nil {
		c.meter.AddInsts(1)
	}
	if retireAt > c.statsBase {
		c.res.Cycles = retireAt - c.statsBase
	}
}

// endBlock closes the current basic block at a taken branch and consults
// the UOC for the next one (§VI). Decode energy for the block's μops is
// charged here: through the decoders normally, or at the cheap UOC
// supply cost when FetchMode covered the block.
func (c *Core) endBlock(nextPC uint64) {
	fromUOC := false
	if c.ucache != nil && c.blockUops > 0 {
		prevMode := c.ucache.Mode()
		r := c.ucache.Step(c.blockStart, c.blockUops, c.front.UBTBLocked())
		if c.tracer != nil && r.Mode != prevMode {
			c.tracer.Instant("uoc", r.Mode.String(), c.fetchCycle, obs.LaneUOC)
		}
		c.inUOCFetch = r.FromUOC
		fromUOC = r.FromUOC
		if r.FromUOC {
			c.res.UOCSupplied += uint64(c.blockUops)
		}
	}
	if c.blockUops > 0 {
		if fromUOC {
			c.charge(power.EvUOCSupply, uint64(c.blockUops))
		} else {
			c.charge(power.EvDecode, uint64(c.blockUops))
		}
	}
	c.blockStart = nextPC
	c.blockUops = 0
}
