package branch

import (
	"math"
	"math/bits"

	"exysim/internal/rng"
	"exysim/internal/satable"
)

// TAGE-SC-L conditional direction predictor: a bimodal base table backed
// by tagged banks indexed with geometrically growing global-history
// folds, a loop predictor for fixed-trip-count branches, and a
// statistical corrector that overrides statistically unreliable TAGE
// outputs. This is the alternate engine of the predictor lab — the
// organization production cores outside the SHP lineage converged on
// (the Firestorm/Oryon dissections document TAGE-like arrangements at
// comparable storage) — so an "M7" sweep can ask what the M6 front end
// would do with its SHP bits re-spent on tagged geometric history.
//
// Everything is deterministic: allocation randomization comes from an
// internal xorshift LFSR reseeded by Reset, so pooled reuse and fabric
// shards stay bit-identical to a fresh run.

// TAGEConfig sizes a TAGE-SC-L predictor. Zero sub-geometries disable
// the optional components (loop predictor, statistical corrector).
type TAGEConfig struct {
	Banks      int `json:"banks"`       // tagged banks
	BankRows   int `json:"bank_rows"`   // rows per bank (power of two)
	TagBits    int `json:"tag_bits"`    // partial tag width (2..16)
	CtrBits    int `json:"ctr_bits"`    // signed prediction counter width (2..7)
	UsefulBits int `json:"useful_bits"` // usefulness counter width (1..7)
	HistMin    int `json:"hist_min"`    // shortest bank history length
	HistMax    int `json:"hist_max"`    // longest bank history length
	PathLen    int `json:"path_len"`    // path-history bits mixed into indexes

	BimodalRows int `json:"bimodal_rows"` // base table rows (power of two)

	// AgingPeriod is the number of Train calls between graceful
	// usefulness-aging passes (all u counters halve). Zero disables.
	AgingPeriod int `json:"aging_period,omitempty"`

	// Loop predictor geometry (satable sets×ways); LoopSets == 0 disables.
	LoopSets    int `json:"loop_sets,omitempty"`
	LoopWays    int `json:"loop_ways,omitempty"`
	LoopConfMax int `json:"loop_conf_max,omitempty"` // confidence needed to predict

	// Statistical corrector: SCTables == 0 disables. Table 0 is a PC-
	// indexed bias; the rest fold short history windows out to SCHistMax.
	SCTables       int `json:"sc_tables,omitempty"`
	SCRows         int `json:"sc_rows,omitempty"` // power of two
	SCCtrBits      int `json:"sc_ctr_bits,omitempty"`
	SCHistMax      int `json:"sc_hist_max,omitempty"`
	SCInitialTheta int `json:"sc_initial_theta,omitempty"`
}

// M7TAGEConfig returns the default hypothetical-generation geometry:
// a TAGE-SC-L sized at M6-class predictor storage (~31 KB vs the M6
// SHP's 32 KB weight array), so M7-vs-M6 comparisons are iso-budget.
func M7TAGEConfig() TAGEConfig {
	return TAGEConfig{
		Banks: 12, BankRows: 1024, TagBits: 11,
		CtrBits: 3, UsefulBits: 2,
		HistMin: 4, HistMax: 640, PathLen: 16,
		BimodalRows: 8192,
		AgingPeriod: 1 << 18,
		LoopSets:    64, LoopWays: 4, LoopConfMax: 3,
		SCTables: 4, SCRows: 1024, SCCtrBits: 6, SCHistMax: 36,
		SCInitialTheta: 6,
	}
}

// tageEntry is one tagged-bank row: partial tag, signed prediction
// counter, usefulness counter.
type tageEntry struct {
	tag uint16
	ctr int8
	u   uint8
}

// tageLoop is one loop-predictor entry: the learned trip count, the
// position within the current trip, the repeated direction, and the
// confidence that pastIter is stable.
type tageLoop struct {
	pastIter uint16
	curIter  uint16
	conf     int8
	dir      bool
}

// Per-entry storage model for the loop predictor (iteration counters,
// confidence, direction, partial tag).
const tageLoopEntryBits = 16 + 16 + 4 + 1 + 14

// tageLFSRSeed seeds the allocation-randomization xorshift; Reset
// restores it so recycled predictors replay allocations bit-identically.
const tageLFSRSeed uint32 = 0x2545f491

// TAGESCL implements DirectionPredictor.
type TAGESCL struct {
	cfg TAGEConfig

	bimodal []int8      // 2-bit counters, weakly taken at cold state
	banks   []tageEntry // cfg.Banks x cfg.BankRows, flattened row-major

	// Global history: one outcome bit per conditional branch, with
	// incremental folds per bank for index and tag (two widths, the
	// standard TAGE de-aliasing pair), plus SC folds; path history is a
	// plain shift register.
	hist     historyRing
	idxFolds []foldedInterval
	tagFolds []foldedInterval
	tg2Folds []foldedInterval
	scFolds  []foldedInterval
	phist    uint64

	histLens []int32
	rowMask  uint32
	bimMask  uint32
	tagMask  uint32
	ctrMax   int8
	ctrMin   int8
	uMax     uint8

	useAltOnNA int8 // 4-bit counter: trust altpred for weak new entries
	lfsr       uint32
	tick       int

	loop     *satable.Table[tageLoop]
	withLoop int8 // signed vote: trust the loop predictor when >= 0

	sc      []int8 // cfg.SCTables x cfg.SCRows, flattened
	scMask  uint32
	scMax   int8
	theta   int
	thetaTC int

	// Scratch from the last Predict, consumed by Train.
	lastPC    uint64
	lastValid bool
	idxs      []uint32
	tags      []uint32
	scIdxs    []uint32
	provider  int // bank index, -1 = bimodal
	altBank   int
	provPred  bool
	altPred   bool
	provWeak  bool // newly-allocated weak provider (use-alt candidate)
	tagePred  bool // post use-alt TAGE verdict
	scSum     int
	scUsed    bool
	loopValid bool
	loopPred  bool
	finalPred bool
}

// loopWays is the loop predictor's associativity: LoopWays, or 4 when
// unset.
func loopWays(cfg TAGEConfig) int {
	if cfg.LoopWays <= 0 {
		return 4
	}
	return cfg.LoopWays
}

// NewTAGESCL builds the predictor; row counts must be powers of two.
func NewTAGESCL(cfg TAGEConfig) *TAGESCL {
	switch {
	case cfg.Banks < 2 || cfg.Banks > MaxTables:
		panic("branch: TAGE needs two to MaxTables tagged banks")
	case cfg.BankRows <= 0 || cfg.BankRows&(cfg.BankRows-1) != 0 || cfg.BankRows > MaxRows:
		panic("branch: TAGE bank rows must be a power of two up to MaxRows")
	case cfg.BimodalRows <= 0 || cfg.BimodalRows&(cfg.BimodalRows-1) != 0 || cfg.BimodalRows > MaxBaseRows:
		panic("branch: TAGE bimodal rows must be a power of two up to MaxBaseRows")
	case cfg.TagBits < 2 || cfg.TagBits > 16:
		panic("branch: TAGE tag bits out of range")
	case cfg.CtrBits < 2 || cfg.CtrBits > 7:
		panic("branch: TAGE ctr bits out of range")
	case cfg.UsefulBits < 1 || cfg.UsefulBits > 7:
		panic("branch: TAGE useful bits out of range")
	case cfg.HistMin < 1 || cfg.HistMax <= cfg.HistMin || cfg.HistMax > MaxHistory:
		panic("branch: TAGE history lengths out of order or past MaxHistory")
	case cfg.SCTables > MaxTables || cfg.SCHistMax > MaxHistory:
		panic("branch: TAGE SC tables or history past the caps")
	case cfg.SCTables > 0 && (cfg.SCRows <= 0 || cfg.SCRows&(cfg.SCRows-1) != 0 || cfg.SCRows > MaxRows):
		panic("branch: TAGE SC rows must be a power of two up to MaxRows")
	case cfg.LoopSets > 0 && (cfg.LoopSets > MaxRows || loopWays(cfg) > MaxRows/cfg.LoopSets):
		panic("branch: TAGE loop predictor past MaxRows entries")
	}
	indexBits := uint(bits.Len(uint(cfg.BankRows - 1)))
	t := &TAGESCL{
		cfg:     cfg,
		bimodal: make([]int8, cfg.BimodalRows),
		banks:   make([]tageEntry, cfg.Banks*cfg.BankRows),
		hist:    *newHistoryRing(cfg.HistMax + 2),
		rowMask: uint32(cfg.BankRows - 1),
		bimMask: uint32(cfg.BimodalRows - 1),
		tagMask: uint32(1<<cfg.TagBits - 1),
		ctrMax:  int8(1<<(cfg.CtrBits-1) - 1),
		ctrMin:  int8(-(1 << (cfg.CtrBits - 1))),
		uMax:    uint8(1<<cfg.UsefulBits - 1),
		idxs:    make([]uint32, cfg.Banks),
		tags:    make([]uint32, cfg.Banks),
	}
	// Geometric bank history lengths, L(i) = HistMin·(HistMax/HistMin)^(i/(B-1)).
	ratio := float64(cfg.HistMax) / float64(cfg.HistMin)
	prev := 0
	for i := 0; i < cfg.Banks; i++ {
		l := int(float64(cfg.HistMin)*math.Pow(ratio, float64(i)/float64(cfg.Banks-1)) + 0.5)
		if l <= prev {
			l = prev + 1
		}
		prev = l
		t.histLens = append(t.histLens, int32(l))
		t.idxFolds = append(t.idxFolds, newFoldedInterval(indexBits, 1, 0, l))
		t.tagFolds = append(t.tagFolds, newFoldedInterval(uint(cfg.TagBits), 1, 0, l))
		t.tg2Folds = append(t.tg2Folds, newFoldedInterval(uint(cfg.TagBits-1), 1, 0, l))
	}
	if cfg.LoopSets > 0 {
		t.loop = satable.New[tageLoop](cfg.LoopSets, loopWays(cfg))
	}
	if cfg.SCTables > 0 {
		t.sc = make([]int8, cfg.SCTables*cfg.SCRows)
		t.scMask = uint32(cfg.SCRows - 1)
		scBits := cfg.SCCtrBits
		if scBits <= 1 {
			scBits = 6
		}
		t.scMax = int8(1<<(scBits-1) - 1)
		t.scIdxs = make([]uint32, cfg.SCTables)
		scIndexBits := uint(bits.Len(uint(cfg.SCRows - 1)))
		// Table 0 is the PC bias (no fold); the rest take geometric
		// windows out to SCHistMax.
		scMax := cfg.SCHistMax
		if scMax < cfg.SCTables {
			scMax = cfg.SCTables
		}
		prev := 0
		for i := 1; i < cfg.SCTables; i++ {
			l := int(math.Pow(float64(scMax), float64(i)/float64(cfg.SCTables-1)) + 0.5)
			if l <= prev {
				l = prev + 1
			}
			prev = l
			t.scFolds = append(t.scFolds, newFoldedInterval(scIndexBits, 1, 0, l))
		}
	}
	t.seed()
	return t
}

// seed initializes the dynamic cold-start values shared by New and Reset.
func (t *TAGESCL) seed() {
	for i := range t.bimodal {
		t.bimodal[i] = 2 // weakly taken, matching the bimodal baseline
	}
	t.useAltOnNA = 8
	t.lfsr = tageLFSRSeed
	t.withLoop = 0
	if t.cfg.SCInitialTheta > 0 {
		t.theta = t.cfg.SCInitialTheta
	} else {
		t.theta = 2*t.cfg.SCTables + 1
	}
}

// Reset implements DirectionPredictor: post-construction cold state,
// in place, bit-identical to a fresh instance.
func (t *TAGESCL) Reset() {
	clear(t.banks)
	clear(t.hist.vals)
	t.hist.pos = 0
	for i := range t.idxFolds {
		t.idxFolds[i].comp = 0
		t.tagFolds[i].comp = 0
		t.tg2Folds[i].comp = 0
	}
	for i := range t.scFolds {
		t.scFolds[i].comp = 0
	}
	t.phist = 0
	t.tick = 0
	t.thetaTC = 0
	if t.loop != nil {
		t.loop.Reset()
	}
	clear(t.sc)
	t.seed()
	t.lastPC = 0
	t.lastValid = false
}

// Name implements DirectionPredictor.
func (t *TAGESCL) Name() string { return KindTAGESCL }

// StorageBits implements DirectionPredictor: tagged banks, base bimodal,
// loop predictor, and statistical corrector.
func (t *TAGESCL) StorageBits() int {
	n := t.cfg.Banks*t.cfg.BankRows*(t.cfg.TagBits+t.cfg.CtrBits+t.cfg.UsefulBits) +
		t.cfg.BimodalRows*2
	if t.loop != nil {
		n += t.loop.Sets() * t.loop.Ways() * tageLoopEntryBits
	}
	if t.sc != nil {
		scBits := t.cfg.SCCtrBits
		if scBits <= 1 {
			scBits = 6
		}
		n += t.cfg.SCTables * t.cfg.SCRows * scBits
	}
	return n
}

// rand steps the allocation xorshift.
func (t *TAGESCL) rand() uint32 {
	x := t.lfsr
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	t.lfsr = x
	return x
}

// compute fills the per-bank index/tag scratch for pc.
func (t *TAGESCL) compute(pc uint64) {
	for i := 0; i < t.cfg.Banks; i++ {
		h := rng.Mix64(pc>>2 + uint64(i)*0x9e3779b97f4a7c15)
		// Path contribution: min(L(i), PathLen) low path bits, re-mixed
		// per bank so banks with coincident windows decorrelate.
		pl := int(t.histLens[i])
		if pl > t.cfg.PathLen {
			pl = t.cfg.PathLen
		}
		var pmix uint32
		if pl > 0 {
			pmix = uint32(rng.Mix64(t.phist&(1<<uint(pl)-1) ^ uint64(i+1)<<48))
		}
		t.idxs[i] = (uint32(h) ^ t.idxFolds[i].value() ^ pmix) & t.rowMask
		t.tags[i] = (uint32(h>>32) ^ t.tagFolds[i].value() ^ t.tg2Folds[i].value()<<1) & t.tagMask
	}
}

func (t *TAGESCL) entry(bank int, idx uint32) *tageEntry {
	return &t.banks[bank*t.cfg.BankRows+int(idx)]
}

// Predict implements DirectionPredictor.
func (t *TAGESCL) Predict(pc uint64) Prediction {
	t.compute(pc)

	bimPred := t.bimodal[uint32(rng.Mix64(pc>>2))&t.bimMask] >= 2
	t.provider, t.altBank = -1, -1
	for i := t.cfg.Banks - 1; i >= 0; i-- {
		if t.entry(i, t.idxs[i]).tag == uint16(t.tags[i]) {
			if t.provider < 0 {
				t.provider = i
			} else {
				t.altBank = i
				break
			}
		}
	}
	t.altPred = bimPred
	if t.altBank >= 0 {
		t.altPred = t.entry(t.altBank, t.idxs[t.altBank]).ctr >= 0
	}
	t.provPred = bimPred
	t.provWeak = false
	conf := 2 // bimodal: moderately confident
	if t.provider >= 0 {
		e := t.entry(t.provider, t.idxs[t.provider])
		t.provPred = e.ctr >= 0
		weakCtr := e.ctr == 0 || e.ctr == -1
		t.provWeak = weakCtr && e.u == 0
		if weakCtr {
			conf = 1
		} else {
			conf = 3
		}
	}
	// Newly-allocated weak entries mispredict more than the alternate
	// prediction; the use-alt counter learns when to prefer it.
	t.tagePred = t.provPred
	if t.provWeak && t.useAltOnNA >= 8 {
		t.tagePred = t.altPred
	}

	t.finalPred = t.tagePred

	// Statistical corrector: override a TAGE verdict the short-history
	// statistics contradict decisively.
	t.scUsed = false
	t.scSum = 0
	if t.sc != nil {
		sum := 0
		for i := 0; i < t.cfg.SCTables; i++ {
			var fold uint32
			if i > 0 {
				fold = t.scFolds[i-1].value()
			}
			idx := (uint32(rng.Mix64(pc>>2+uint64(i)*0x7f4a7c159e3779b9)) ^ fold) & t.scMask
			t.scIdxs[i] = idx
			sum += 2*int(t.sc[i*t.cfg.SCRows+int(idx)]) + 1
		}
		t.scSum = sum
		scPred := sum >= 0
		if scPred != t.tagePred && abs(sum) >= t.theta && conf < 3 {
			t.finalPred = scPred
			t.scUsed = true
		}
	}

	// Loop predictor: confident fixed-trip-count branches override
	// everything when the loop vote trusts it.
	t.loopValid = false
	if t.loop != nil {
		if e := t.loop.Lookup(pc); e != nil && e.conf >= int8(t.cfg.LoopConfMax) && e.pastIter > 0 {
			t.loopValid = true
			t.loopPred = e.dir
			if e.curIter == e.pastIter {
				t.loopPred = !e.dir
			}
			if t.withLoop >= 0 {
				t.finalPred = t.loopPred
			}
		}
	}

	t.lastPC, t.lastValid = pc, true
	sum := t.scSum
	if t.sc == nil {
		switch {
		case t.provider >= 0:
			sum = 2*int(t.providerCtr()) + 1
		case t.finalPred:
			sum = 1
		default:
			sum = -1
		}
	}
	return Prediction{
		Taken:         t.finalPred,
		Sum:           sum,
		LowConfidence: t.provWeak || conf == 1 || t.scUsed,
	}
}

func (t *TAGESCL) providerCtr() int8 {
	if t.provider < 0 {
		return 0
	}
	return t.entry(t.provider, t.idxs[t.provider]).ctr
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func satAddCtr(c int8, taken bool, max, min int8) int8 {
	if taken {
		if c < max {
			return c + 1
		}
		return c
	}
	if c > min {
		return c - 1
	}
	return c
}

// Train implements DirectionPredictor.
func (t *TAGESCL) Train(pc uint64, taken bool) {
	if !t.lastValid || t.lastPC != pc {
		// Caller violated the Predict/Train protocol; recompute.
		t.Predict(pc)
	}
	t.lastValid = false

	t.trainLoop(pc, taken)
	t.trainSC(taken)

	// Use-alt bookkeeping: when a weak new provider and its alternate
	// disagreed, learn which one to trust next time.
	if t.provider >= 0 && t.provWeak && t.provPred != t.altPred {
		if t.provPred == taken {
			if t.useAltOnNA > 0 {
				t.useAltOnNA--
			}
		} else if t.useAltOnNA < 15 {
			t.useAltOnNA++
		}
	}

	// Provider counter update; a weak new provider also trains its
	// alternate (classic TAGE: the entry may be reallocated soon, keep
	// the fallback fresh).
	if t.provider >= 0 {
		e := t.entry(t.provider, t.idxs[t.provider])
		e.ctr = satAddCtr(e.ctr, taken, t.ctrMax, t.ctrMin)
		if t.provWeak {
			t.trainAlt(pc, taken)
		}
		// Usefulness: the provider proved its longer history mattered
		// (or didn't) only when it disagreed with the alternate.
		if t.provPred != t.altPred {
			if t.provPred == taken {
				if e.u < t.uMax {
					e.u++
				}
			} else if e.u > 0 {
				e.u--
			}
		}
	} else {
		t.trainBimodal(pc, taken)
	}

	// Allocate on a TAGE misprediction: claim a useless entry in a
	// longer-history bank, with LFSR-randomized start so correlated
	// branches spread across banks.
	if t.tagePred != taken && t.provider < t.cfg.Banks-1 {
		start := t.provider + 1
		r := t.rand()
		if start < t.cfg.Banks-1 && r&1 != 0 {
			start++
			if start < t.cfg.Banks-1 && r&2 != 0 {
				start++
			}
		}
		allocated := false
		for j := start; j < t.cfg.Banks; j++ {
			e := t.entry(j, t.idxs[j])
			if e.u == 0 {
				e.tag = uint16(t.tags[j])
				if taken {
					e.ctr = 0
				} else {
					e.ctr = -1
				}
				allocated = true
				break
			}
		}
		if !allocated {
			for j := start; j < t.cfg.Banks; j++ {
				if e := t.entry(j, t.idxs[j]); e.u > 0 {
					e.u--
				}
			}
		}
	}

	// Graceful usefulness aging: periodically halve every u counter so
	// entries that stopped earning keep cannot squat forever.
	if t.cfg.AgingPeriod > 0 {
		t.tick++
		if t.tick >= t.cfg.AgingPeriod {
			t.tick = 0
			for i := range t.banks {
				t.banks[i].u >>= 1
			}
		}
	}
}

// trainAlt updates the alternate prediction source (bank or bimodal).
func (t *TAGESCL) trainAlt(pc uint64, taken bool) {
	if t.altBank >= 0 {
		e := t.entry(t.altBank, t.idxs[t.altBank])
		e.ctr = satAddCtr(e.ctr, taken, t.ctrMax, t.ctrMin)
		return
	}
	t.trainBimodal(pc, taken)
}

func (t *TAGESCL) trainBimodal(pc uint64, taken bool) {
	c := &t.bimodal[uint32(rng.Mix64(pc>>2))&t.bimMask]
	*c = satAddCtr(*c, taken, 3, 0)
}

// trainLoop advances the loop predictor with the resolved outcome.
func (t *TAGESCL) trainLoop(pc uint64, taken bool) {
	if t.loop == nil {
		return
	}
	// The loop vote learns whether confident loop predictions beat the
	// TAGE verdict on branches where they disagree.
	if t.loopValid && t.loopPred != t.tagePred {
		if t.loopPred == taken {
			if t.withLoop < 63 {
				t.withLoop++
			}
		} else if t.withLoop > -63 {
			t.withLoop--
		}
	}
	e := t.loop.Lookup(pc)
	if e == nil {
		// Allocate only for branches TAGE got wrong: loop entries are
		// scarce and steady branches don't need them.
		if t.tagePred != taken {
			e, _, _ = t.loop.Insert(pc)
			*e = tageLoop{dir: taken}
		}
		return
	}
	if taken == e.dir {
		e.curIter++
		if e.curIter == 0 { // uint16 wrap: trip count out of range
			*e = tageLoop{dir: e.dir}
		}
		return
	}
	// Direction broke: one trip ended. A repeated trip count builds
	// confidence; a changed one restarts learning.
	if e.curIter == e.pastIter && e.pastIter > 0 {
		if e.conf < 63 {
			e.conf++
		}
	} else {
		e.pastIter = e.curIter
		e.conf = 0
	}
	e.curIter = 0
}

// trainSC applies the perceptron-style update to the corrector tables
// and fits the override threshold O-GEHL-style.
func (t *TAGESCL) trainSC(taken bool) {
	if t.sc == nil {
		return
	}
	scPred := t.scSum >= 0
	mispredict := scPred != taken
	if mispredict {
		t.thetaTC++
		if t.thetaTC >= 63 {
			t.thetaTC = 0
			t.theta++
		}
	} else if abs(t.scSum) <= t.theta {
		t.thetaTC--
		if t.thetaTC <= -63 {
			t.thetaTC = 0
			if t.theta > 1 {
				t.theta--
			}
		}
	}
	if !mispredict && abs(t.scSum) > t.theta {
		return
	}
	for i := 0; i < t.cfg.SCTables; i++ {
		w := &t.sc[i*t.cfg.SCRows+int(t.scIdxs[i])]
		*w = satAddCtr(*w, taken, t.scMax, -t.scMax-1)
	}
}

// OnBranch implements DirectionPredictor: conditional outcomes enter the
// global history and every bank's folds; every branch shifts one path
// bit, mirroring the SHP's GHIST/PHIST split.
func (t *TAGESCL) OnBranch(pc uint64, cond, taken bool) {
	if cond {
		var b uint16
		if taken {
			b = 1
		}
		vals := t.hist.vals
		mask := len(vals) - 1
		pos := t.hist.pos
		pushAll := func(folds []foldedInterval) {
			for i := range folds {
				f := &folds[i]
				var leaving uint16
				if hi := int(f.hi); hi <= pos {
					leaving = vals[(pos-hi)&mask]
				}
				f.push(b, leaving)
			}
		}
		pushAll(t.idxFolds)
		pushAll(t.tagFolds)
		pushAll(t.tg2Folds)
		pushAll(t.scFolds)
		vals[pos&mask] = b
		t.hist.pos = pos + 1
	}
	t.phist = t.phist<<1 | (pc>>2)&1
}
