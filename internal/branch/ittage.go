package branch

import (
	"math"
	"math/bits"

	"exysim/internal/rng"
)

// ITTAGE-style indirect target predictor: tagged banks indexed by
// geometric global-history folds store full targets with a confidence
// counter, over a PC-indexed base table. It sits beside the VPC in the
// front end — consulted first, with the VPC chain walk (and M6 hash)
// covering misses — so a hypothetical generation can ask what dedicated
// tagged indirect storage buys over the paper's virtualized chains.
// Targets are stored through the front end's TargetCipher like every
// other structure that learns instruction addresses (§V).

// ITTAGEConfig sizes the indirect target predictor.
type ITTAGEConfig struct {
	Banks    int `json:"banks"`     // tagged banks
	BankRows int `json:"bank_rows"` // rows per bank (power of two)
	TagBits  int `json:"tag_bits"`  // partial tag width (2..16)
	HistMin  int `json:"hist_min"`
	HistMax  int `json:"hist_max"`
	BaseRows int `json:"base_rows"` // PC-indexed base target table (power of two)
	// Latency is the bubble cost of a predicted redirect (dedicated
	// storage takes a few cycles to access, like the M6 hash).
	Latency int `json:"latency"`
}

// M7ITTAGEConfig returns the default hypothetical-generation geometry.
func M7ITTAGEConfig() ITTAGEConfig {
	return ITTAGEConfig{
		Banks: 6, BankRows: 512, TagBits: 9,
		HistMin: 2, HistMax: 64, BaseRows: 512,
		Latency: 2,
	}
}

type ittEntry struct {
	tag    uint16
	target uint64 // stored (possibly encrypted)
	ctr    int8   // confidence 0..3
	u      uint8  // usefulness 0..3
	valid  bool
}

type ittBase struct {
	target uint64 // stored (possibly encrypted)
	valid  bool
}

// ITTPrediction is an ITTAGE lookup outcome.
type ITTPrediction struct {
	Target  uint64
	Hit     bool
	Bubbles int
}

// ITTAGE is the indirect target predictor.
type ITTAGE struct {
	cfg   ITTAGEConfig
	banks []ittEntry
	base  []ittBase

	hist     historyRing
	idxFolds []foldedInterval
	tagFolds []foldedInterval
	tg2Folds []foldedInterval
	tgtHist  uint64 // folded history of recent indirect targets (§IV-F)

	rowMask  uint32
	baseMask uint32
	tagMask  uint32
	lfsr     uint32

	cipher TargetCipher
	ctx    *Context

	// Scratch from the last Predict, consumed by Train.
	lastPC    uint64
	lastValid bool
	idxs      []uint32
	tags      []uint32
	provider  int
	predTgt   uint64
	predHit   bool
}

// NewITTAGE builds the predictor; row counts must be powers of two.
func NewITTAGE(cfg ITTAGEConfig) *ITTAGE {
	switch {
	case cfg.Banks < 2 || cfg.Banks > MaxTables:
		panic("branch: ITTAGE needs two to MaxTables tagged banks")
	case cfg.BankRows <= 0 || cfg.BankRows&(cfg.BankRows-1) != 0 || cfg.BankRows > MaxRows:
		panic("branch: ITTAGE bank rows must be a power of two up to MaxRows")
	case cfg.BaseRows <= 0 || cfg.BaseRows&(cfg.BaseRows-1) != 0 || cfg.BaseRows > MaxRows:
		panic("branch: ITTAGE base rows must be a power of two up to MaxRows")
	case cfg.TagBits < 2 || cfg.TagBits > 16:
		panic("branch: ITTAGE tag bits out of range")
	case cfg.HistMin < 1 || cfg.HistMax <= cfg.HistMin || cfg.HistMax > MaxHistory:
		panic("branch: ITTAGE history lengths out of order or past MaxHistory")
	}
	indexBits := uint(bits.Len(uint(cfg.BankRows - 1)))
	p := &ITTAGE{
		cfg:      cfg,
		banks:    make([]ittEntry, cfg.Banks*cfg.BankRows),
		base:     make([]ittBase, cfg.BaseRows),
		hist:     *newHistoryRing(cfg.HistMax + 2),
		rowMask:  uint32(cfg.BankRows - 1),
		baseMask: uint32(cfg.BaseRows - 1),
		tagMask:  uint32(1<<cfg.TagBits - 1),
		lfsr:     tageLFSRSeed,
		idxs:     make([]uint32, cfg.Banks),
		tags:     make([]uint32, cfg.Banks),
	}
	ratio := float64(cfg.HistMax) / float64(cfg.HistMin)
	prev := 0
	for i := 0; i < cfg.Banks; i++ {
		l := int(float64(cfg.HistMin)*math.Pow(ratio, float64(i)/float64(cfg.Banks-1)) + 0.5)
		if l <= prev {
			l = prev + 1
		}
		prev = l
		p.idxFolds = append(p.idxFolds, newFoldedInterval(indexBits, 1, 0, l))
		p.tagFolds = append(p.tagFolds, newFoldedInterval(uint(cfg.TagBits), 1, 0, l))
		p.tg2Folds = append(p.tg2Folds, newFoldedInterval(uint(cfg.TagBits-1), 1, 0, l))
	}
	return p
}

// SetCipher installs target encryption for stored targets (§V).
func (p *ITTAGE) SetCipher(c TargetCipher, ctx *Context) { p.cipher, p.ctx = c, ctx }

// Reset restores the post-construction cold state in place, keeping the
// installed cipher.
func (p *ITTAGE) Reset() {
	clear(p.banks)
	clear(p.base)
	clear(p.hist.vals)
	p.hist.pos = 0
	for i := range p.idxFolds {
		p.idxFolds[i].comp = 0
		p.tagFolds[i].comp = 0
		p.tg2Folds[i].comp = 0
	}
	p.tgtHist = 0
	p.lfsr = tageLFSRSeed
	p.lastPC = 0
	p.lastValid = false
}

// StorageBits models the predictor's state cost: tagged banks (full
// 30-bit target model, matching the BTB accounting) plus the base table.
func (p *ITTAGE) StorageBits() int {
	entryBits := p.cfg.TagBits + 30 + 2 + 2 + 1
	return p.cfg.Banks*p.cfg.BankRows*entryBits + p.cfg.BaseRows*(30+1)
}

func (p *ITTAGE) store(t uint64) uint64 {
	if p.cipher != nil {
		return p.cipher.Encrypt(p.ctx, t)
	}
	return t
}

func (p *ITTAGE) load(t uint64) uint64 {
	if p.cipher != nil {
		return p.cipher.Decrypt(p.ctx, t)
	}
	return t
}

func (p *ITTAGE) rand() uint32 {
	x := p.lfsr
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	p.lfsr = x
	return x
}

func (p *ITTAGE) entry(bank int, idx uint32) *ittEntry {
	return &p.banks[bank*p.cfg.BankRows+int(idx)]
}

// compute fills the per-bank index/tag scratch for pc. The recent-target
// history joins the hash (§IV-F: precursor conditional outcomes alone
// correlate poorly with indirect targets).
func (p *ITTAGE) compute(pc uint64) {
	for i := 0; i < p.cfg.Banks; i++ {
		h := rng.Mix64(pc>>2 ^ p.tgtHist*0x9e3779b97f4a7c15 + uint64(i)<<56)
		p.idxs[i] = (uint32(h) ^ p.idxFolds[i].value()) & p.rowMask
		p.tags[i] = (uint32(h>>32) ^ p.tagFolds[i].value() ^ p.tg2Folds[i].value()<<1) & p.tagMask
	}
}

// Predict returns the longest-history confident target, falling back to
// the base table.
func (p *ITTAGE) Predict(pc uint64) ITTPrediction {
	p.compute(pc)
	p.provider = -1
	p.predHit = false
	for i := p.cfg.Banks - 1; i >= 0; i-- {
		e := p.entry(i, p.idxs[i])
		if e.valid && e.tag == uint16(p.tags[i]) {
			p.provider = i
			if e.ctr >= 1 {
				p.predTgt = p.load(e.target)
				p.predHit = true
			}
			break
		}
	}
	if !p.predHit {
		if b := &p.base[uint32(rng.Mix64(pc>>2))&p.baseMask]; b.valid {
			p.predTgt = p.load(b.target)
			p.predHit = true
		}
	}
	p.lastPC, p.lastValid = pc, true
	if !p.predHit {
		return ITTPrediction{}
	}
	return ITTPrediction{Target: p.predTgt, Hit: true, Bubbles: p.cfg.Latency}
}

// Train resolves the indirect branch at pc to target: provider
// confidence and usefulness update, base-table refresh, mispredict
// allocation, and the global target-history fold.
func (p *ITTAGE) Train(pc, target uint64) {
	if !p.lastValid || p.lastPC != pc {
		p.Predict(pc)
	}
	p.lastValid = false
	correct := p.predHit && p.predTgt == target

	if p.provider >= 0 {
		e := p.entry(p.provider, p.idxs[p.provider])
		if p.load(e.target) == target {
			if e.ctr < 3 {
				e.ctr++
			}
			if !correct || !p.predHit {
				// Provider knew the target but lacked confidence; it
				// earned some.
				e.u = minU(e.u+1, 3)
			}
		} else {
			if e.ctr > 0 {
				e.ctr--
			} else {
				e.target = p.store(target)
				e.ctr = 1
			}
			if e.u > 0 {
				e.u--
			}
		}
	}

	// Allocate a longer-history entry on a misprediction.
	if !correct && p.provider < p.cfg.Banks-1 {
		start := p.provider + 1
		r := p.rand()
		if start < p.cfg.Banks-1 && r&1 != 0 {
			start++
		}
		allocated := false
		for j := start; j < p.cfg.Banks; j++ {
			e := p.entry(j, p.idxs[j])
			if !e.valid || e.u == 0 {
				*e = ittEntry{tag: uint16(p.tags[j]), target: p.store(target), ctr: 1, valid: true}
				allocated = true
				break
			}
		}
		if !allocated {
			for j := start; j < p.cfg.Banks; j++ {
				if e := p.entry(j, p.idxs[j]); e.u > 0 {
					e.u--
				}
			}
		}
	}

	b := &p.base[uint32(rng.Mix64(pc>>2))&p.baseMask]
	b.target = p.store(target)
	b.valid = true

	// Fold the resolved target into the global target history.
	p.tgtHist = (p.tgtHist<<7 | p.tgtHist>>57) ^ (target >> 2)
}

func minU(v, max uint8) uint8 {
	if v > max {
		return max
	}
	return v
}

// OnBranch advances the outcome history (conditional branches) — the
// same stream the direction predictors fold.
func (p *ITTAGE) OnBranch(pc uint64, cond, taken bool) {
	if !cond {
		return
	}
	var b uint16
	if taken {
		b = 1
	}
	vals := p.hist.vals
	mask := len(vals) - 1
	pos := p.hist.pos
	push := func(folds []foldedInterval) {
		for i := range folds {
			f := &folds[i]
			var leaving uint16
			if hi := int(f.hi); hi <= pos {
				leaving = vals[(pos-hi)&mask]
			}
			f.push(b, leaving)
		}
	}
	push(p.idxFolds)
	push(p.tagFolds)
	push(p.tg2Folds)
	vals[pos&mask] = b
	p.hist.pos = pos + 1
}
