package branch

import "exysim/internal/rng"

// Prediction is a direction predictor's output.
type Prediction struct {
	Taken bool
	// Sum is the raw perceptron output (0/1-ish for counter schemes).
	Sum int
	// LowConfidence is set when the magnitude failed the training
	// threshold; the MRB (§IV-E) keys on low-confidence branches.
	LowConfidence bool
}

// SHPConfig sizes a Scaled Hashed Perceptron (§IV-A, §IV-E).
type SHPConfig struct {
	Tables    int // weight tables (M1: 8, M5: 16)
	Rows      int // weights per table (M1: 1024, M3+: 2048)
	WeightMax int // saturation magnitude (8-bit sign/magnitude: 127)
	BiasMax   int // bias weight saturation
	GHISTLen  int // global outcome history length (M1: 165, M5: 206)
	PHISTLen  int // path history length in branches (M1: 80)
	// BiasEntries sizes the per-branch bias store; on the real cores the
	// bias lives in each branch's BTB entry, so this models BTB reach.
	BiasEntries int
	// InitialTheta seeds the adaptive O-GEHL training threshold.
	InitialTheta int
}

// M1SHPConfig returns the first-generation geometry (§IV-A: eight tables
// of 1,024 weights, 165-bit GHIST, 80-branch PHIST).
func M1SHPConfig() SHPConfig {
	return SHPConfig{
		Tables: 8, Rows: 1024, WeightMax: 127, BiasMax: 63,
		GHISTLen: 165, PHISTLen: 80, BiasEntries: 4096,
		InitialTheta: 0,
	}
}

// M5SHPConfig returns the fifth-generation geometry (§IV-E: sixteen
// tables of 2,048 8-bit weights, GHIST +25%, rebalanced intervals).
func M5SHPConfig() SHPConfig {
	return SHPConfig{
		Tables: 16, Rows: 2048, WeightMax: 127, BiasMax: 63,
		GHISTLen: 206, PHISTLen: 100, BiasEntries: 8192,
		InitialTheta: 0,
	}
}

type biasEntry struct {
	bias   int16
	everNT bool // branch has been observed not-taken at least once
	seen   bool
}

// SHP is the Scaled Hashed Perceptron direction predictor. To predict, a
// per-branch BIAS weight is doubled and added to one signed weight read
// from each table, each table indexed by an XOR hash of a GHIST interval
// fold, a PHIST interval fold, and the PC (§IV-A). Non-negative sums
// predict taken. Training follows the O-GEHL adaptive-threshold rule, and
// always-taken branches skip weight-table updates to reduce aliasing.
type SHP struct {
	cfg       SHPConfig
	hist      *GlobalHistory
	weights   []int8 // cfg.Tables x cfg.Rows, flattened row-major
	bias      []biasEntry
	indexBits uint
	rowMask   uint32
	biasMask  uint32

	theta   int
	thetaTC int // O-GEHL threshold-training counter

	// Scratch from the last Predict, consumed by Train.
	lastPC    uint64
	lastIdx   []uint32
	lastSum   int
	lastValid bool
}

// NewSHP builds the predictor; rows and bias entries must be powers of 2.
func NewSHP(cfg SHPConfig) *SHP {
	if cfg.Tables <= 0 || cfg.Tables > MaxTables || cfg.Rows <= 0 || cfg.Rows&(cfg.Rows-1) != 0 || cfg.Rows > MaxRows {
		panic("branch: SHP needs one to MaxTables tables of a power of two rows up to MaxRows")
	}
	if cfg.BiasEntries <= 0 || cfg.BiasEntries&(cfg.BiasEntries-1) != 0 || cfg.BiasEntries > MaxBaseRows {
		panic("branch: SHP bias entries must be a power of two up to MaxBaseRows")
	}
	if cfg.GHISTLen > MaxHistory || cfg.PHISTLen > MaxHistory {
		panic("branch: SHP history past MaxHistory")
	}
	bitsFor := func(n int) uint {
		b := uint(0)
		for 1<<b < n {
			b++
		}
		return b
	}
	s := &SHP{
		cfg:       cfg,
		indexBits: bitsFor(cfg.Rows),
		rowMask:   uint32(cfg.Rows - 1),
		biasMask:  uint32(cfg.BiasEntries - 1),
		weights:   make([]int8, cfg.Tables*cfg.Rows),
		bias:      make([]biasEntry, cfg.BiasEntries),
		lastIdx:   make([]uint32, cfg.Tables),
	}
	s.hist = NewGlobalHistory(s.indexBits, GeometricIntervals(cfg.Tables, cfg.GHISTLen, cfg.PHISTLen))
	if cfg.InitialTheta > 0 {
		s.theta = cfg.InitialTheta
	} else {
		// The classic perceptron threshold heuristic scaled for the
		// table count; adapts online from here.
		s.theta = 2*cfg.Tables + 14
	}
	return s
}

// Reset restores the predictor to its post-New cold state in place:
// zeroed weights and bias store, cleared history folds, and theta
// re-seeded exactly as the constructor seeds it. Backing arrays and
// config-derived geometry are kept.
func (s *SHP) Reset() {
	clear(s.weights)
	clear(s.bias)
	s.hist.Reset()
	if s.cfg.InitialTheta > 0 {
		s.theta = s.cfg.InitialTheta
	} else {
		s.theta = 2*s.cfg.Tables + 14
	}
	s.thetaTC = 0
	s.lastPC = 0
	clear(s.lastIdx)
	s.lastSum = 0
	s.lastValid = false
}

// Name implements DirectionPredictor.
func (s *SHP) Name() string { return "shp" }

// StorageBits counts the weight tables. The per-branch bias store is
// excluded: on the real cores it lives inside each branch's BTB entry
// (§IV-A) and Budget accounts it there, via mbtbBranchBits' bias field.
func (s *SHP) StorageBits() int {
	return s.cfg.Tables * s.cfg.Rows * 8
}

// pcHash mixes the PC for table t.
func (s *SHP) pcHash(pc uint64, t int) uint32 {
	h := rng.Mix64(pc>>2 + uint64(t)*0x9e3779b97f4a7c15)
	return uint32(h) & s.rowMask
}

func (s *SHP) biasIndex(pc uint64) uint32 {
	return uint32(rng.Mix64(pc>>2)) & s.biasMask
}

// Predict implements DirectionPredictor.
func (s *SHP) Predict(pc uint64) Prediction {
	be := &s.bias[s.biasIndex(pc)]
	sum := 2 * int(be.bias) // "the signed BIAS weight is doubled" (§IV-A)
	for t := 0; t < s.cfg.Tables; t++ {
		idx := (s.hist.TableHash(t) ^ s.pcHash(pc, t)) & s.rowMask
		s.lastIdx[t] = idx
		sum += int(s.weights[t*s.cfg.Rows+int(idx)])
	}
	s.lastPC, s.lastSum, s.lastValid = pc, sum, true
	abs := sum
	if abs < 0 {
		abs = -abs
	}
	return Prediction{Taken: sum >= 0, Sum: sum, LowConfidence: abs <= s.theta}
}

func satAdd8(w int8, up bool, max int) int8 {
	if up {
		if int(w) < max {
			return w + 1
		}
		return w
	}
	if int(w) > -max {
		return w - 1
	}
	return w
}

// Train implements DirectionPredictor. The predictor is updated on a
// misprediction, or on a correct prediction whose |sum| fails the
// adaptive threshold; weights saturate in sign/magnitude range; branches
// that have never been observed not-taken skip the weight tables.
func (s *SHP) Train(pc uint64, taken bool) {
	if !s.lastValid || s.lastPC != pc {
		// Caller violated the Predict/Train protocol; recompute.
		s.Predict(pc)
	}
	s.lastValid = false
	sum := s.lastSum
	predTaken := sum >= 0
	mispredict := predTaken != taken
	abs := sum
	if abs < 0 {
		abs = -abs
	}

	be := &s.bias[s.biasIndex(pc)]
	alwaysTakenSoFar := be.seen && !be.everNT
	if !taken {
		be.everNT = true
	}
	firstSight := !be.seen
	be.seen = true

	// O-GEHL dynamic threshold fitting (§IV-A cites [15]).
	if mispredict {
		s.thetaTC++
		if s.thetaTC >= 63 {
			s.thetaTC = 0
			s.theta++
		}
	} else if abs <= s.theta {
		s.thetaTC--
		if s.thetaTC <= -63 {
			s.thetaTC = 0
			if s.theta > 1 {
				s.theta--
			}
		}
	}

	if !mispredict && abs > s.theta {
		return
	}

	// Bias always trains (it lives in the BTB entry).
	if taken {
		if int(be.bias) < s.cfg.BiasMax {
			be.bias++
		}
	} else if int(be.bias) > -s.cfg.BiasMax {
		be.bias--
	}

	// Always-TAKEN branches — unconditional ones never get here, and
	// conditionals that have so far always been taken — skip the weight
	// tables to reduce aliasing (§IV-A cites [16]). A branch whose
	// not-taken outcome is being trained right now is no longer
	// always-taken and does update.
	if (alwaysTakenSoFar || firstSight) && taken {
		return
	}
	for t := 0; t < s.cfg.Tables; t++ {
		w := &s.weights[t*s.cfg.Rows+int(s.lastIdx[t])]
		*w = satAdd8(*w, taken, s.cfg.WeightMax)
	}
}

// OnBranch implements DirectionPredictor: conditional outcomes enter
// GHIST; every branch contributes its address chunk to PHIST.
func (s *SHP) OnBranch(pc uint64, cond, taken bool) {
	if cond {
		s.hist.PushOutcome(taken)
	}
	s.hist.PushPath(pc)
}

// History exposes the global history (the front end shares it with the
// VPC predictor, whose virtual branches consult SHP).
func (s *SHP) History() *GlobalHistory { return s.hist }

// Theta returns the current adaptive training threshold (for tests and
// introspection).
func (s *SHP) Theta() int { return s.theta }
