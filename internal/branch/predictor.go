package branch

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// This file is the pluggable-predictor API: the DirectionPredictor
// interface every conditional-direction engine implements, the
// serializable PredictorSpec that selects and sizes one, and the
// registry that constructs engines from specs. The front end is built
// against this seam, so hypothetical generations ("M7" sweeps) swap
// predictors by config alone — no code changes, and the spec travels
// through config digests, job requests, and fabric grants like any
// other generation parameter.

// DirectionPredictor is the common interface of conditional-branch
// direction predictors (SHP, TAGE-SC-L, and the baselines). Callers must
// alternate Predict/Train for each dynamic conditional branch in program
// order, then advance history via OnBranch for every branch (conditional
// or not), mirroring how the front end streams branches past the
// predictor.
type DirectionPredictor interface {
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint64) Prediction
	// Train updates predictor state with the resolved outcome. It must
	// be called after Predict for the same pc.
	Train(pc uint64, taken bool)
	// OnBranch advances global state for a seen branch of any kind;
	// cond indicates a conditional branch with the given outcome.
	OnBranch(pc uint64, cond, taken bool)
	// Name identifies the predictor in reports.
	Name() string
	// StorageBits returns the predictor's total state cost; Budget
	// delegates Table II's predictor column to it.
	StorageBits() int
	// Reset restores the post-construction cold state in place without
	// reallocating, bit-identically to a fresh instance — the contract
	// pooled simulators and warm forks rely on.
	Reset()
}

// Geometry caps. Every table, bank and history length a predictor
// geometry sizes must fit them; the constructors check them before they
// allocate, so a job request's M7 geometry answers 400 instead of
// allocating without limit. Each is at least 8× every shipped, M7 and
// benchmark geometry.
const (
	// MaxTables caps SHP tables and TAGE, ITTAGE and SC banks.
	MaxTables = 128
	// MaxRows caps the rows of one table or bank, and the entries of
	// the TAGE loop predictor.
	MaxRows = 1 << 14
	// MaxBaseRows caps the TAGE bimodal table and the SHP bias store.
	MaxBaseRows = 1 << 16
	// MaxHistory caps history lengths, in branches.
	MaxHistory = 1 << 13
)

// Predictor kinds registered by this package.
const (
	KindSHP     = "shp"
	KindTAGESCL = "tage-sc-l"
)

// PredictorSpec selects and sizes a direction predictor, and optionally
// an indirect target predictor beside the VPC. It is plain data: JSON-
// serializable for job requests and fabric grants, digestable for warm-
// cache and result-store keys. Exactly the geometry config matching Kind
// should be set; an unset geometry selects that kind's default. An empty
// Kind means SHP (the paper's lineage), so a zero spec reproduces M1.
type PredictorSpec struct {
	Kind string      `json:"kind,omitempty"`
	SHP  *SHPConfig  `json:"shp,omitempty"`
	TAGE *TAGEConfig `json:"tage,omitempty"`
	// Indirect, when set, adds an ITTAGE-style indirect target predictor
	// consulted before the VPC walk. Independent of Kind.
	Indirect *ITTAGEConfig `json:"indirect,omitempty"`
}

// SHPSpec wraps an SHP geometry as a spec.
func SHPSpec(cfg SHPConfig) PredictorSpec {
	return PredictorSpec{Kind: KindSHP, SHP: &cfg}
}

// TAGESpec wraps a TAGE-SC-L geometry as a spec.
func TAGESpec(cfg TAGEConfig) PredictorSpec {
	return PredictorSpec{Kind: KindTAGESCL, TAGE: &cfg}
}

// String renders the spec with its geometry pointers dereferenced.
// Config digests fingerprint configurations through fmt verbs, which
// would otherwise print the pointer addresses — making every digest
// allocation-dependent instead of value-determined.
func (s PredictorSpec) String() string {
	var b strings.Builder
	b.WriteString("{kind:" + s.kind())
	if s.SHP != nil {
		fmt.Fprintf(&b, " shp:%+v", *s.SHP)
	}
	if s.TAGE != nil {
		fmt.Fprintf(&b, " tage:%+v", *s.TAGE)
	}
	if s.Indirect != nil {
		fmt.Fprintf(&b, " indirect:%+v", *s.Indirect)
	}
	b.WriteString("}")
	return b.String()
}

// kind returns the effective kind ("" defaults to SHP).
func (s PredictorSpec) kind() string {
	if s.Kind == "" {
		return KindSHP
	}
	return s.Kind
}

// EngineKind is the effective registry kind the spec constructs — the
// Kind field with the zero value resolved to its SHP default.
func (s PredictorSpec) EngineKind() string { return s.kind() }

// Validate reports whether the spec names a registered kind and carries
// a constructible geometry within the caps. It constructs (and discards)
// the engine, so geometry panics surface as errors — the serving layer
// calls this before accepting a job.
func (s PredictorSpec) Validate() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("branch: invalid predictor geometry: %v", r)
		}
	}()
	if _, err := NewDirectionPredictor(s); err != nil {
		return err
	}
	if s.Indirect != nil {
		NewITTAGE(*s.Indirect)
	}
	return nil
}

var (
	predictorMu   sync.RWMutex
	predictorCtor = map[string]func(PredictorSpec) DirectionPredictor{}
)

// RegisterPredictor installs a constructor for kind. Engines shipped in
// this package self-register in init; external packages may add more.
func RegisterPredictor(kind string, ctor func(PredictorSpec) DirectionPredictor) {
	if kind == "" || ctor == nil {
		panic("branch: RegisterPredictor needs a kind and a constructor")
	}
	predictorMu.Lock()
	defer predictorMu.Unlock()
	if _, dup := predictorCtor[kind]; dup {
		panic("branch: predictor kind registered twice: " + kind)
	}
	predictorCtor[kind] = ctor
}

// PredictorKinds lists the registered kinds, sorted.
func PredictorKinds() []string {
	predictorMu.RLock()
	defer predictorMu.RUnlock()
	kinds := make([]string, 0, len(predictorCtor))
	for k := range predictorCtor {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// NewDirectionPredictor constructs the engine a spec describes.
func NewDirectionPredictor(spec PredictorSpec) (DirectionPredictor, error) {
	predictorMu.RLock()
	ctor := predictorCtor[spec.kind()]
	predictorMu.RUnlock()
	if ctor == nil {
		return nil, fmt.Errorf("branch: unknown predictor kind %q (have %v)", spec.kind(), PredictorKinds())
	}
	return ctor(spec), nil
}

// mustDirectionPredictor is the constructor-context spelling: geometry
// errors panic like every other Config mistake.
func mustDirectionPredictor(spec PredictorSpec) DirectionPredictor {
	p, err := NewDirectionPredictor(spec)
	if err != nil {
		panic(err)
	}
	return p
}

func init() {
	RegisterPredictor(KindSHP, func(s PredictorSpec) DirectionPredictor {
		cfg := M1SHPConfig()
		if s.SHP != nil {
			cfg = *s.SHP
		}
		return NewSHP(cfg)
	})
	RegisterPredictor(KindTAGESCL, func(s PredictorSpec) DirectionPredictor {
		cfg := M7TAGEConfig()
		if s.TAGE != nil {
			cfg = *s.TAGE
		}
		return NewTAGESCL(cfg)
	})
}
