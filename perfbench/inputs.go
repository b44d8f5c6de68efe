package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"strings"

	"exysim/internal/branch"
	"exysim/internal/isa"
	"exysim/internal/trace"
	"exysim/internal/workload"
)

// Every input the program sees derives from the --seed argument through
// mix, so one seed pins the whole run: suite seeds in job requests, the
// M7 and SHP variant lists, the serve_mixed script and the ChampSim
// upload. The program receives only the generated requests and bytes.

// defaultSeed is the seed the stored reference digests cover. README.md
// also records a held-out seed for confirming later claims.
const defaultSeed = 1

// mix derives an independent 64-bit value from seed and a salt
// (splitmix64 finalizer). It never returns 0, because a zero seed in a
// job request means "the preset's default".
func mix(seed, salt uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + salt*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// rng is a small seeded generator for script and variant choices.
type rng struct{ s uint64 }

func newRNG(seed, salt uint64) *rng { return &rng{s: mix(seed, salt)} }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	return mix(r.s, 0)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a seeded permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Population shape shared by all three workloads: all nine families
// (33 slices at four per family) of 25K measured instructions after a
// 6.25K warmup. An op stays under a second on two cores and is
// dominated by stepping. Many short slices rather than few long ones
// keep an op's cost from hanging on one slice: at two slices per family
// and 50K instructions the same work cost ~19% more or less from seed to
// seed (interquartile range over ten seeds), at four per family ~6%.
const (
	slicesPerFamily = 4
	instsPerSlice   = 25_000
	warmupFrac      = 0.25
)

// suiteSpec is the population one seed selects; salt separates the
// populations of independent requests (slice jobs).
func suiteSpec(seed, salt uint64) workload.SuiteSpec {
	return workload.SuiteSpec{
		SlicesPerFamily: slicesPerFamily,
		InstsPerSlice:   instsPerSlice,
		WarmupFrac:      warmupFrac,
		Seed:            mix(seed, salt),
	}
}

// specRequest is the job-request spelling of a spec.
type specRequest struct {
	SlicesPerFamily int     `json:"slices_per_family"`
	InstsPerSlice   int     `json:"insts_per_slice"`
	WarmupFrac      float64 `json:"warmup_frac"`
	Seed            uint64  `json:"seed"`
}

type m7Request struct {
	Base      string               `json:"base"`
	Name      string               `json:"name"`
	Predictor branch.PredictorSpec `json:"predictor"`
}

// jobRequest mirrors exyserve's version-2 job schema.
type jobRequest struct {
	SchemaVersion int          `json:"schema_version"`
	Kind          string       `json:"kind,omitempty"`
	Spec          *specRequest `json:"spec,omitempty"`
	M7            *m7Request   `json:"m7,omitempty"`
	Gen           string       `json:"gen,omitempty"`
	Slice         string       `json:"slice,omitempty"`
	Trace         string       `json:"trace,omitempty"`
}

func toSpecRequest(s workload.SuiteSpec) *specRequest {
	return &specRequest{s.SlicesPerFamily, s.InstsPerSlice, s.WarmupFrac, s.Seed}
}

func (j jobRequest) body() []byte {
	b, err := json.Marshal(j)
	if err != nil {
		panic(err) // plain structs always marshal
	}
	return b
}

// The seeded variant lists hold variantGeometries predictor geometries
// each. Op i runs geometry i mod variantGeometries under its own
// generation name (m7Name), and the shard cache, result cache, warm
// cache and simulator pool all key on the full generation config, name
// included: every op is a one-shot configuration that simulates its M7
// column from scratch, while the output check needs only one reference
// per geometry.
const variantGeometries = 16

// tageVariant returns op i's TAGE-SC-L + ITTAGE geometry, from a seeded
// pick of equal-storage variants around branch.M7TAGEConfig and
// branch.M7ITTAGEConfig: only history and path lengths move, so every
// variant has the same table storage and ops cost alike.
func tageVariant(seed uint64, i int) branch.PredictorSpec {
	histMin := []int{3, 4, 5, 6}
	histMax := []int{480, 512, 544, 576, 608, 640, 672, 704, 736, 768, 800}
	pathLen := []int{12, 14, 16, 18, 20}
	indMax := []int{48, 56, 64, 72, 80, 96}
	n := len(histMin) * len(histMax) * len(pathLen) * len(indMax)
	k := newRNG(seed, 0x7A6E).perm(n)[i%variantGeometries]
	t := branch.M7TAGEConfig()
	t.HistMin = histMin[k%len(histMin)]
	k /= len(histMin)
	t.HistMax = histMax[k%len(histMax)]
	k /= len(histMax)
	t.PathLen = pathLen[k%len(pathLen)]
	k /= len(pathLen)
	ind := branch.M7ITTAGEConfig()
	ind.HistMax = indMax[k]
	spec := branch.TAGESpec(t)
	spec.Indirect = &ind
	return spec
}

// shpVariant returns op i's M6 SHP with a longer global history (the
// paper's Fig. 1 question asked of the whole core): a seeded pick of
// GHIST lengths from 208 to 719, everything else M6's.
func shpVariant(seed uint64, i int) branch.PredictorSpec {
	const lo, n = 208, 512
	cfg := branch.M5SHPConfig() // M6 keeps M5's SHP geometry
	cfg.GHISTLen = lo + newRNG(seed, 0x5409).perm(n)[i%variantGeometries]
	return branch.SHPSpec(cfg)
}

// m7Name is op i's hypothetical generation name.
func m7Name(i int) string { return fmt.Sprintf("M7.%d", i) }

func m7Of(spec branch.PredictorSpec, i int) *m7Request {
	return &m7Request{Base: "M6", Name: m7Name(i), Predictor: spec}
}

// champSimUpload builds the serve_mixed trace upload: six phases, each a
// slice of a seeded synthetic family, concatenated into one gzip'd
// ChampSim stream. SimPoint should find the phases again.
func champSimUpload(seed uint64) ([]byte, error) {
	phases := workload.Suite(workload.SuiteSpec{
		SlicesPerFamily: 1, InstsPerSlice: 30_000, WarmupFrac: 0, Seed: mix(seed, 0xC4A3),
	})
	r := newRNG(seed, 0xC4A4)
	var insts []isa.Inst
	for _, k := range r.perm(len(phases))[:6] {
		insts = append(insts, phases[k].Insts...)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := trace.WriteChampSim(zw, &trace.Slice{Name: "upload", Insts: insts}); err != nil {
		return nil, fmt.Errorf("encode upload: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("encode upload: %w", err)
	}
	return buf.Bytes(), nil
}

// The SimPoint slicing the upload asks the daemon for.
const (
	uploadInterval = 10_000
	uploadMaxK     = 6
)

// Op kinds of the serve_mixed script.
const (
	kindPop    = "pop"
	kindSlice  = "slice"
	kindTrace  = "trace"
	kindCached = "cached"
)

// mixedOp is one step of the serve_mixed script.
type mixedOp struct {
	kind    string
	req     jobRequest
	variant branch.PredictorSpec // pop and trace jobs
	spec    workload.SuiteSpec   // the spec the job's slice or population comes from
	of      int                  // cached: the op index resubmitted
}

// scriptBlock is the serve_mixed mix by count: in every 25 ops, 5
// population jobs (~1 s), 12 slice jobs (~15 ms), 3 trace jobs
// (~0.13 s) and 5 result-cache hits (~1 ms). Sorted by time the cache
// hits come first (20%), then slice jobs (to 68%), trace jobs (to 80%)
// and population jobs: the median falls in the middle of the slice
// jobs, and in the 100 ops of a 20 s run the tail percentile (ten ops
// beyond it) is p90, the middle of the 20 population jobs, away from the
// trace jobs below them.
var scriptBlock = []string{
	kindPop, kindPop, kindPop, kindPop, kindPop,
	kindSlice, kindSlice, kindSlice, kindSlice, kindSlice, kindSlice,
	kindSlice, kindSlice, kindSlice, kindSlice, kindSlice, kindSlice,
	kindTrace, kindTrace, kindTrace,
	kindCached, kindCached, kindCached, kindCached, kindCached,
}

// mixedPopulation is the population serve_mixed's epoch ep sweeps in
// its population jobs: like sweep_cold, a run meets several, so its
// figures do not hang on what one population costs to simulate.
func mixedPopulation(seed uint64, ep int) workload.SuiteSpec {
	return suiteSpec(seed, uint64(1+ep))
}

// mixedPopRequest is epoch ep's cache-filling population job.
func mixedPopRequest(seed uint64, ep int) jobRequest {
	return jobRequest{SchemaVersion: 2, Spec: toSpecRequest(mixedPopulation(seed, ep))}
}

// mixedTraceRequest is a population job over the uploaded trace. Its
// spec is always the first population's: a trace job sweeps the
// upload, and the spec only names the request.
func mixedTraceRequest(seed uint64, traceID string) jobRequest {
	return jobRequest{SchemaVersion: 2, Spec: toSpecRequest(suiteSpec(seed, 1)), Trace: traceID}
}

// mixedScript returns the first n ops of the seeded serve_mixed script,
// perEpoch to an epoch (a multiple of the 25-op block): scriptBlock
// repeated, each block in a seeded order. Population jobs sweep their
// epoch's population and trace jobs the upload, each with the next SHP
// variant. Slice jobs walk every (generation, family) pair in a seeded
// order, so any run's slice jobs cover nearly the same mix, each on a
// seeded slice of the family with a fresh suite seed (new to the result
// cache, so it takes the classic guarded path). Resubmissions repeat
// one of the last 20 ops computed in the same epoch, which that epoch's
// 64-entry result cache still holds; no epoch opens with one.
func mixedScript(seed uint64, traceID string, n, perEpoch int) []mixedOp {
	r := newRNG(seed, 0x5C21)
	gens := []string{"M1", "M2", "M3", "M4", "M5", "M6"}
	// The population's slice names, by family.
	var families [][]string
	last := ""
	for _, sl := range workload.Suite(workload.SuiteSpec{SlicesPerFamily: slicesPerFamily, InstsPerSlice: 1, Seed: 1}) {
		fam := sl.Name[:strings.LastIndexByte(sl.Name, '/')]
		if fam != last {
			families = append(families, nil)
			last = fam
		}
		families[len(families)-1] = append(families[len(families)-1], sl.Name)
	}
	ops := make([]mixedOp, 0, n)
	var computed, kinds, pairs []int
	variant := 0
	for i := 0; len(ops) < n; i++ {
		epochStart := len(ops) / perEpoch * perEpoch
		if len(kinds) == 0 {
			kinds = r.perm(len(scriptBlock))
			if len(ops) == epochStart {
				// An epoch's fresh result cache holds nothing to resubmit.
				for j, k := range kinds {
					if scriptBlock[k] != kindCached {
						kinds[0], kinds[j] = kinds[j], kinds[0]
						break
					}
				}
			}
		}
		kind := scriptBlock[kinds[0]]
		kinds = kinds[1:]
		var op mixedOp
		switch kind {
		case kindCached:
			back := computed
			for len(back) > 0 && back[0] < epochStart {
				back = back[1:]
			}
			if len(back) > 20 {
				back = back[len(back)-20:]
			}
			of := back[r.intn(len(back))]
			op = ops[of]
			op.kind, op.of = kindCached, of
		case kindPop, kindTrace:
			v := shpVariant(seed, variant)
			variant++
			spec := mixedPopulation(seed, len(ops)/perEpoch)
			req := mixedPopRequest(seed, len(ops)/perEpoch)
			if kind == kindTrace {
				spec = suiteSpec(seed, 1)
				req = mixedTraceRequest(seed, traceID)
			}
			req.M7 = m7Of(v, variant-1)
			op = mixedOp{kind: kind, variant: v, spec: spec, req: req}
		default:
			if len(pairs) == 0 {
				pairs = r.perm(len(gens) * len(families))
			}
			k := pairs[0]
			pairs = pairs[1:]
			fam := families[k/len(gens)]
			sp := suiteSpec(seed, 0x10000+uint64(i))
			op = mixedOp{kind: kindSlice, spec: sp, req: jobRequest{
				SchemaVersion: 2, Kind: "slice", Spec: toSpecRequest(sp),
				Gen: gens[k%len(gens)], Slice: fam[r.intn(len(fam))],
			}}
		}
		if op.kind != kindCached {
			computed = append(computed, len(ops))
		}
		ops = append(ops, op)
	}
	return ops
}
