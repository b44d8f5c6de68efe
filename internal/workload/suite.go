package workload

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"exysim/internal/trace"
)

// SuiteSpec configures how the synthetic population stands in for the
// paper's 4,026 slices. The same spec (and seed) always produces exactly
// the same traces, so all six generations can be compared on identical
// input, matching the paper's constant-workload methodology (§II).
type SuiteSpec struct {
	// SlicesPerFamily scales population size. The paper's suite mixes
	// suites unevenly; we apply the per-family weights below.
	SlicesPerFamily int
	// InstsPerSlice is the detailed-region length of each slice.
	InstsPerSlice int
	// WarmupFrac is the fraction of InstsPerSlice prepended as warmup
	// (the paper uses 10M warmup / 100M detail = 0.1).
	WarmupFrac float64
	// Seed makes the whole population reproducible.
	Seed uint64
}

// Normalize clamps a spec to sane bounds so degenerate input (zero or
// negative sizes from a miswired CLI flag, a warmup fraction outside
// [0,1)) produces a small valid population instead of an empty or
// pathological one. Valid specs pass through unchanged, so normalizing
// is free for every existing caller.
func (s SuiteSpec) Normalize() SuiteSpec {
	if s.SlicesPerFamily < 1 {
		s.SlicesPerFamily = 1
	}
	if s.InstsPerSlice < 1 {
		s.InstsPerSlice = 1
	}
	if s.WarmupFrac < 0 || s.WarmupFrac != s.WarmupFrac { // negative or NaN
		s.WarmupFrac = 0
	}
	if s.WarmupFrac > 0.95 {
		s.WarmupFrac = 0.95
	}
	return s
}

// Slices is the number of slices Suite(s) generates, and SliceEntries
// the trace entries each is generated into: its instructions, warmup
// included, plus the generator's slack. Both are float64 so that no spec
// overflows them: a server checks them against bounds before generating
// anything.
func (s SuiteSpec) Slices() float64 {
	s = s.Normalize()
	slices := 0.0
	for _, wf := range defaultFamilies() {
		slices += max(math.Floor(float64(s.SlicesPerFamily)*wf.weight), 1)
	}
	return slices
}

// SliceEntries: see Slices.
func (s SuiteSpec) SliceEntries() float64 {
	s = s.Normalize()
	return float64(s.InstsPerSlice) + math.Floor(float64(s.InstsPerSlice)*s.WarmupFrac) + genSlack
}

// Preset suite sizes. Tests use Tiny; the figure CLIs default to Standard.
var (
	// TinySpec is for unit/integration tests: fast, still diverse.
	TinySpec = SuiteSpec{SlicesPerFamily: 2, InstsPerSlice: 20_000, WarmupFrac: 0.25, Seed: 0xE59}
	// QuickSpec is for benchmarks: one to two minutes for all gens.
	QuickSpec = SuiteSpec{SlicesPerFamily: 6, InstsPerSlice: 60_000, WarmupFrac: 0.25, Seed: 0xE59}
	// StandardSpec is the default population for regenerating figures.
	StandardSpec = SuiteSpec{SlicesPerFamily: 24, InstsPerSlice: 150_000, WarmupFrac: 0.2, Seed: 0xE59}
)

// familyWeight scales how many slices a family contributes relative to
// SlicesPerFamily, echoing the paper's suite composition (SPEC and web
// suites dominate; microkernels are a seasoning).
type weightedFamily struct {
	fam    Family
	weight float64
}

func defaultFamilies() []weightedFamily {
	return []weightedFamily{
		{SpecIntFamily(), 1.5},
		{SpecFPFamily(), 1.0},
		{WebFamily(), 1.5},
		{MobileFamily(), 1.25},
		{GameFamily(), 1.0},
		{TightLoopFamily(), 0.5},
		{ChaseFamily(), 0.5},
		{StreamFamily(), 0.5},
		{SMSFamily(), 0.5},
	}
}

// Suite materializes the full synthetic population for the spec. Each
// slice derives from (family, index, seed) alone, so the work is per
// slice: GOMAXPROCS workers take slices from a shared index and the
// population is identical to the serial construction, in the same
// order, with at most GOMAXPROCS programs under construction at once.
func Suite(spec SuiteSpec) []*trace.Slice {
	spec = spec.Normalize()
	warm := int(float64(spec.InstsPerSlice) * spec.WarmupFrac)
	budget := spec.InstsPerSlice + warm
	type sliceRef struct {
		fam Family
		idx int
	}
	var refs []sliceRef
	for _, wf := range defaultFamilies() {
		n := int(float64(spec.SlicesPerFamily) * wf.weight)
		if n < 1 {
			n = 1
		}
		for j := 0; j < n; j++ {
			refs = append(refs, sliceRef{wf.fam, j})
		}
	}
	return generate(len(refs), func(i int) *trace.Slice {
		return refs[i].fam.Gen(refs[i].idx, budget, warm, spec.Seed)
	})
}

// CBPSuite materializes the Fig. 1 branch-stress traces: n slices whose
// history correlations reach up to maxDist branches back.
func CBPSuite(n, instsPerSlice, maxDist int, seed uint64) []*trace.Slice {
	fam := CBPFamily(maxDist)
	warm := instsPerSlice / 10
	return generate(n, func(i int) *trace.Slice {
		return fam.Gen(i, instsPerSlice+warm, warm, seed)
	})
}

// generate builds slices 0..n-1 with gen on GOMAXPROCS workers, each
// taking the next index from a shared counter, so one slow slice holds
// up one worker only.
func generate(n int, gen func(i int) *trace.Slice) []*trace.Slice {
	out := make([]*trace.Slice, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = gen(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// ParseSliceName splits a "family/idx" slice name, e.g. "web/003", into
// one of the families Suite draws from and a decimal index ≥ 0. It is
// the whole name rule of ByName, so a server can reject a name at
// submit that ByName would fail on later.
func ParseSliceName(name string) (Family, int, error) {
	famName, idxText, _ := strings.Cut(name, "/")
	for _, wf := range defaultFamilies() {
		if wf.fam.Name != famName {
			continue
		}
		idx, err := strconv.Atoi(idxText)
		if err != nil {
			return Family{}, 0, fmt.Errorf("workload: slice %q: index %q is not a decimal integer", name, idxText)
		}
		if idx < 0 {
			return Family{}, 0, fmt.Errorf("workload: slice %q: negative index", name)
		}
		return wf.fam, idx, nil
	}
	return Family{}, 0, fmt.Errorf("workload: unknown slice %q (families: %s)", name, strings.Join(Families(), ", "))
}

// ByName builds one slice from "family/idx" syntax, e.g. "web/003";
// useful for CLI debugging of a single slice.
func ByName(name string, spec SuiteSpec) (*trace.Slice, error) {
	fam, idx, err := ParseSliceName(name)
	if err != nil {
		return nil, err
	}
	warm := int(float64(spec.InstsPerSlice) * spec.WarmupFrac)
	return fam.Gen(idx, spec.InstsPerSlice+warm, warm, spec.Seed), nil
}

// Families lists the family names available, for CLI help.
func Families() []string {
	fams := defaultFamilies()
	names := make([]string, len(fams))
	for i, wf := range fams {
		names[i] = wf.fam.Name
	}
	return names
}
