package workload

import (
	"fmt"
	"testing"
)

// benchShape is the population shape the throughput benchmark sweeps:
// 4 slices per family, 25K measured instructions after a 0.25 warmup.
func benchShape(seed uint64) SuiteSpec {
	return SuiteSpec{SlicesPerFamily: 4, InstsPerSlice: 25_000, WarmupFrac: 0.25, Seed: seed}
}

// TestSuiteMatchesPerSliceGeneration pins that Suite's parallel
// generation builds exactly the slices one ByName call per slice does,
// in family order and index order within a family, as many as
// SuiteSpec.Slices counts, each into the SliceEntries it sizes.
func TestSuiteMatchesPerSliceGeneration(t *testing.T) {
	for _, spec := range []SuiteSpec{TinySpec, benchShape(1), benchShape(90017)} {
		t.Run(fmt.Sprintf("%d/%d/seed=%d", spec.SlicesPerFamily, spec.InstsPerSlice, spec.Seed), func(t *testing.T) {
			var names []string
			for _, wf := range defaultFamilies() {
				n := max(int(float64(spec.SlicesPerFamily)*wf.weight), 1)
				for j := 0; j < n; j++ {
					names = append(names, sliceName(wf.fam.Name, j))
				}
			}
			got := Suite(spec)
			if len(got) != len(names) || float64(len(got)) != spec.Slices() {
				t.Fatalf("Suite built %d slices, want %d; Slices counts %v", len(got), len(names), spec.Slices())
			}
			for i, sl := range got {
				if sl.Name != names[i] {
					t.Fatalf("slice %d is %s, want %s", i, sl.Name, names[i])
				}
				if e := float64(sl.Len() + genSlack); e != spec.SliceEntries() {
					t.Fatalf("%s: generated into %v entries, SliceEntries sizes %v", sl.Name, e, spec.SliceEntries())
				}
				want, err := ByName(sl.Name, spec)
				if err != nil {
					t.Fatal(err)
				}
				if sl.Suite != want.Suite || sl.Warmup != want.Warmup || sl.Len() != want.Len() || sl.Digest() != want.Digest() {
					t.Fatalf("%s: Suite built (%s, warmup %d, len %d, digest %#x), ByName (%s, %d, %d, %#x)",
						sl.Name, sl.Suite, sl.Warmup, sl.Len(), sl.Digest(), want.Suite, want.Warmup, want.Len(), want.Digest())
				}
			}
		})
	}
}

// TestCBPSuiteMatchesPerSliceGeneration is the same pin for CBPSuite.
func TestCBPSuiteMatchesPerSliceGeneration(t *testing.T) {
	const n, insts, maxDist, seed = 5, 15_000, 150, 0xE59
	fam := CBPFamily(maxDist)
	for i, sl := range CBPSuite(n, insts, maxDist, seed) {
		want := fam.Gen(i, insts+insts/10, insts/10, seed)
		if sl.Name != want.Name || sl.Warmup != want.Warmup || sl.Digest() != want.Digest() {
			t.Fatalf("slice %d: CBPSuite built %s (digest %#x), Gen %s (%#x)", i, sl.Name, sl.Digest(), want.Name, want.Digest())
		}
	}
}

// TestProgramBuilderAllocs guards the program builder's allocation
// count on one web slice at the benchmark shape. Before blocks were
// carved from per-slice slabs and markov alternates shared one array,
// this slice took 135,277 allocations; the bound is half of that.
func TestProgramBuilderAllocs(t *testing.T) {
	const before = 135_277
	spec := benchShape(1)
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := ByName("web/000", spec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > before/2 {
		t.Fatalf("generating web/000 allocated %.0f times, want at most %d", allocs, before/2)
	}
	t.Logf("web/000: %.0f allocations", allocs)
}
