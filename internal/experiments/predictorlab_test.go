// Predictor-lab determinism suite: hypothetical-generation validation,
// the TAGE golden-MPKI fixture, and the cross-machinery bit-identity
// acceptance — an M7 sweep must produce byte-identical SummaryDocs
// whether it runs plain, on a pooled/warm-forked simulator set, or as
// merged fabric shards. `make predictor-smoke` runs this (race-enabled)
// as part of the tier-1 gate.
package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"exysim/internal/branch"
	"exysim/internal/core"
	"exysim/internal/workload"
)

// m7Spec is the predictor the lab sweeps by default in these tests:
// TAGE-SC-L direction prediction plus ITTAGE indirect targets.
func m7Spec() branch.PredictorSpec {
	spec := branch.TAGESpec(branch.M7TAGEConfig())
	ind := branch.M7ITTAGEConfig()
	spec.Indirect = &ind
	return spec
}

func TestHypotheticalGensValidates(t *testing.T) {
	if _, err := HypotheticalGens("M9", "M7", m7Spec()); err == nil {
		t.Fatal("unknown baseline must fail")
	}
	if _, err := HypotheticalGens("M6", "M3", m7Spec()); err == nil {
		t.Fatal("shipped-name collision must fail")
	}
	bad := m7Spec()
	bad.TAGE.Banks = -1
	if _, err := HypotheticalGens("M6", "M7", bad); err == nil {
		t.Fatal("invalid geometry must fail")
	}
	if _, err := HypotheticalGens("M6", "M7", branch.PredictorSpec{Kind: "nope"}); err == nil {
		t.Fatal("unknown kind must fail")
	}

	// Geometries past the caps fail before the constructors allocate:
	// each would otherwise take from tens of MB to many GB.
	oversized := map[string]func(*branch.PredictorSpec){
		"TAGE banks":       func(p *branch.PredictorSpec) { p.TAGE.Banks = 1 << 20 },
		"TAGE bank rows":   func(p *branch.PredictorSpec) { p.TAGE.BankRows = 1 << 30 },
		"TAGE bimodal":     func(p *branch.PredictorSpec) { p.TAGE.BimodalRows = 1 << 30 },
		"TAGE history":     func(p *branch.PredictorSpec) { p.TAGE.HistMax = 1 << 30 },
		"TAGE SC rows":     func(p *branch.PredictorSpec) { p.TAGE.SCRows = 1 << 30 },
		"TAGE loop":        func(p *branch.PredictorSpec) { p.TAGE.LoopSets, p.TAGE.LoopWays = 1<<62, 4 },
		"ITTAGE banks":     func(p *branch.PredictorSpec) { p.Indirect.Banks = 1 << 20 },
		"ITTAGE base rows": func(p *branch.PredictorSpec) { p.Indirect.BaseRows = 1 << 30 },
		"ITTAGE history":   func(p *branch.PredictorSpec) { p.Indirect.HistMax = 1 << 30 },
		"SHP tables": func(p *branch.PredictorSpec) {
			shp := branch.M5SHPConfig()
			shp.Tables = 1 << 20
			p.Kind, p.SHP, p.TAGE = branch.KindSHP, &shp, nil
		},
		"SHP rows": func(p *branch.PredictorSpec) {
			shp := branch.M5SHPConfig()
			shp.Rows = 1 << 30
			p.Kind, p.SHP, p.TAGE = branch.KindSHP, &shp, nil
		},
		"SHP history": func(p *branch.PredictorSpec) {
			shp := branch.M5SHPConfig()
			shp.GHISTLen = 1 << 30
			p.Kind, p.SHP, p.TAGE = branch.KindSHP, &shp, nil
		},
	}
	for name, grow := range oversized {
		spec := m7Spec()
		tage, ind := *spec.TAGE, *spec.Indirect
		spec.TAGE, spec.Indirect = &tage, &ind
		grow(&spec)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := HypotheticalGens("M6", "M7", spec)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s past the caps accepted", name)
		}
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 4<<20 {
			t.Errorf("%s: refusing it allocated %d bytes", name, grown)
		}
	}

	gens, err := HypotheticalGens("", "", m7Spec())
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != len(core.Generations())+1 {
		t.Fatalf("got %d generations, want %d", len(gens), len(core.Generations())+1)
	}
	m7 := gens[len(gens)-1]
	if m7.Name != "M7" || m7.Branch.Predictor.Kind != branch.KindTAGESCL {
		t.Fatalf("hypothetical generation wrong: %s kind %q", m7.Name, m7.Branch.Predictor.Kind)
	}
	// The base must be a faithful M6 copy outside the predictor seam.
	m6, _ := core.GenByName("M6")
	if m7.Pipe != m6.Pipe || m7.Mem != m6.Mem {
		t.Fatal("M7 must inherit M6's pipeline and memory configuration")
	}
}

// TestTAGEGoldenMPKI pins the TAGE-SC-L engine's end-to-end behavior to
// a golden fixture: the M7 generation's MPKI on one deterministic slice
// must reproduce exactly. Any intentional predictor change must update
// the constant — that is the point; silent behavior drift is what this
// guards against.
func TestTAGEGoldenMPKI(t *testing.T) {
	gens, err := HypotheticalGens("M6", "M7", m7Spec())
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.SuiteSpec{SlicesPerFamily: 1, InstsPerSlice: 30_000, WarmupFrac: 0.25, Seed: 0xE59}.Normalize()
	sl, err := workload.ByName("specint/0", spec)
	if err != nil {
		t.Fatal(err)
	}
	r := core.RunSlice(gens[len(gens)-1], sl)
	got := fmt.Sprintf("%.4f", r.MPKI)
	const golden = "5.7000"
	if got != golden {
		t.Fatalf("M7 TAGE-SC-L MPKI on specint/0 = %s, golden fixture %s", got, golden)
	}
}

// TestM7SweepBitIdenticalAcrossMachinery is the tentpole acceptance at
// the experiments layer: one M7 sweep computed four ways — plain,
// pooled+warm (three times: the second pass captures warm snapshots and
// the third forks them), and as
// independently merged fabric-style shards — must yield byte-identical
// SummaryDocs, and must leave the shipped generations' rows exactly as
// a default sweep computes them.
func TestM7SweepBitIdenticalAcrossMachinery(t *testing.T) {
	ctx := context.Background()
	spec := workload.SuiteSpec{SlicesPerFamily: 1, InstsPerSlice: 6_000, WarmupFrac: 0.25, Seed: 0xE59}.Normalize()
	gens, err := HypotheticalGens("M6", "M7", m7Spec())
	if err != nil {
		t.Fatal(err)
	}

	ref, err := Run(ctx, spec, WithGenerations(gens))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref.SummaryDoc())
	if err != nil {
		t.Fatal(err)
	}

	// Pooled + warm-forked: three sweeps through one pool and warm cache.
	// The first records each pair's first warmup, the second captures
	// every pair's image, the third replays every pair from snapshots.
	pool, warm := NewSimPool(), NewWarmCache()
	for pass := 0; pass < 3; pass++ {
		p, err := Run(ctx, spec, WithGenerations(gens), WithSimPool(pool), WithWarmSnapshots(warm))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(p.SummaryDoc())
		if string(got) != string(want) {
			t.Fatalf("pooled/warm pass %d differs from plain M7 sweep", pass)
		}
	}
	if st := warm.Stats(); st.Captures == 0 || st.Forks == 0 {
		t.Fatalf("captures %d, forks %d — the warm capture and fork paths were not both exercised", st.Captures, st.Forks)
	}

	// Fabric-style: plan shards over the extended genset, run each
	// independently (fresh pools, like separate workers), merge.
	slices := workload.Suite(spec)
	shards := PlanShards(len(gens), len(slices), 2)
	docs := make([]*ShardDoc, len(shards))
	for i, sh := range shards {
		doc, err := runShard(ctx, spec, sh, WithGenerations(gens), WithSimPool(NewSimPool()))
		if err != nil {
			t.Fatal(err)
		}
		// Wire round-trip, as worker uploads do.
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		docs[i] = new(ShardDoc)
		if err := json.Unmarshal(data, docs[i]); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := MergeShards(spec, gens, slices, docs)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(merged.SummaryDoc())
	if string(got) != string(want) {
		t.Fatalf("merged M7 shards differ from plain M7 sweep:\n want %s\n got  %s", want, got)
	}

	// The shipped generations must be untouched by the extra column:
	// their per-slice results equal a default sweep's, bit for bit.
	base, err := Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	for g := range base.Gens {
		for s := range base.Slices {
			a, _ := json.Marshal(base.Results[g][s])
			b, _ := json.Marshal(ref.Results[g][s])
			if string(a) != string(b) {
				t.Fatalf("%s/%s differs between default and M7-extended sweeps", base.Gens[g].Name, base.Slices[s].Name)
			}
		}
	}
}

// TestM7SweepSnapshotDigestsDisjoint: two differently-specced
// hypothetical generations under the same name must never share pool
// or warm-cache state — the digest keying that prevents an "M7"
// TAGE sweep from poisoning an "M7" SHP sweep.
func TestM7SweepSnapshotDigestsDisjoint(t *testing.T) {
	ctx := context.Background()
	spec := workload.SuiteSpec{SlicesPerFamily: 1, InstsPerSlice: 4_000, WarmupFrac: 0.25, Seed: 0xE59}.Normalize()

	tageGens, err := HypotheticalGens("M6", "M7", m7Spec())
	if err != nil {
		t.Fatal(err)
	}
	shpGens, err := HypotheticalGens("M6", "M7", branch.SHPSpec(branch.M5SHPConfig()))
	if err != nil {
		t.Fatal(err)
	}

	refTage, err := Run(ctx, spec, WithGenerations(tageGens))
	if err != nil {
		t.Fatal(err)
	}
	refSHP, err := Run(ctx, spec, WithGenerations(shpGens))
	if err != nil {
		t.Fatal(err)
	}

	// Interleave both sweeps through one shared pool and warm cache; the
	// third pass forks the images the second captured.
	pool, warm := NewSimPool(), NewWarmCache()
	for pass := 0; pass < 3; pass++ {
		a, err := Run(ctx, spec, WithGenerations(tageGens), WithSimPool(pool), WithWarmSnapshots(warm))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(ctx, spec, WithGenerations(shpGens), WithSimPool(pool), WithWarmSnapshots(warm))
		if err != nil {
			t.Fatal(err)
		}
		wa, _ := json.Marshal(a.SummaryDoc())
		ra, _ := json.Marshal(refTage.SummaryDoc())
		wb, _ := json.Marshal(b.SummaryDoc())
		rb, _ := json.Marshal(refSHP.SummaryDoc())
		if string(wa) != string(ra) {
			t.Fatalf("pass %d: shared-pool TAGE M7 sweep diverged", pass)
		}
		if string(wb) != string(rb) {
			t.Fatalf("pass %d: shared-pool SHP M7 sweep diverged", pass)
		}
	}
	if warm.Stats().Forks == 0 {
		t.Fatal("no pass forked a warm snapshot — the fork path was not exercised")
	}
	m7 := len(tageGens) - 1
	ta, _ := json.Marshal(refTage.Results[m7])
	sa, _ := json.Marshal(refSHP.Results[m7])
	if string(ta) == string(sa) {
		t.Fatal("TAGE and SHP M7 produced identical results — the predictors are not actually different")
	}
}
