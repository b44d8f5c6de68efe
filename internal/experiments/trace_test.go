// Trace-population sweeps: WithPopulation replaces the synthetic suite
// with SimPoint-weighted slices, and the weighted estimates must stay
// bit-identical across single-process, resumed-from-checkpoint, and
// sharded-and-merged runs — the property the distributed fabric leans
// on when it fans a real trace's slices across workers.
package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"path/filepath"
	"testing"

	"exysim/internal/core"
	"exysim/internal/trace"
	"exysim/internal/workload"
)

var traceSpec = workload.SuiteSpec{SlicesPerFamily: 1, InstsPerSlice: 3_000, WarmupFrac: 0.25, Seed: 0x51CE}

const tracePopID = "00112233aabbccdd"

// tracePopulation builds a weighted population the way ingest does —
// distinct per-slice SimPoint weights summing to 1 — from synthetic
// slices, so the tests exercise the weighting machinery without a
// ChampSim fixture.
func tracePopulation(spec workload.SuiteSpec) []*trace.Slice {
	base := workload.Suite(spec.Normalize())
	total := 0.0
	for i := range base {
		total += float64(i + 1)
	}
	out := make([]*trace.Slice, len(base))
	for i, sl := range base {
		cp := *sl
		cp.Weight = float64(i+1) / total
		cp.Cluster = i
		out[i] = &cp
	}
	return out
}

func TestWeightedMeansMatchManualAggregation(t *testing.T) {
	spec := traceSpec.Normalize()
	slices := tracePopulation(spec)
	p, err := Run(context.Background(), spec, WithPopulation(tracePopID, slices))
	if err != nil {
		t.Fatal(err)
	}
	if !p.Weighted() {
		t.Fatal("population with SimPoint weights reports Weighted() == false")
	}
	if p.PopID != tracePopID {
		t.Fatalf("PopID = %q, want %q", p.PopID, tracePopID)
	}
	for _, name := range MetricNames() {
		m, _ := MetricByName(name)
		got := p.WeightedMeans(m)
		for g := range p.Gens {
			sum, wsum := 0.0, 0.0
			for s := range p.Slices {
				sum += p.Slices[s].Weight * m(p.Results[g][s])
				wsum += p.Slices[s].Weight
			}
			want := sum / wsum
			if math.Abs(got[g]-want) > 1e-12 {
				t.Fatalf("%s gen %d: WeightedMeans %v, manual %v", name, g, got[g], want)
			}
		}
	}

	doc := p.SummaryDoc()
	if doc.Trace != tracePopID {
		t.Fatalf("SummaryDoc.Trace = %q, want %q", doc.Trace, tracePopID)
	}
	if len(doc.WeightedMeans) != len(MetricNames()) {
		t.Fatalf("SummaryDoc.WeightedMeans covers %d metrics, want %d", len(doc.WeightedMeans), len(MetricNames()))
	}

	// A synthetic run must keep the legacy document shape: no trace id,
	// no weighted means, and WeightedMeans degrades to the plain mean.
	plain, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Weighted() {
		t.Fatal("synthetic population reports Weighted() == true")
	}
	pd := plain.SummaryDoc()
	if pd.Trace != "" || pd.WeightedMeans != nil {
		t.Fatalf("synthetic SummaryDoc carries trace fields: trace=%q weighted=%v", pd.Trace, pd.WeightedMeans)
	}
	wm, mm := plain.WeightedMeans(MetricIPC), plain.Means(MetricIPC)
	for g := range wm {
		if wm[g] != mm[g] {
			t.Fatalf("unweighted WeightedMeans differs from Means at gen %d: %v vs %v", g, wm[g], mm[g])
		}
	}
}

func TestTracePopulationCheckpointResumeBitIdentical(t *testing.T) {
	spec := traceSpec.Normalize()
	slices := tracePopulation(spec)
	path := filepath.Join(t.TempDir(), "trace.jsonl")

	ref, err := Run(context.Background(), spec,
		WithPopulation(tracePopID, slices), WithCheckpoint(path))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref.SummaryDoc())
	if err != nil {
		t.Fatal(err)
	}

	p2, err := Run(context.Background(), spec,
		WithPopulation(tracePopID, slices), WithCheckpoint(path), WithResume())
	if err != nil {
		t.Fatal(err)
	}
	if total := len(p2.Gens) * len(p2.Slices); p2.Resumed != total {
		t.Fatalf("resumed %d of %d slices", p2.Resumed, total)
	}
	doc := p2.SummaryDoc()
	doc.Resumed = 0 // the only legitimate difference
	got, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed trace sweep differs from uninterrupted run:\n  want: %s\n  got:  %s", want, got)
	}

	// The population id is part of the checkpoint digest: a checkpoint
	// written for one trace must not resume a different one (the slice
	// indices would silently mean different instruction streams).
	if _, err := Run(context.Background(), spec,
		WithPopulation("ffeeddccbbaa9988", slices), WithCheckpoint(path), WithResume()); err == nil {
		t.Fatal("resuming another population's checkpoint must fail")
	}
}

func TestTraceShardMergeBitIdentical(t *testing.T) {
	ctx := context.Background()
	spec := traceSpec.Normalize()
	gens := core.Generations()
	slices := tracePopulation(spec)

	ref, err := Run(ctx, spec, WithPopulation(tracePopID, slices))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref.SummaryDoc())
	if err != nil {
		t.Fatal(err)
	}

	shards := PlanShards(len(gens), len(slices), 2)
	docs := make([]*ShardDoc, len(shards))
	for i, sh := range shards {
		d, err := runShard(ctx, spec, sh, WithPopulation(tracePopID, slices))
		if err != nil {
			t.Fatal(err)
		}
		if d.Digest != sh.TraceDigest(spec, gens[sh.Gen], tracePopID) {
			t.Fatalf("shard %+v digest %q does not match TraceDigest", sh, d.Digest)
		}
		if d.Digest == sh.TraceDigest(spec, gens[sh.Gen], "") {
			t.Fatalf("shard %+v trace digest collides with the synthetic digest", sh)
		}
		if len(d.Weights) != sh.Hi-sh.Lo {
			t.Fatalf("shard %+v carries %d weights, want %d", sh, len(d.Weights), sh.Hi-sh.Lo)
		}
		// Wire round-trip, exactly as a coordinator receives the doc.
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		var rt ShardDoc
		if err := json.Unmarshal(b, &rt); err != nil {
			t.Fatal(err)
		}
		docs[i] = &rt
	}

	merged, err := MergeShards(spec, gens, slices, docs)
	if err != nil {
		t.Fatal(err)
	}
	merged.PopID = tracePopID // the coordinator stamps this from the request
	got, err := json.Marshal(merged.SummaryDoc())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged trace sweep differs from single-process run:\n  want: %s\n  got:  %s", want, got)
	}

	// A shard computed over a different weighting must be rejected, not
	// silently averaged in.
	bad := *docs[0]
	bad.Weights = append([]float64(nil), bad.Weights...)
	bad.Weights[0] *= 2
	if _, err := MergeShards(spec, gens, slices, append([]*ShardDoc{&bad}, docs[1:]...)); err == nil {
		t.Fatal("merge with mismatched shard weights must fail")
	}
	short := *docs[0]
	short.Weights = short.Weights[:1]
	if _, err := MergeShards(spec, gens, slices, append([]*ShardDoc{&short}, docs[1:]...)); err == nil {
		t.Fatal("merge with a truncated weight vector must fail")
	}
}
