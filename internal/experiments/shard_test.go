package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand/v2"
	"sync"
	"testing"

	"exysim/internal/core"
	"exysim/internal/robust"
	"exysim/internal/robust/faultinject"
	"exysim/internal/workload"
)

var shardSpec = workload.SuiteSpec{SlicesPerFamily: 1, InstsPerSlice: 3_000, WarmupFrac: 0.25, Seed: 0xFAB}

// runShard computes one shard alone: a RunShards batch of one unit, as
// a fabric worker runs a grant.
func runShard(ctx context.Context, spec workload.SuiteSpec, sh Shard, opts ...Option) (*ShardDoc, error) {
	docs, err := RunShards(ctx, spec, []Shard{sh}, opts...)
	if err != nil {
		return nil, err
	}
	return docs[0], nil
}

// TestMergeShardsBitIdentical is the fabric's core correctness
// property: splitting a sweep into any partition of (generation,
// slice-range) shards, running the shards concurrently, shipping each
// ShardDoc through its JSON wire form, and merging in any order must
// reproduce the single-process SummaryDoc byte for byte. Computing
// random sets of the same shards as RunShards batches, as a
// coordinator's local runner does, must yield the same docs byte for
// byte, and those docs merge to the same summary.
func TestMergeShardsBitIdentical(t *testing.T) {
	ctx := context.Background()
	spec := shardSpec.Normalize()
	gens := core.Generations()
	slices := workload.Suite(spec)

	ref, err := Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref.SummaryDoc())
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewPCG(0xFAB, 7))
	for trial := 0; trial < 4; trial++ {
		// Random partition: per generation, cut the slice range at a
		// random set of boundaries.
		var shards []Shard
		for g := range gens {
			lo := 0
			for lo < len(slices) {
				w := 1 + rng.IntN(len(slices)-lo)
				shards = append(shards, Shard{Gen: g, Lo: lo, Hi: lo + w})
				lo += w
			}
		}
		rng.Shuffle(len(shards), func(i, j int) { shards[i], shards[j] = shards[j], shards[i] })

		docs := make([]*ShardDoc, len(shards))
		var wg sync.WaitGroup
		errs := make([]error, len(shards))
		for i, sh := range shards {
			wg.Add(1)
			go func(i int, sh Shard) {
				defer wg.Done()
				d, err := runShard(ctx, spec, sh)
				if err != nil {
					errs[i] = err
					return
				}
				// Wire round-trip: the merge must work from decoded
				// documents, exactly as a coordinator receives them.
				b, err := json.Marshal(d)
				if err != nil {
					errs[i] = err
					return
				}
				var rt ShardDoc
				if err := json.Unmarshal(b, &rt); err != nil {
					errs[i] = err
					return
				}
				docs[i] = &rt
			}(i, sh)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}

		merged, err := MergeShards(spec, gens, slices, docs)
		if err != nil {
			t.Fatalf("trial %d: merge: %v", trial, err)
		}
		got, err := json.Marshal(merged.SummaryDoc())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d (%d shards): merged summary differs from single-process run:\n  want: %s\n  got:  %s", trial, len(shards), want, got)
		}
		if merged.TotalInsts != ref.TotalInsts || merged.TotalCycles != ref.TotalCycles {
			t.Fatalf("trial %d: totals differ: insts %d/%d cycles %d/%d", trial, merged.TotalInsts, ref.TotalInsts, merged.TotalCycles, ref.TotalCycles)
		}

		// The same shards in random batches: cut the shuffled list at
		// random points and run each piece as one RunShards call.
		batched := make([]*ShardDoc, 0, len(shards))
		for lo := 0; lo < len(shards); {
			hi := lo + 1 + rng.IntN(len(shards)-lo)
			got, err := RunShards(ctx, spec, shards[lo:hi], WithWorkers(1+rng.IntN(3)))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != hi-lo {
				t.Fatalf("trial %d: batch of %d units returned %d docs", trial, hi-lo, len(got))
			}
			for k, d := range got {
				one, _ := json.Marshal(docs[lo+k])
				many, _ := json.Marshal(d)
				if !bytes.Equal(one, many) {
					t.Fatalf("trial %d: shard %+v computed in a batch of %d differs from computing it alone:\n  alone: %s\n  batch: %s",
						trial, shards[lo+k], hi-lo, one, many)
				}
			}
			batched = append(batched, got...)
			lo = hi
		}
		merged, err = MergeShards(spec, gens, slices, batched)
		if err != nil {
			t.Fatalf("trial %d: merge of batched docs: %v", trial, err)
		}
		if got, _ := json.Marshal(merged.SummaryDoc()); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: batched shards merge to a different summary", trial)
		}
	}

	// Overlapping units in one batch are refused, not double-counted.
	if _, err := RunShards(ctx, spec, []Shard{{Gen: 0, Lo: 0, Hi: 2}, {Gen: 0, Lo: 1, Hi: 3}}); err == nil {
		t.Fatal("RunShards accepted overlapping units")
	}
}

// TestRunShardsKeepsFaultsPerUnit: a batch charges each retry and
// quarantine to the unit holding its pair, so every doc — failure
// records, mask and retry count included — is byte-identical to the one
// its unit run alone produces under the same faults.
func TestRunShardsKeepsFaultsPerUnit(t *testing.T) {
	ctx := context.Background()
	spec := shardSpec.Normalize()
	units := PlanShards(len(core.Generations()), len(workload.Suite(spec)), 3)
	faults := []Option{
		WithRetries(1),
		// (1, 2) panics once and recovers on its retry; (4, 5) returns
		// a NaN IPC every time and is quarantined after its retry.
		WithStepHooks(func(g, s int) robust.StepHook {
			if g == 1 && s == 2 {
				return faultinject.PanicOnce(100)
			}
			return nil
		}),
		WithResultHooks(func(g, s int) robust.ResultHook {
			if g == 4 && s == 5 {
				return faultinject.NaNIPC
			}
			return nil
		}),
	}
	batch, err := RunShards(ctx, spec, units, faults...)
	if err != nil {
		t.Fatal(err)
	}
	retries, failures := 0, 0
	for i, sh := range units {
		alone, err := runShard(ctx, spec, sh, faults...)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(alone)
		b, _ := json.Marshal(batch[i])
		if !bytes.Equal(a, b) {
			t.Fatalf("shard %+v: batch doc differs from its unit run alone:\n  alone: %s\n  batch: %s", sh, a, b)
		}
		retries += batch[i].Retries
		failures += len(batch[i].Failures)
		hasRetry := sh.Gen == 1 && sh.Lo <= 2 && 2 < sh.Hi
		hasQuarantine := sh.Gen == 4 && sh.Lo <= 5 && 5 < sh.Hi
		if (batch[i].Retries == 1) != (hasRetry || hasQuarantine) || (len(batch[i].Failures) == 1) != hasQuarantine || (batch[i].Failed != nil) != hasQuarantine {
			t.Fatalf("shard %+v carries retries %d, failures %d, mask %v", sh, batch[i].Retries, len(batch[i].Failures), batch[i].Failed)
		}
	}
	if retries != 2 || failures != 1 {
		t.Fatalf("batch docs carry %d retries and %d failures, want 2 and 1", retries, failures)
	}
}

// TestMergeShardsDeterministicDocs checks the cache invariant: the same
// shard computed twice serializes byte-identically, and its digest is a
// pure function of (spec, generation config, range).
func TestMergeShardsDeterministicDocs(t *testing.T) {
	ctx := context.Background()
	spec := shardSpec.Normalize()
	gens := core.Generations()
	sh := Shard{Gen: 1, Lo: 0, Hi: 2}

	a, err := runShard(ctx, spec, sh)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runShard(ctx, spec, sh)
	if err != nil {
		t.Fatal(err)
	}
	ab, _ := json.Marshal(a)
	bb, _ := json.Marshal(b)
	if !bytes.Equal(ab, bb) {
		t.Fatalf("same shard computed twice differs:\n  %s\n  %s", ab, bb)
	}
	if a.Digest != sh.TraceDigest(spec, gens[sh.Gen], "") {
		t.Fatal("doc digest does not match Shard.TraceDigest")
	}
	if d2 := (Shard{Gen: 1, Lo: 0, Hi: 3}).TraceDigest(spec, gens[1], ""); d2 == a.Digest {
		t.Fatal("different slice ranges must not share a digest")
	}
}

func TestMergeShardsRejectsGapsAndOverlaps(t *testing.T) {
	ctx := context.Background()
	spec := shardSpec.Normalize()
	gens := core.Generations()
	slices := workload.Suite(spec)

	full := PlanShards(len(gens), len(slices), 0) // one shard per generation
	docs := make([]*ShardDoc, len(full))
	for i, sh := range full {
		d, err := runShard(ctx, spec, sh)
		if err != nil {
			t.Fatal(err)
		}
		docs[i] = d
	}
	if _, err := MergeShards(spec, gens, slices, docs); err != nil {
		t.Fatalf("full cover must merge: %v", err)
	}
	if _, err := MergeShards(spec, gens, slices, docs[1:]); err == nil {
		t.Fatal("merge with a missing generation must fail")
	}
	if _, err := MergeShards(spec, gens, slices, append(append([]*ShardDoc(nil), docs...), docs[0])); err == nil {
		t.Fatal("merge with an overlapping shard must fail")
	}
	bad := *docs[0]
	bad.Results = bad.Results[:len(bad.Results)-1]
	if _, err := MergeShards(spec, gens, slices, append([]*ShardDoc{&bad}, docs[1:]...)); err == nil {
		t.Fatal("merge with a truncated shard must fail")
	}
	bad2 := *docs[0]
	bad2.GenName = "not-a-generation"
	if _, err := MergeShards(spec, gens, slices, append([]*ShardDoc{&bad2}, docs[1:]...)); err == nil {
		t.Fatal("merge with a mismatched generation name must fail")
	}
}

func TestPlanShardsCoversExactly(t *testing.T) {
	for _, tc := range []struct{ gens, slices, max int }{
		{3, 10, 4}, {3, 10, 0}, {1, 1, 1}, {4, 7, 7}, {2, 5, 100},
	} {
		shards := PlanShards(tc.gens, tc.slices, tc.max)
		seen := make([][]bool, tc.gens)
		for g := range seen {
			seen[g] = make([]bool, tc.slices)
		}
		for _, sh := range shards {
			for s := sh.Lo; s < sh.Hi; s++ {
				if seen[sh.Gen][s] {
					t.Fatalf("%+v: (%d,%d) planned twice", tc, sh.Gen, s)
				}
				seen[sh.Gen][s] = true
			}
			if tc.max > 0 && sh.Hi-sh.Lo > tc.max {
				t.Fatalf("%+v: shard %+v wider than max", tc, sh)
			}
		}
		for g := range seen {
			for s := range seen[g] {
				if !seen[g][s] {
					t.Fatalf("%+v: (%d,%d) never planned", tc, g, s)
				}
			}
		}
	}
}
