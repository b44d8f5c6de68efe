// Tests for the warm-state snapshot/fork protocol: a simulator restored
// from a warm image captured at the warmup boundary must be
// indistinguishable from one that re-ran the warmup cold. The population
// harness leans on this to pay each (generation, slice) warmup once and
// fork every later rep or sweep variant from the stored image.
// Subtests are parallel, so `go test -race` also proves forked and cold
// runs share no mutable state across goroutines.
package exysim

import (
	"context"
	"reflect"
	"testing"

	"exysim/internal/core"
	"exysim/internal/experiments"
	"exysim/internal/robust"
	"exysim/internal/snapshot"
	"exysim/internal/workload"
)

// TestWarmForkMatchesColdRerun pins the bit-identity contract for every
// generation: capture a deep state image right after the warmup
// boundary, restore it into a *dirty* sibling simulator (one that has
// already run a different slice, so any field the codec misses would
// carry stale learned state), replay only the measured region, and
// require the full Result — branch/mem/pipe stats, power breakdown, IPC
// — to equal the cold run's bit for bit.
func TestWarmForkMatchesColdRerun(t *testing.T) {
	spec := workload.SuiteSpec{SlicesPerFamily: 1, InstsPerSlice: 12_000, WarmupFrac: 0.25, Seed: 0xE59}
	for _, g := range core.Generations() {
		t.Run(g.Name, func(t *testing.T) {
			t.Parallel()
			// Slices are stateful cursors; private population per subtest.
			slices := workload.Suite(spec)
			if len(slices) < 2 {
				t.Fatal("tiny suite produced fewer than two slices")
			}
			sl, other := slices[0], slices[len(slices)-1]
			pd := sl.PreDecode()

			// Cold reference run, capturing the warm image in passing.
			warmSim := core.NewSimulator(g)
			var img *snapshot.Image
			cold, fail := robust.RunGuardedDecoded(warmSim, pd, 0, robust.Options{
				CheckInvariants: true,
				AfterWarmup: func() {
					var err error
					if img, err = warmSim.CaptureState(); err != nil {
						t.Errorf("capture at warmup boundary: %v", err)
					}
				},
			})
			if fail != nil {
				t.Fatalf("cold run failed: %v", fail)
			}
			if img == nil {
				t.Fatal("AfterWarmup never fired")
			}

			// Fork: restore into a sibling dirtied by an unrelated slice,
			// then replay the measured region only.
			forked := core.NewSimulator(g)
			forked.Run(other)
			if err := forked.RestoreState(img); err != nil {
				t.Fatalf("restore into dirty sibling: %v", err)
			}
			got, fail := robust.RunGuardedDecoded(forked, pd, sl.Warmup, robust.Options{CheckInvariants: true})
			if fail != nil {
				t.Fatalf("forked run failed: %v", fail)
			}
			if !reflect.DeepEqual(got, cold) {
				t.Errorf("forked run differs from cold re-warm:\n  cold:   %+v\n  forked: %+v", cold, got)
			}

			// The image is read-only and shared: a second fork from the
			// same image must reproduce the same result.
			if err := forked.RestoreState(img); err != nil {
				t.Fatalf("second restore: %v", err)
			}
			again, fail := robust.RunGuardedDecoded(forked, pd, sl.Warmup, robust.Options{CheckInvariants: true})
			if fail != nil {
				t.Fatalf("second forked run failed: %v", fail)
			}
			if !reflect.DeepEqual(again, cold) {
				t.Errorf("second fork from the same image diverged")
			}
		})
	}
}

// TestRunWithWarmSnapshotsBitIdentical pins the sweep-level contract:
// experiments.Run with WithWarmSnapshots must produce bit-identical
// Results to a plain cold sweep on every pass — the first (which only
// records each pair's first warmup), the second (which captures each
// pair's image while running cold) and the third over the populated
// cache (which forks every pair from its stored image).
func TestRunWithWarmSnapshotsBitIdentical(t *testing.T) {
	spec := workload.SuiteSpec{SlicesPerFamily: 1, InstsPerSlice: 8_000, WarmupFrac: 0.25, Seed: 0xE59}
	ctx := context.Background()

	cold, err := experiments.Run(ctx, spec)
	if err != nil {
		t.Fatalf("cold sweep: %v", err)
	}
	if len(cold.Failures) != 0 {
		t.Fatalf("cold sweep quarantined slices: %+v", cold.Failures)
	}

	warm := experiments.NewWarmCache()
	for _, pass := range []string{"first-warmup", "capture", "fork"} {
		p, err := experiments.Run(ctx, spec, experiments.WithWarmSnapshots(warm))
		if err != nil {
			t.Fatalf("%s sweep: %v", pass, err)
		}
		if !reflect.DeepEqual(p.Results, cold.Results) {
			t.Errorf("%s pass differs from cold sweep", pass)
		}
	}

	st := warm.Stats()
	pairs := uint64(len(cold.Gens) * len(cold.Slices))
	if st.CaptureSkips != pairs {
		t.Errorf("capture skips = %d, want every pair's first warmup skipped (%d)", st.CaptureSkips, pairs)
	}
	if st.Captures != pairs {
		t.Errorf("captures = %d, want one per pair (%d)", st.Captures, pairs)
	}
	if st.Forks != pairs {
		t.Errorf("forks = %d, want every pair forked on the third pass (%d)", st.Forks, pairs)
	}
	if st.CaptureErrors != 0 {
		t.Errorf("capture errors: %d", st.CaptureErrors)
	}
	if st.SnapshotEntries != pairs || st.SnapshotBytes == 0 {
		t.Errorf("cache holds %d entries / %d bytes, want %d entries",
			st.SnapshotEntries, st.SnapshotBytes, pairs)
	}

	// A long-lived exyserve process runs warm snapshots and a shared
	// simulator pool together; pin that the combination stays
	// bit-identical to the cold sweep too.
	pooled, err := experiments.Run(ctx, spec,
		experiments.WithWarmSnapshots(warm), experiments.WithSimPool(experiments.NewSimPool()))
	if err != nil {
		t.Fatalf("pooled warm sweep: %v", err)
	}
	if !reflect.DeepEqual(pooled.Results, cold.Results) {
		t.Errorf("pooled fork pass differs from cold sweep")
	}
}
